"""The per-edge computations, reached through the public functions and
through a workflow graph.

First, the public per-edge functions on every transform kind, input model
and reconstruction: which value each returns, or which error it raises
first. The expected outcomes are written out as a table of rules; the
values are checked against the naive oracles. Second, a property over
random workflows: on every edge, the graph's terms equal the public
functions' and the oracles', and the whole workflow's benefit and cost
equal ``workflow_oracle``'s.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cbr.alphabet import Pmf, entropy, enumerated, max_entropy, product, symbolic
from cbr.metrics import grouping_check, step_metrics
from cbr.reconstruction import (
    DeclaredDivergence,
    ExactConditional,
    PriorWeighted,
    Reconstruction,
    UniformPreimage,
    distortion_bits,
    impression,
)
from cbr.specio import resolve_metric
from cbr.transform import (
    Aggregator,
    Channel,
    CostRecord,
    DeclaredHuman,
    Grouping,
    Quantizer,
    Transform,
    mutual_information,
    pushforward,
)
from cbr.workflow import Edge, WorkflowGraph
from oracles import (
    entropy_oracle,
    kl_oracle,
    mi_oracle,
    prior_weighted_impression_oracle,
    pushforward_oracle,
    uniform_preimage_impression_oracle,
    workflow_oracle,
)

COST = CostRecord("time", 2.0, "s")
LETTERS = [str(i) for i in range(8)]
P = dict(zip(LETTERS, [0.05, 0.15, 0.1, 0.2, 0.05, 0.25, 0.1, 0.1]))
PRIOR = dict(zip(LETTERS, [0.2, 0.1, 0.05, 0.05, 0.3, 0.1, 0.1, 0.1]))

INPUTS = {
    "enumerated": enumerated("E", P),
    "symbolic": symbolic("S", 5.0, 6.0),
    "product": product(symbolic("f", 3.0, 4.0), 6, "P"),
}

GROUP_MAP = dict(zip(LETTERS, "aabbbccd"))
BIN_MAP = dict(zip(LETTERS, ["bin0"] * 3 + ["bin1"] * 2 + ["bin2"] * 3))
CHANNEL_ROWS = tuple((i / 7, 1 - i / 7) for i in range(8))
DECLARED_OUT = symbolic("Dout", 1.0, 2.0)

KINDS = {
    "grouping": Grouping(GROUP_MAP),
    "partial_grouping": Grouping({k: v for k, v in GROUP_MAP.items() if k != "7"}),
    "quantizer": Quantizer(3, (0.0, 2.5, 5.0, 7.0)),
    "symbolic_quantizer": Quantizer(8),
    "aggregator": Aggregator(2),
    "channel": Channel(tuple(LETTERS), ("lo", "hi"), CHANNEL_ROWS),
    "declared": DeclaredHuman(DECLARED_OUT, 0.75),
}

RECONSTRUCTIONS = {
    "none": None,
    "exact": Reconstruction("exact", ExactConditional()),
    "uniform": Reconstruction("uniform", UniformPreimage()),
    "prior": Reconstruction("prior", PriorWeighted(Pmf(PRIOR))),
    "declared": Reconstruction("declared", DeclaredDivergence(0.5)),
}

# the fixed output alphabet handed to step_metrics, which reads only its entropy
OUTPUT = symbolic("out", 1.0, 2.0)

NEEDS_ENUMERATED_INPUT = "mode mismatch: deterministic transform requires enumerated input"
NOT_ENUMERATED = "mode mismatch: alphabet is not enumerated"
NO_ENUMERATED_MODEL = "requires enumerated model"
NO_LETTER_MAP = "mode mismatch: symbolic quantizer has no letter map"
PARTIAL = "partial mapping: unmapped letters ['7']"
DETERMINISTIC = ("grouping", "partial_grouping", "quantizer")

# pushforward's error for each kind and input model; None where it succeeds
PUSHFORWARD = {
    "grouping": {"symbolic": NEEDS_ENUMERATED_INPUT, "product": NEEDS_ENUMERATED_INPUT},
    "partial_grouping": {
        "enumerated": PARTIAL,
        "symbolic": NEEDS_ENUMERATED_INPUT,
        "product": NEEDS_ENUMERATED_INPUT,
    },
    "quantizer": {"symbolic": NEEDS_ENUMERATED_INPUT, "product": NEEDS_ENUMERATED_INPUT},
    "symbolic_quantizer": dict.fromkeys(
        ("enumerated", "symbolic"),
        "mode mismatch: symbolic quantizer requires a product of symbolic factors",
    ),
    "aggregator": dict.fromkeys(
        ("enumerated", "symbolic"), "mode mismatch: aggregator requires a product alphabet"
    ),
    "channel": dict.fromkeys(
        ("symbolic", "product"), "mode mismatch: channel requires an enumerated alphabet"
    ),
    "declared": {},
}


def mi_error(kind: str, inp: str):
    if inp != "enumerated":
        return NO_ENUMERATED_MODEL
    if kind == "partial_grouping":
        return PARTIAL
    if kind == "symbolic_quantizer":
        return NO_LETTER_MAP
    if kind in ("aggregator", "declared"):
        return "mode mismatch: no joint distribution for this transform kind"
    return None


def impression_error(recon: str, kind: str, inp: str):
    """The first error of an impression, in the order the checks run: the
    reconstruction, the transform kind, the input model, the letter map."""
    if recon == "declared":
        return "no enumerated impression available"
    if kind not in DETERMINISTIC + ("symbolic_quantizer",):
        return "mode mismatch: impression requires a deterministic transform"
    if kind == "symbolic_quantizer":
        return NO_LETTER_MAP
    if inp != "enumerated":
        return NOT_ENUMERATED
    if kind == "partial_grouping":
        return PARTIAL
    return None


def distortion_error(recon: str, kind: str, inp: str):
    if recon == "none":
        return None if kind == "declared" else "unscored edge: no reconstruction given"
    if recon == "declared":
        return None
    return impression_error(recon, kind, inp)


def grouping_error(kind: str, inp: str):
    if kind not in ("grouping", "partial_grouping"):
        return "mode mismatch: grouping_check requires a grouping"
    if inp != "enumerated":
        return NOT_ENUMERATED
    return PARTIAL if kind == "partial_grouping" else None


# -- the values, from the oracles ---------------------------------------------


def letter_map(kind: str) -> dict:
    return GROUP_MAP if kind == "grouping" else BIN_MAP


def mi_value(kind: str) -> float:
    if kind == "channel":
        return mi_oracle([[P[x] * c for c in row] for x, row in zip(LETTERS, CHANNEL_ROWS)])
    return entropy_oracle(pushforward_oracle(letter_map(kind), P).values())


def impression_value(recon: str, kind: str) -> dict:
    if recon == "exact":
        return dict(P)
    if recon == "uniform":
        return uniform_preimage_impression_oracle(letter_map(kind), P)
    return prior_weighted_impression_oracle(letter_map(kind), P, PRIOR)


def distortion_value(recon: str, kind: str) -> float:
    if recon == "none":
        return 0.75
    if recon == "declared":
        return 0.5
    imp = impression_value(recon, kind)
    total = math.fsum(imp.values())
    return kl_oracle({x: v / total for x, v in imp.items()}, P)


def case(kind: str, inp: str):
    return Transform(kind, KINDS[kind], COST), INPUTS[inp]


def expect_error(message: str, fn, *args, **kwargs):
    with pytest.raises(ValueError) as exc:
        fn(*args, **kwargs)
    assert str(exc.value) == message


ALL = pytest.mark.parametrize("inp", list(INPUTS))
EVERY_KIND = pytest.mark.parametrize("kind", list(KINDS))
EVERY_RECONSTRUCTION = pytest.mark.parametrize("recon", list(RECONSTRUCTIONS))


@ALL
@EVERY_KIND
def test_pushforward(kind, inp):
    t, x = case(kind, inp)
    error = PUSHFORWARD[kind].get(inp)
    if error is not None:
        return expect_error(error, pushforward, t, x)
    out = pushforward(t, x, name="Y")
    if kind in ("grouping", "quantizer"):
        assert out.name == "Y"
        assert out.model.pmf.probs == pytest.approx(pushforward_oracle(letter_map(kind), P), abs=1e-15)
    elif kind == "channel":
        expect = {o: math.fsum(P[x] * row[j] for x, row in zip(LETTERS, CHANNEL_ROWS))
                  for j, o in enumerate(("lo", "hi"))}
        assert out.model.pmf.probs == pytest.approx(expect, abs=1e-15)
    elif kind == "symbolic_quantizer":  # each 3-bit factor fits the 8 levels
        assert (entropy(out), max_entropy(out)) == (18.0, 18.0)
    elif kind == "aggregator":  # 6 factors merged in windows of 2
        assert (entropy(out), max_entropy(out)) == (9.0, 12.0)
    else:
        assert out is DECLARED_OUT


@ALL
@EVERY_KIND
def test_mutual_information(kind, inp):
    t, x = case(kind, inp)
    error = mi_error(kind, inp)
    if error is not None:
        return expect_error(error, mutual_information, t, x)
    assert mutual_information(t, x) == pytest.approx(mi_value(kind), abs=1e-12)


@ALL
@EVERY_KIND
def test_machine_centric_distortion(kind, inp):
    t, x = case(kind, inp)
    error = mi_error(kind, inp)
    if error is not None:
        return expect_error(error, step_metrics, t, None, x, OUTPUT, machine_centric=True)
    d = step_metrics(t, None, x, OUTPUT, machine_centric=True).d_kl
    assert d == pytest.approx(entropy_oracle(P.values()) - mi_value(kind), abs=1e-12)


@ALL
@EVERY_KIND
def test_grouping_check(kind, inp):
    t, x = case(kind, inp)
    error = grouping_error(kind, inp)
    if error is not None:
        return expect_error(error, grouping_check, x, t)
    assert grouping_check(x, t) <= 1e-12


@pytest.mark.parametrize("recon", [r for r in RECONSTRUCTIONS if r != "none"])
@ALL
@EVERY_KIND
def test_impression(kind, inp, recon):
    t, x = case(kind, inp)
    g = RECONSTRUCTIONS[recon]
    error = impression_error(recon, kind, inp)
    if error is not None:
        return expect_error(error, impression, g, t, x)
    imp = impression(g, t, x)
    assert imp.alphabet is x
    assert imp.pmf.probs == pytest.approx(impression_value(recon, kind), abs=1e-15)


@EVERY_RECONSTRUCTION
@ALL
@EVERY_KIND
def test_distortion(kind, inp, recon):
    t, x = case(kind, inp)
    g = RECONSTRUCTIONS[recon]
    error = distortion_error(recon, kind, inp)
    if error is not None:
        return expect_error(error, distortion_bits, g, t, x)
    assert distortion_bits(g, t, x) == pytest.approx(distortion_value(recon, kind), abs=1e-12)


@pytest.mark.parametrize("machine_centric", [False, True])
@EVERY_RECONSTRUCTION
@ALL
@EVERY_KIND
def test_step_metrics(kind, inp, recon, machine_centric):
    t, x = case(kind, inp)
    g = RECONSTRUCTIONS[recon]
    expect_error("unknown entropy mode 'typical'", step_metrics, t, g, x, OUTPUT, "typical")
    if machine_centric:
        error = mi_error(kind, inp)
    else:
        error = distortion_error(recon, kind, inp)
    if error is not None:
        return expect_error(error, step_metrics, t, g, x, OUTPUT, machine_centric=machine_centric)
    d = entropy(x) - mi_value(kind) if machine_centric else distortion_value(recon, kind)
    for mode, h in (("actual", entropy), ("maximal", max_entropy)):
        m = step_metrics(t, g, x, OUTPUT, mode, machine_centric)
        h_in, h_out = h(x), h(OUTPUT)
        assert m.entropy_mode == mode and m.cost == COST
        assert m.acr == pytest.approx(h_out / h_in, abs=1e-12)
        assert m.pdr == pytest.approx(d / h_in, abs=1e-12)
        assert m.benefit_bits == pytest.approx(h_in - h_out - d, abs=1e-12)
        assert m.incremental_cbr == pytest.approx((h_in - h_out - d) / 2.0, abs=1e-12)


# -- the graph's path, the public functions and the oracles, edge by edge ------


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def draw_bytes(draw, ids) -> bytes:
    """One byte per letter, drawn at once: far cheaper than a list of numbers."""
    return draw(st.binary(min_size=len(ids), max_size=len(ids)))


def draw_pmf(draw, ids) -> dict:
    """A pmf over ``ids`` whose weights are 1..256, each letter's drawn byte + 1."""
    w = [b + 1 for b in draw_bytes(draw, ids)]
    total = sum(w)
    return {x: v / total for x, v in zip(ids, w)}


def draw_map(draw, ids, prefix: str) -> dict:
    """A grouping of ``ids`` onto at least two groups."""
    codes = [b % len(ids) for b in draw_bytes(draw, ids)]
    if len(set(codes)) < 2:
        codes[-1] = (codes[0] + 1) % len(ids)
    return {x: f"{prefix}{c}" for x, c in zip(ids, codes)}


@st.composite
def workflows(draw):
    """A random valid workflow over enumerated alphabets, in plain Python:
    node name -> pmf dict, and a list of steps, each a dict with its name,
    ``src``, ``dst``, letter ``map`` (None for a declared step), ``cuts``
    (for a quantizer, the letters of X that start a new bin; else None),
    ``recon`` and declared ``bits``.

    One source X of 2-64 letters with numeric ids; groupings, quantizers
    (from X) and declared human steps; fork/join triangles P -> Z -> Y plus
    P -> Y; nested joints, a triangle with declared steps Z -> C, Y -> C,
    C -> E and Y -> E, so that E's fork is the joint Y; declared joins into
    later nodes, which may repeat a (src, dst) pair; repeated deterministic
    edges; a tie, declared steps P -> A and P -> B, then A and B each -> C
    and -> E, then C and E -> F, so that F has two lowest common
    ancestors, A and B. Every sink but one joins a final declared node.
    """
    n = draw(st.integers(2, 64))
    nodes = {"X": draw_pmf(draw, [str(i) for i in range(n)])}
    steps = []

    def add(src, dst, letters=None, cuts=None, recon=None, bits=None):
        steps.append(dict(name=f"s{len(steps)}", src=src, dst=dst, map=letters, cuts=cuts,
                          recon=recon, bits=bits))

    def deterministic(src, letters, dst=None, cuts=None):
        dst = dst or f"N{len(nodes)}"
        nodes.setdefault(dst, pushforward_oracle(letters, nodes[src]))
        r = draw(st.sampled_from(["exact", "uniform", "prior"]))
        add(src, dst, letters, cuts, (r, draw_pmf(draw, list(nodes[src])) if r == "prior" else None))
        return dst

    def declared(src, dst=None):
        if dst is None:
            dst = f"N{len(nodes)}"
            nodes[dst] = draw_pmf(draw, [f"h{i}" for i in range(draw(st.integers(2, 8)))])
        add(src, dst, bits=draw(st.sampled_from([None, 0.0, 0.25, 1.5])))  # None: the step's own
        return dst

    for _ in range(draw(st.integers(1, 6))):
        order = list(nodes)
        src = draw(st.sampled_from(order))
        ids = list(nodes[src])
        op = draw(st.sampled_from([
            "grouping", "quantizer", "declared", "join", "triangle", "nested", "repeat", "tie",
        ]))
        if op == "grouping":
            deterministic(src, draw_map(draw, ids, f"{src}g"))
        elif op == "quantizer":
            cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=min(7, n - 1))))
            bins = {str(i): f"bin{sum(c <= i for c in cuts)}" for i in range(n)}
            deterministic("X", bins, cuts=cuts)
        elif op == "declared":
            declared(src)
        elif op == "join" and order.index(src) + 1 < len(order):
            declared(src, draw(st.sampled_from(order[order.index(src) + 1:])))
        elif op in ("triangle", "nested"):
            h = draw_map(draw, ids, f"{src}t")
            z = deterministic(src, h)
            g = draw_map(draw, list(nodes[z]), f"{z}u")
            y = deterministic(z, g)
            deterministic(src, {x: g[h[x]] for x in ids}, y)
            if op == "nested":  # C joins Z and Y; E joins C and Y, so E's fork is Y
                c = declared(z)
                declared(y, c)
                e = declared(c)
                declared(y, e)
        elif op == "repeat" and any(s["map"] for s in steps):
            s = draw(st.sampled_from([s for s in steps if s["map"]]))
            deterministic(s["src"], s["map"], s["dst"], s["cuts"])
        elif op == "tie":
            a, b = declared(src), declared(src)
            c, e = declared(a), declared(a)
            declared(b, c)
            declared(b, e)
            declared(e, declared(c))
    sinks = [v for v in nodes if all(s["src"] != v for s in steps)]
    if len(sinks) > 1:
        nodes["D"] = draw_pmf(draw, [f"d{i}" for i in range(draw(st.integers(2, 8)))])
        for v in sinks:
            declared(v, "D")
    return nodes, steps


RECONSTRUCTION_KINDS = {"exact": ExactConditional, "uniform": UniformPreimage}


def build(nodes: dict, steps: list):
    """The WorkflowGraph of a drawn workflow, and its edges by step name."""
    alphabets = {v: enumerated(v, p) for v, p in nodes.items()}
    edges = {}
    for s in steps:
        if s["map"] is None:
            kind, node_kind = DeclaredHuman(alphabets[s["dst"]], 0.5), "H"
            bits = s["bits"]
            g = None if bits is None else Reconstruction("declared", DeclaredDivergence(bits))
        else:
            if s["cuts"] is None:
                kind = Grouping(s["map"])
            else:
                n = len(nodes["X"])
                kind = Quantizer(len(s["cuts"]) + 1, (-0.5, *(c - 0.5 for c in s["cuts"]), n - 0.5))
            node_kind = "M"
            r, prior = s["recon"]
            g = Reconstruction(r, RECONSTRUCTION_KINDS[r]() if prior is None else PriorWeighted(Pmf(prior)))
        edges[s["name"]] = Edge(s["src"], s["dst"], Transform(s["name"], kind, COST, node_kind), g)
    return WorkflowGraph(alphabets, list(edges.values())), edges


def distortion_oracle(s: dict, nodes: dict) -> float:
    if s["map"] is None:
        return 0.5 if s["bits"] is None else s["bits"]
    p = nodes[s["src"]]
    r, prior = s["recon"]
    if r == "exact":
        return 0.0
    if r == "uniform":
        imp = uniform_preimage_impression_oracle(s["map"], p)
    else:
        imp = prior_weighted_impression_oracle(s["map"], p, prior)
    total = math.fsum(imp.values())
    return kl_oracle({x: v / total for x, v in imp.items()}, p)


TERMS = ("h_in", "h_out", "d_kl")  # an edge's metric paths of H(in), H(out) and D_KL

ENTROPY_ORACLES = {
    "actual": lambda p: entropy_oracle(p.values()),
    "maximal": lambda p: math.log2(len(p)),
}


@settings(max_examples=300, deadline=None)
@given(workflows())
def test_graph_path_equals_public_path_and_oracles(workflow):
    nodes, steps = workflow
    [sink] = [v for v in nodes if all(s["src"] != v for s in steps)]
    try:
        oracle = workflow_oracle(
            nodes,
            [dict(src=s["src"], dst=s["dst"], kind="H" if s["map"] is None else "M",
                  cost=COST.amount, d=distortion_oracle(s, nodes)) for s in steps],
            sink,
        )
    except ValueError:  # a joint with no single lowest common ancestor
        with pytest.raises(ValueError, match="branch point"):
            build(nodes, steps)
        return
    graph, edges = build(nodes, steps)
    assert graph.decisional == sink
    for mode, h in ENTROPY_ORACLES.items():
        per_edge = graph.edge_metrics(mode)
        for s in steps:
            e = edges[s["name"]]
            x, y = graph.nodes[s["src"]], graph.nodes[s["dst"]]
            m = per_edge[s["name"]]
            assert m == step_metrics(e.transform, e.reconstruction, x, y, mode)
            h_in, h_out, d = h(nodes[s["src"]]), h(nodes[s["dst"]]), distortion_oracle(s, nodes)
            assert close(m.benefit_bits, h_in - h_out - d)
            terms = [resolve_metric(graph, f"edge:{s['name']}:{t}", mode) for t in TERMS]
            assert all(map(close, terms, (h_in, h_out, d)))
            hop = [s["src"], s["dst"]]
            if sum(t["src"] == s["src"] and t["dst"] == s["dst"] for t in steps) > 1:
                with pytest.raises(ValueError, match="parallel edges"):
                    graph.path_metrics(hop, mode)
            else:
                assert graph.path_metrics(hop, mode) == (m.benefit_bits, COST.amount)
    for mode in ENTROPY_ORACLES:
        ben = graph.total_benefit(mode)
        lo, hi = oracle["benefit"][mode]
        assert close(ben.lo, lo) and close(ben.hi, hi)
    for merge, amount in oracle["cost"].items():
        if steps:  # a workflow with no edge has no cost kind, and no total
            assert close(graph.cost_amounts(merge), amount)
    for s in steps:
        if s["map"] is None:
            continue
        e, x, p = edges[s["name"]], graph.nodes[s["src"]], nodes[s["src"]]
        groups = sorted(set(s["map"].values()))
        joint = [[p[a] if s["map"][a] == y else 0.0 for y in groups] for a in p]
        mc = step_metrics(e.transform, None, x, graph.nodes[s["dst"]], machine_centric=True).d_kl
        assert close(mc, entropy_oracle(p.values()) - mi_oracle(joint))
        if s["cuts"] is None:
            assert grouping_check(x, e.transform) <= 1e-9
