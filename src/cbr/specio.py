"""Workflow spec files (JSON, schema version 1) and executable fixtures.

A spec file declares alphabets, transforms, reconstructions and the graph
wiring them together, plus an optional parameter space for the optimizer.
Fixtures are the case-study workflows: each is a spec document under
``fixtures/``, checked against its expected metric values and provenance
tags.
"""

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Union

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .alphabet import Alphabet, Pmf, Product, Symbolic, enumerated
from .transform import (
    COST_KINDS,
    NODE_KINDS,
    Aggregator,
    Channel,
    CostRecord,
    DeclaredHuman,
    Grouping,
    Quantizer,
    Transform,
)
from .reconstruction import (
    DeclaredDivergence,
    ExactConditional,
    PriorWeighted,
    Reconstruction,
    UniformPreimage,
)
from .metrics import ENTROPY_MODES, METRICS, SCOPES
from .workflow import Edge, WorkflowGraph, _check_scored
from .optimize import DanglingReference, Dimension, ParamSpace, apply_dimension

SCHEMA_VERSION = "1"

_COST = {
    "type": "object",
    "required": ["kind", "amount", "unit"],
    "properties": {
        "kind": {"enum": list(COST_KINDS)},
        "amount": {"type": "number", "exclusiveMinimum": 0},
        "unit": {"type": "string"},
    },
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "alphabets", "transforms", "graph"],
    "properties": {
        "schema_version": {"type": "string"},
        "entropy_mode": {"enum": list(ENTROPY_MODES)},
        "cost_model": {
            "type": "object",
            "required": ["kind", "unit"],
            "properties": {"kind": {"enum": list(COST_KINDS)}, "unit": {"type": "string"}},
        },
        "alphabets": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "model"],
                "properties": {
                    "name": {"type": "string"},
                    "model": {
                        "type": "object",
                        "required": ["type"],
                        "properties": {
                            "type": {"enum": ["enumerated", "symbolic", "product"]},
                            "probs": {"type": "object"},
                            "entropy_bits": {"type": "number", "minimum": 0},
                            "max_entropy_bits": {"type": "number", "minimum": 0},
                            "factor": {"type": "string"},
                            "count": {"type": "integer", "minimum": 1},
                        },
                    },
                },
            },
        },
        "transforms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind", "cost"],
                "properties": {
                    "name": {"type": "string"},
                    "node_kind": {"enum": list(NODE_KINDS)},
                    "cost": _COST,
                    "kind": {
                        "type": "object",
                        "required": ["type"],
                        "properties": {
                            "type": {
                                "enum": [
                                    "grouping",
                                    "quantizer",
                                    "aggregator",
                                    "channel",
                                    "declared",
                                ]
                            }
                        },
                    },
                },
            },
        },
        "reconstructions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind"],
                "properties": {
                    "name": {"type": "string"},
                    "kind": {
                        "type": "object",
                        "required": ["type"],
                        "properties": {
                            "type": {
                                "enum": [
                                    "exact_conditional",
                                    "uniform_preimage",
                                    "prior_weighted",
                                    "declared",
                                ]
                            }
                        },
                    },
                },
            },
        },
        "graph": {
            "type": "object",
            "required": ["edges"],
            "properties": {
                "edges": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["from", "to", "transform"],
                        "properties": {
                            "from": {"type": "string"},
                            "to": {"type": "string"},
                            "transform": {"type": "string"},
                            "reconstruction": {"type": "string"},
                        },
                    },
                },
                "decisional": {"type": "string"},
            },
        },
        "param_space": {
            "type": "object",
            "required": ["dimensions"],
            "properties": {
                "dimensions": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["target", "field", "values"],
                        "properties": {
                            "target": {"type": "string"},
                            "field": {"type": "string"},
                            "values": {"type": "array", "minItems": 1},
                        },
                    },
                }
            },
        },
    },
}
# Built once: ``jsonschema.validate`` re-checks SCHEMA against its metaschema
# on every call; tests/test_specio.py checks it once.
_VALIDATOR = Draft202012Validator(SCHEMA)

# The keywords each kind of schema node may use; a node with no "type" is an enum.
_KEYWORDS = {
    "object": {"required", "properties", "additionalProperties"},
    "array": {"items", "minItems"},
    "string": set(),
    "integer": {"minimum", "exclusiveMinimum"},
    "number": {"minimum", "exclusiveMinimum"},
    "enum": {"enum"},
}


def _compile_schema(schema: dict):
    """A predicate that is True only for documents ``schema`` accepts.

    It is narrower than JSON Schema on purpose, and ``parse_spec`` asks
    jsonschema whenever it is False: bool is not a number or an integer,
    NaN and infinity are not numbers, 2.0 is not an integer, and an enum
    holds strings only. A keyword or type it does not know raises here, so
    that an edit of SCHEMA cannot make the predicate accept too much.
    """
    kind = schema.get("type", "enum")
    # a tuple, not the dict: a list of types is unhashable
    if kind not in tuple(_KEYWORDS) or not schema.keys() - {"$schema", "type"} <= _KEYWORDS[kind]:
        raise ValueError(f"cannot compile schema node {sorted(schema)} of type {kind!r}")
    if kind == "enum":
        allowed = frozenset(schema["enum"])
        return lambda d: type(d) is str and d in allowed
    if kind == "string":
        return lambda d: type(d) is str
    if kind in ("integer", "number"):
        lo, above = schema.get("minimum", -math.inf), schema.get("exclusiveMinimum", -math.inf)
        if kind == "integer":
            return lambda d: type(d) is int and d >= lo and d > above
        # d - d is NaN for NaN and for infinity
        return lambda d: (type(d) is int or type(d) is float and d - d == 0) and d >= lo and d > above
    if kind == "array":
        least = schema.get("minItems", 0)
        item = _compile_schema(schema["items"]) if "items" in schema else None
        return lambda d: type(d) is list and len(d) >= least and (item is None or all(map(item, d)))
    required = frozenset(schema.get("required", ()))
    props = {k: _compile_schema(v) for k, v in schema.get("properties", {}).items()}
    closed = schema.get("additionalProperties", True) is False
    if not closed and "additionalProperties" in schema:
        raise ValueError("cannot compile additionalProperties other than false")

    def conforms(d) -> bool:
        if type(d) is not dict or not d.keys() >= required:
            return False
        if closed and not props.keys() >= d.keys():
            return False
        for k, p in props.items():  # other keys: rejected above if closed, else unchecked
            if k in d and not p(d[k]):
                return False
        return True

    return conforms


_conforms = _compile_schema(SCHEMA)


class SpecError(ValueError):
    """Structured spec parse/validation failure with a JSON-path context."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{message}{f' at {path}' if path else ''}")


# How a per-kind field that SCHEMA does not check fails when it is missing
# (KeyError) or of the wrong type (the others; OverflowError is an infinite
# count).
_FIELD_ERRORS = (KeyError, TypeError, AttributeError, OverflowError)


def _field_error(exc: Exception, what: str, path: str) -> SpecError:
    if isinstance(exc, KeyError):
        return SpecError(f"{what} needs {exc.args[0]!r}", path)
    return SpecError(f"{what} has a field of the wrong type ({exc})", path)


def _by_name(section: list, path: str) -> dict:
    """The declarations of ``section`` by name; a name declared twice is an error."""
    out = {}
    for i, decl in enumerate(section):
        if decl["name"] in out:
            raise SpecError(f"duplicate name {decl['name']!r}", f"{path}[{i}].name")
        out[decl["name"]] = decl
    return out


def _build_alphabet(name: str, trail: tuple, decls: dict, cache: dict) -> Alphabet:
    """Alphabet ``name`` from its declaration, its factors first; ``cache``
    holds those already built.

    A module function, not a closure inside ``alphabets``: a recursive
    closure refers to itself, and that cycle kept every parsed alphabet
    alive until the next full garbage collection.
    """
    if name in cache:
        return cache[name]
    if name in trail:
        raise SpecError("circular alphabet reference", f"alphabets[{name}]")
    if name not in decls:
        raise SpecError(f"dangling reference: alphabet {name!r}")
    m = decls[name]["model"]
    t = m["type"]
    if t == "enumerated":
        probs = m.get("probs")
        if not probs:
            raise SpecError("enumerated model needs probs", f"alphabets[{name}]")
        try:
            a = enumerated(name, probs)
        except _FIELD_ERRORS as exc:
            raise _field_error(exc, "enumerated model", f"alphabets[{name}].model") from None
    elif t == "symbolic":
        e = m.get("entropy_bits")
        if e is None:
            raise SpecError("symbolic model needs entropy_bits", f"alphabets[{name}]")
        a = Alphabet(name, Symbolic(e, m.get("max_entropy_bits", e)))
    else:
        try:
            factor_name, count = m["factor"], m["count"]
        except _FIELD_ERRORS as exc:
            raise _field_error(exc, "product model", f"alphabets[{name}].model") from None
        factor = _build_alphabet(factor_name, trail + (name,), decls, cache)
        a = Alphabet(name, Product(factor, count))
    cache[name] = a
    return a


def _transform_kind(kd: dict, t: str, path: str, alphabets: dict):
    """The kind of the transform at ``path``, from its ``kind`` object ``kd``
    of type ``t``; a missing or mistyped field raises one of ``_FIELD_ERRORS``."""
    if t == "grouping":
        mapping = dict(kd["map"])
        # a list or object value, which cannot be a letter, raises TypeError
        frozenset(mapping.values())
        return Grouping(mapping)
    if t == "quantizer":
        b = kd.get("boundaries")
        return Quantizer(kd["levels"], tuple(b) if b else None)
    if t == "aggregator":
        return Aggregator(kd["window"])
    if t == "channel":
        return Channel(
            tuple(kd["inputs"]),
            tuple(kd["outputs"]),
            tuple(tuple(row) for row in kd["matrix"]),
        )
    out_name = kd["output"]
    if out_name not in alphabets:
        raise SpecError(f"dangling reference: alphabet {out_name!r}", f"{path}.kind.output")
    return DeclaredHuman(alphabets[out_name], kd.get("distortion_bits", 0.0))


@dataclass
class WorkflowSpec:
    """Parsed, validated workflow spec; ``data`` is the canonical document.

    ``parse_spec`` keeps the graph it validated, and ``build_graph`` returns
    it; a spec constructed directly builds its graph on each call.
    """

    data: dict
    _graph: Optional[WorkflowGraph] = field(default=None, init=False, repr=False, compare=False)

    @property
    def entropy_mode(self) -> str:
        return self.data.get("entropy_mode", "actual")

    def alphabets(self) -> dict:
        cache: dict = {}
        decls = _by_name(self.data["alphabets"], "alphabets")
        return {name: _build_alphabet(name, (), decls, cache) for name in decls}

    def transforms(self) -> dict:
        return self._transforms(self.alphabets())

    def _transforms(self, alphabets: dict) -> dict:
        out = {}
        # every cost is in one kind and unit, the cost model's if one is
        # declared, else the first transform's; a budget is read in it
        model = self.data.get("cost_model")
        unit = (model["kind"], model["unit"]) if model else None
        source = "the cost_model"
        for i, td in enumerate(_by_name(self.data["transforms"], "transforms").values()):
            kd = td["kind"]
            t = kd["type"]
            path = f"transforms[{i}]"
            try:
                kind = _transform_kind(kd, t, path, alphabets)
            except _FIELD_ERRORS as exc:
                raise _field_error(exc, f"{t} transform", f"{path}.kind") from None
            c = td["cost"]
            if unit is None:
                unit, source = (c["kind"], c["unit"]), f"{path}.cost"
            elif (c["kind"], c["unit"]) != unit:
                raise SpecError(
                    f"cost in {c['kind']}/{c['unit']}, but {source} is {'/'.join(unit)}",
                    f"{path}.cost",
                )
            out[td["name"]] = Transform(
                td["name"],
                kind,
                CostRecord(c["kind"], c["amount"], c["unit"]),
                td.get("node_kind", "M"),
            )
        return out

    def reconstructions(self) -> dict:
        out = {}
        decls = _by_name(self.data.get("reconstructions", []), "reconstructions")
        for i, rd in enumerate(decls.values()):
            kd = rd["kind"]
            t = kd["type"]
            try:
                if t == "exact_conditional":
                    kind = ExactConditional()
                elif t == "uniform_preimage":
                    kind = UniformPreimage()
                elif t == "prior_weighted":
                    kind = PriorWeighted(Pmf(kd["prior"]))
                else:
                    kind = DeclaredDivergence(kd["bits"])
            except _FIELD_ERRORS as exc:
                raise _field_error(exc, f"{t} reconstruction", f"reconstructions[{i}].kind") from None
            out[rd["name"]] = Reconstruction(rd["name"], kind)
        return out

    def build_graph(self) -> WorkflowGraph:
        if self._graph is not None:
            return self._graph
        alphabets = self.alphabets()
        transforms = self._transforms(alphabets)
        recons = self.reconstructions()
        edges = []
        for i, ed in enumerate(self.data["graph"]["edges"]):
            path = f"graph.edges[{i}]"
            for key, pool, label in (
                ("from", alphabets, "alphabet"),
                ("to", alphabets, "alphabet"),
                ("transform", transforms, "transform"),
            ):
                if ed[key] not in pool:
                    raise SpecError(f"dangling reference: {label} {ed[key]!r}", f"{path}.{key}")
            r = None
            if "reconstruction" in ed:
                if ed["reconstruction"] not in recons:
                    raise SpecError(
                        f"dangling reference: reconstruction {ed['reconstruction']!r}",
                        f"{path}.reconstruction",
                    )
                r = recons[ed["reconstruction"]]
            edge = Edge(ed["from"], ed["to"], transforms[ed["transform"]], r)
            try:
                _check_scored(edge)
            except ValueError as exc:
                raise SpecError(str(exc), path) from None
            edges.append(edge)
        gd = self.data["graph"]
        # factor/helper alphabets that no edge touches stay out of the graph
        used = {e.src for e in edges} | {e.dst for e in edges}
        if gd.get("decisional"):
            used.add(gd["decisional"])
        nodes = {n: a for n, a in alphabets.items() if n in used}
        try:
            return WorkflowGraph(nodes, edges, decisional=gd.get("decisional"))
        except ValueError as exc:
            raise SpecError(str(exc), "graph")

    def param_space(self) -> Optional[ParamSpace]:
        ps = self.data.get("param_space")
        if ps is None:
            return None
        dims = tuple(
            Dimension(d["target"], d["field"], tuple(d["values"]))
            for d in ps["dimensions"]
        )
        return ParamSpace(dims)


def _reject_constant(name: str):
    raise SpecError(f"non-finite number {name}: numbers must be finite")


def parse_spec(text: str) -> WorkflowSpec:
    """Parse and validate a JSON workflow spec document.

    SCHEMA decides which documents are valid. ``_conforms`` accepts most of
    them quickly; jsonschema checks the rest, and words the error.
    """
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON: {exc}")
    return _validated(data)


def _validated(data) -> WorkflowSpec:
    """The spec of the decoded document ``data``, validated as ``parse_spec`` does."""
    if not _conforms(data):
        error = best_match(_VALIDATOR.iter_errors(data))
        if error is not None:
            raise SpecError(error.message, "/".join(str(p) for p in error.absolute_path))
    if data["schema_version"] != SCHEMA_VERSION:
        raise SpecError(f"unknown schema_version {data['schema_version']!r}")
    spec = WorkflowSpec(data)
    # surfaces dangling references and invariant violations
    spec._graph = graph = spec.build_graph()
    space = spec.param_space()  # a bad dimension raises its own ValueError
    if space is not None:
        _check_targets(space, graph)
    return spec


def _check_targets(space: ParamSpace, graph: WorkflowGraph) -> None:
    """Every dimension names a transform, reconstruction or edge of the
    graph, and a field that applies to it; a bad field raises the search's
    own ValueError, so that ``validate`` and ``optimize`` agree."""
    for i, d in enumerate(space.dimensions):
        try:
            apply_dimension(graph, d)
        except DanglingReference as exc:
            raise SpecError(str(exc), f"param_space.dimensions[{i}].target") from None


def emit_spec(spec: WorkflowSpec) -> str:
    return json.dumps(spec.data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expectation:
    """A metric path checked against a value (or another metric path).

    ``op`` is one of approx/le/ge/lt/gt; for the comparison ops the value
    may itself be a metric path, which encodes a qualitative ordering.
    """

    path: str
    op: str
    value: Union[float, str]
    tolerance: float = 0.0
    provenance: str = "derived"


@dataclass
class Fixture:
    name: str
    spec: WorkflowSpec
    expected: list


def resolve_metric(graph: WorkflowGraph, path: str, entropy_mode: str) -> float:
    """Evaluate a metric path like ``node:Z2:max_entropy`` by ``metrics.METRICS``.
    An unknown metric, node, edge or path raises ``ValueError``; so does a one-node path."""
    scope, _, rest = path.partition(":")
    if scope not in SCOPES:
        raise ValueError(f"unknown metric scope {scope!r}")
    # the graph scope takes no name
    name, _, metric = ("", "", rest) if scope == "graph" else rest.partition(":")
    if (scope, metric) not in METRICS:
        raise ValueError(f"unknown {scope} metric {metric!r}")
    try:
        args = SCOPES[scope](graph, name, entropy_mode)
    except KeyError:
        raise ValueError(f"unknown {scope} {name!r}") from None
    return METRICS[scope, metric](*args)


# op -> whether a computed value meets the expected one, given the tolerance
_OPS = {
    "approx": lambda computed, expected, tol: abs(computed - expected) <= tol,
    "le": lambda computed, expected, tol: computed <= expected + tol,
    "ge": lambda computed, expected, tol: computed >= expected - tol,
    "lt": lambda computed, expected, tol: computed < expected,
    "gt": lambda computed, expected, tol: computed > expected,
}


def check_fixture(f: Fixture) -> list:
    """Evaluate every expectation; returns (path, op, expected, computed, ok, provenance)."""
    graph = f.spec.build_graph()
    mode = f.spec.entropy_mode
    rows = []
    for e in f.expected:
        computed = resolve_metric(graph, e.path, mode)
        expected = e.value
        if isinstance(expected, str):
            expected = resolve_metric(graph, expected, mode)
        if e.op not in _OPS:
            raise ValueError(f"unknown expectation op {e.op!r}")
        ok = _OPS[e.op](computed, expected, e.tolerance)
        rows.append((e.path, e.op, expected, computed, ok, e.provenance))
    return rows


def _fixture_text(name: str) -> str:
    """The spec document ``fixtures/<name>.json`` of the package."""
    return resources.files(__package__).joinpath("fixtures", f"{name}.json").read_text("utf-8")


def fixture_share_price(r: int = 1) -> WorkflowSpec:
    """Share-price analysis chain: aggregate, plot, features, correlations.

    Five stages of symbolic bookkeeping whose maximal entropies fall from
    23040r bits at the raw alphabet to under 2r bits at the decision. The
    document is the chain at r = 1; for more share prices every product
    count is r times as large, and the r(r-1)/2 pairwise correlations
    ``Z3c`` and ``Z4c`` become products of ``corrvar`` and ``colorvar``.
    """
    if r < 1:
        raise ValueError("r must be positive")
    data = json.loads(_fixture_text("share_price_chain"))
    pairs = r * (r - 1) // 2
    pair_factors = {"Z3c": "corrvar", "Z4c": "colorvar"}
    for a in data["alphabets"]:
        if a["model"]["type"] == "product":
            a["model"]["count"] *= r
        elif pairs and a["name"] in pair_factors:
            a["model"] = {"type": "product", "factor": pair_factors[a["name"]], "count": pairs}
    return _validated(data)


def share_price_expected(r: int) -> list:
    corr_tol = max(0.005 * r * (r - 1), 1e-9)
    return [
        Expectation("node:Z1:max_entropy", "approx", 23040.0 * r, 1e-6, "formula"),
        Expectation("node:Z2:max_entropy", "approx", 1920.0 * r, 1e-6, "formula"),
        Expectation("node:Z3:max_entropy", "approx", 420.0 * r, 1e-6, "formula"),
        Expectation("node:Z4:max_entropy", "approx", 30.0 * r, 1e-6, "formula"),
        Expectation("node:Z3c:max_entropy", "approx", 15.0 * r * (r - 1), 1e-6, "formula"),
        Expectation("node:Z4c:max_entropy", "approx", 1.16 * r * (r - 1), corr_tol, "formula"),
        Expectation("node:Z5:max_entropy", "le", 2.0 * r, 0.0, "bound"),
    ]


def fixture_plot_vs_binary(presenter: bool = False) -> WorkflowSpec:
    """Time-series plot vs binary-digits view for dissemination.

    The presenter variant models the speaker's own perspective, where every
    alphabet is already certain and the total benefit is zero.
    """
    return parse_spec(_fixture_text("plot_vs_binary_presenter" if presenter else "plot_vs_binary"))


# fixture name -> its expectations; the spec is fixtures/<name>.json
_FIXTURES = {
    "share_price_chain": share_price_expected(1),
    # Human costs and distortions are declared estimates; the binary view
    # carries a much larger feature-recognition distortion and cost.
    "plot_vs_binary": (
        Expectation("edge:recognize_plot:benefit", "approx", 415.0, 1.0, "declared"),
        Expectation(
            "path:Z1,Za2,Za3,Z4:cbr", "gt", "path:Z1,Zb2,Zb3,Z4:cbr", 0.0, "declared"
        ),
        Expectation(
            "edge:recognize_binary:pdr", "gt", "edge:recognize_plot:pdr", 0.0, "declared"
        ),
        Expectation(
            "edge:recognize_binary:cost", "gt", "edge:recognize_plot:cost", 0.0, "declared"
        ),
    ),
    # Overview first, zoom and details on demand, over an enumerated source.
    # The machine overview step compresses losslessly in distribution; the
    # human zoom step injects soft information and raises entropy, breaking
    # the data processing inequality.
    "overview_interaction": (
        Expectation("node:Zs:entropy", "approx", 4.0, 1e-9, "derived"),
        Expectation("edge:overview:benefit", "approx", 2.0, 1e-9, "derived"),
        Expectation("edge:zoom:benefit", "approx", -1.5, 1e-9, "declared"),
        # soft knowledge raises entropy downstream of a human step
        Expectation("node:Zd:entropy", "gt", "node:Zo:entropy", 0.0, "qualitative"),
        Expectation("graph:benefit_lo", "approx", 2.5, 1e-9, "derived"),
        Expectation("graph:benefit_hi", "approx", 2.5, 1e-9, "derived"),
        Expectation("graph:cbr_lo", "approx", 0.625, 1e-9, "derived"),
    ),
    # Match videos to event data to visualization, two competing pipelines.
    # Machine event detection is cheap but wildly inaccurate; glyph depiction
    # reconstructs episodic memory better than statistical graphics. All
    # magnitudes are declared; only the orderings are asserted.
    "sports_events": (
        Expectation(
            "edge:detect_machine:pdr", "gt", "edge:annotate_human:pdr", 0.0, "qualitative"
        ),
        Expectation("edge:stats:pdr", "gt", "edge:glyphs:pdr", 0.0, "qualitative"),
        Expectation(
            "path:video,events_h,vis_glyph,decision:cbr",
            "gt",
            "path:video,events_m,vis_stats,decision:cbr",
            0.0,
            "qualitative",
        ),
    ),
    # Document readability: sentence-level views vs one score per document.
    # Over-aggregation compresses harder but distorts far more; the tradeoff
    # favors keeping sentence-level detail.
    "readability": (
        Expectation("edge:doc_view:acr", "lt", "edge:sentence_view:acr", 0.0, "derived"),
        Expectation("edge:doc_view:pdr", "gt", "edge:sentence_view:pdr", 0.0, "qualitative"),
        Expectation(
            "path:features,sent_view,decision:cbr",
            "gt",
            "path:features,doc_score,decision:cbr",
            0.0,
            "qualitative",
        ),
    ),
    # Decision-tree model development: parallel-coordinates plus human
    # selection against automatic tree induction. The machine route is far
    # cheaper in time; the human route keeps more information thanks to soft
    # knowledge about the feature extraction.
    "decision_tree": (
        Expectation("node:vec322:max_entropy", "approx", 2576.0, 1e-6, "derived"),
        Expectation(
            "path:vec322,pcp,tree:benefit", "gt", "path:vec322,tree:benefit", 0.0, "qualitative"
        ),
        Expectation(
            "path:vec322,pcp,tree:cost", "gt", "path:vec322,tree:cost", 0.0, "qualitative"
        ),
        Expectation("edge:c45:pdr", "gt", "edge:select_variables:pdr", 0.0, "qualitative"),
    ),
}
FIXTURE_NAMES = tuple(_FIXTURES)


def load_fixture(name: str) -> Fixture:
    """Fixture ``name``; raises KeyError(name) for a name it does not know,
    before any file is opened."""
    expected = _FIXTURES[name]
    return Fixture(name, parse_spec(_fixture_text(name)), list(expected))
