import json

import pytest

from cbr.alphabet import Alphabet, entropy, symbolic, uniform
from cbr.metrics import step_metrics
from cbr.optimize import ParamSpace, evaluate, exhaustive_search, greedy_search
from cbr.reconstruction import Reconstruction, UniformPreimage
from cbr.specio import parse_spec
from cbr.transform import CostRecord, DeclaredHuman, Transform
from cbr.workflow import AlphabetMismatch, Edge, Interval, WorkflowGraph
from conftest import make_grouping
from oracles import workflow_oracle
from test_specio import count_calls, enum_fork_join

UNI = Reconstruction("uni", UniformPreimage())


def declared(name: str, out: Alphabet, d: float, kind: str, cost: float = 1.0) -> Transform:
    return Transform(name, DeclaredHuman(out, d), CostRecord("time", cost, "s"), kind)


def sym_chain(kinds, entropies, distortions=None, costs=None):
    """Build a chain of symbolic nodes n0 -> n1 -> ... with declared steps."""
    distortions = distortions or [0.0] * len(kinds)
    costs = costs or [1.0] * len(kinds)
    nodes = {f"n{i}": symbolic(f"n{i}", h) for i, h in enumerate(entropies)}
    edges = [
        Edge(
            f"n{i}",
            f"n{i + 1}",
            declared(f"t{i}", nodes[f"n{i + 1}"], distortions[i], k, costs[i]),
        )
        for i, k in enumerate(kinds)
    ]
    return WorkflowGraph(nodes, edges)


def diamond(branch_kinds=("V", "M"), tail_kind="H", shared=None):
    """fork -> {a, b} -> joint -> decision."""
    nodes = {
        "fork": symbolic("fork", 10.0),
        "a": symbolic("a", 6.0),
        "b": symbolic("b", 4.0),
        "joint": symbolic("joint", 2.0),
        "decision": symbolic("decision", 1.0),
    }
    edges = [
        Edge("fork", "a", declared("va", nodes["a"], 1.0, branch_kinds[0], 2.0)),
        Edge("fork", "b", declared("mb", nodes["b"], 0.0, branch_kinds[1], 3.0)),
        Edge("a", "joint", declared("ja", nodes["joint"], 0.0, branch_kinds[0], 1.0)),
        Edge("b", "joint", declared("jb", nodes["joint"], 0.0, branch_kinds[1], 1.0)),
        Edge("joint", "decision", declared("dec", nodes["decision"], 0.0, tail_kind, 1.0)),
    ]
    return WorkflowGraph(nodes, edges)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_midpoint_and_add(self):
        iv = Interval(1.0, 3.0) + Interval(0.5, 0.5)
        assert iv.lo == 1.5 and iv.hi == 3.5
        assert iv.midpoint == pytest.approx(2.5)

    def test_scale_negative_flips(self):
        iv = Interval(1.0, 3.0).scale(-1.0)
        assert (iv.lo, iv.hi) == (-3.0, -1.0)


class TestValidation:
    def test_cycle_rejected(self):
        a, b = symbolic("a", 3.0), symbolic("b", 3.0)
        edges = [
            Edge("a", "b", declared("t1", b, 0.0, "M")),
            Edge("b", "a", declared("t2", a, 0.0, "M")),
        ]
        with pytest.raises(ValueError, match="acyclic"):
            WorkflowGraph({"a": a, "b": b}, edges)

    def test_dangling_edge_rejected(self):
        a = symbolic("a", 3.0)
        with pytest.raises(ValueError, match="dangling reference"):
            WorkflowGraph({"a": a}, [Edge("a", "missing", declared("t", a, 0.0, "M"))])

    def test_pushforward_mismatch_rejected(self):
        nodes = {"a": symbolic("a", 3.0), "b": symbolic("b", 9.0)}
        t = declared("t", symbolic("b", 2.0), 0.0, "M")
        with pytest.raises(ValueError, match="does not match"):
            WorkflowGraph(nodes, [Edge("a", "b", t)])

    def test_two_sinks_rejected(self):
        nodes = {
            "a": symbolic("a", 3.0),
            "b": symbolic("b", 2.0),
            "c": symbolic("c", 1.0),
        }
        edges = [
            Edge("a", "b", declared("t1", nodes["b"], 0.0, "M")),
            Edge("a", "c", declared("t2", nodes["c"], 0.0, "M")),
        ]
        with pytest.raises(ValueError, match="decisional sink"):
            WorkflowGraph(nodes, edges)

    def test_decisional_node_must_be_a_sink(self):
        nodes = {"a": symbolic("a", 3.0), "b": symbolic("b", 2.0)}
        edges = [Edge("a", "b", declared("t1", nodes["b"], 0.0, "M"))]
        for decisional in ("a", "nowhere"):
            with pytest.raises(ValueError, match="^decisional node must be a sink$"):
                WorkflowGraph(nodes, edges, decisional=decisional)
        assert WorkflowGraph(nodes, edges, decisional="b").decisional == "b"

    def test_decisional_sink_checked_before_the_sink_count(self):
        """With two sinks, a decisional node that is no sink is named as such."""
        nodes = {n: symbolic(n, h) for n, h in {"a": 3.0, "b": 2.0, "c": 1.0}.items()}
        edges = [Edge("a", n, declared(f"t{n}", nodes[n], 0.0, "M")) for n in "bc"]
        with pytest.raises(ValueError, match="^decisional node must be a sink$"):
            WorkflowGraph(nodes, edges, decisional="a")
        with pytest.raises(ValueError, match="^exactly one decisional sink required$"):
            WorkflowGraph(nodes, edges, decisional="b")

    @pytest.mark.parametrize("order", ["AB", "BA"])
    def test_transform_on_two_edges_rejected(self, order):
        """Per-edge results are keyed by transform name, so one transform on
        two edges would be one entry, and the total would follow edge order."""
        nodes = {n: symbolic(n, h) for n, h in {"S": 20.0, "A": 10.0, "B": 4.0, "D": 1.0}.items()}
        decide = declared("decide", nodes["D"], 0.0, "H")
        joins = {n: Edge(n, "D", decide) for n in "AB"}
        edges = [Edge("S", n, declared(f"to{n}", nodes[n], 0.0, "H")) for n in "AB"]
        with pytest.raises(ValueError, match="^transform 'decide' is on more than one edge$"):
            WorkflowGraph(nodes, edges + [joins[n] for n in order])

    def test_enumerated_chain_accepts_matching_pushforward(self):
        u8 = uniform("u8", [str(i) for i in range(8)])
        t = make_grouping(
            {"0": "a", "1": "a", "2": "a", "3": "a", "4": "b", "5": "b", "6": "c", "7": "c"}
        )
        from cbr.transform import pushforward

        out = pushforward(t, u8)
        g = WorkflowGraph({"in": u8, "out": out}, [Edge("in", "out", t, UNI)])
        assert g.decisional == "out"


class TestDerivedNodes:
    """A node given as None is its first in-edge's image."""

    def test_derived_from_first_in_edge(self):
        from cbr.transform import pushforward

        u8 = uniform("u8", [str(i) for i in range(8)])
        t = make_grouping({str(i): "ab"[i // 6] for i in range(8)})
        g = WorkflowGraph({"in": u8, "out": None}, [Edge("in", "out", t, UNI)])
        out = pushforward(t, u8, name="out")
        assert g.nodes["out"].name == "out"
        assert g.nodes["out"].letter_ids() == out.letter_ids()
        assert list(g.nodes["out"].prob_vector()) == list(out.prob_vector())

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_later_in_edge_checked(self, order):
        a = symbolic("a", 10.0)
        edges = [
            Edge("a", "j", declared("t0", symbolic("j", 4.0), 0.0, "H")),
            Edge("a", "j", declared("t1", symbolic("j", 3.0), 0.0, "H")),
        ]
        later = edges[order[1]].transform.name
        with pytest.raises(AlphabetMismatch, match=f"^edge {later}: pushforward does not match node j$"):
            WorkflowGraph({"a": a, "j": None}, [edges[i] for i in order])

    def test_none_node_without_in_edge_rejected(self):
        b = symbolic("b", 2.0)
        with pytest.raises(ValueError, match="^node a has no alphabet and no in-edge$"):
            WorkflowGraph({"a": None, "b": b}, [Edge("a", "b", declared("t", b, 0.0, "H"))])


class TestAccumulation:
    def test_chain_benefit_is_sum(self):
        g = sym_chain(["M", "V", "H"], [10.0, 8.0, 5.0, 2.0], [0.5, 0.0, 1.0])
        ben = g.total_benefit()
        assert ben.hi == pytest.approx(ben.lo, abs=1e-12)
        assert ben.lo == pytest.approx((10 - 8 - 0.5) + (8 - 5) + (5 - 2 - 1))

    def test_chain_cost_merges_agree(self):
        g = sym_chain(["M", "V"], [10.0, 8.0, 5.0], costs=[2.0, 3.0])
        assert g.total_cost("sum").amount == pytest.approx(5.0)
        assert g.total_cost("max_parallel").amount == pytest.approx(5.0)

    def test_bad_merge_rejected(self):
        g = sym_chain(["M"], [10.0, 8.0])
        with pytest.raises(ValueError, match="cost merge"):
            g.total_cost("average")

    def test_mixed_cost_units_rejected(self):
        nodes = {"a": symbolic("a", 3.0), "b": symbolic("b", 2.0), "c": symbolic("c", 1.0)}
        t1 = declared("t1", nodes["b"], 0.0, "M")
        t2 = Transform(
            "t2", DeclaredHuman(nodes["c"], 0.0), CostRecord("energy", 1.0, "J"), "M"
        )
        g = WorkflowGraph(nodes, [Edge("a", "b", t1), Edge("b", "c", t2)])
        with pytest.raises(ValueError, match="incommensurable costs"):
            g.total_cost()

    def test_parallel_cost_is_critical_path(self):
        g = diamond()
        # paths: fork-a-joint-decision = 2+1+1, fork-b-joint-decision = 3+1+1
        assert g.total_cost("sum").amount == pytest.approx(8.0)
        assert g.total_cost("max_parallel").amount == pytest.approx(5.0)

    def test_human_joint_spans_max_to_sum(self):
        g = diamond(branch_kinds=("V", "H"))
        # branch benefits: (10-6-1)+(6-2) = 7 and (10-4)+(4-2) = 8
        ben = g.total_benefit()
        assert ben.lo == pytest.approx(8 + (2 - 1))
        assert ben.hi == pytest.approx(15 + (2 - 1))

    def test_machine_joint_capped_at_fork_entropy(self):
        g = diamond(branch_kinds=("M", "M"))
        ben = g.total_benefit()
        assert ben.hi == pytest.approx(10 + (2 - 1))
        assert ben.lo == pytest.approx(8 + (2 - 1))

    def test_joint_whose_fork_is_a_joint(self):
        """N2 joins X -> N1 -> N2 and X -> N2: [4, 8]. N3 joins N1 -> N3 and
        N2 -> N3: [1, 4]. N4's fork is the joint N2, and the branch through
        N3 brings [5, 8], narrower than N2's [4, 8]: less N2, its bounds are
        lo 1 over hi 0, which the joint takes as plain numbers, as the
        oracle does: [4, 8] + [1, 0 + 1]."""
        bits = {"X": 10.0, "N1": 8.0, "N2": 6.0, "N3": 9.0, "N4": 5.0}
        kinds = {("X", "N1"): "M", ("N1", "N2"): "M", ("X", "N2"): "M", ("N1", "N3"): "H",
                 ("N2", "N3"): "H", ("N3", "N4"): "M", ("N2", "N4"): "M"}
        nodes = {n: symbolic(n, h) for n, h in bits.items()}
        g = WorkflowGraph(nodes, [
            Edge(src, dst, declared(src + dst, nodes[dst], 0.0, kind))
            for (src, dst), kind in kinds.items()
        ])
        assert g._joints["N4"][0] == "N2"
        assert g.total_benefit() == Interval(5.0, 9.0)
        uniform_pmfs = {n: dict.fromkeys(map(str, range(2 ** int(h))), 2.0 ** -h)
                        for n, h in bits.items()}
        edges = [dict(src=src, dst=dst, kind=kind, cost=1.0, d=0.0)
                 for (src, dst), kind in kinds.items()]
        assert workflow_oracle(uniform_pmfs, edges, "N4")["benefit"]["actual"] == (5.0, 9.0)

    @pytest.mark.parametrize("order", ["ab", "ba"])
    @pytest.mark.parametrize("kind, hi", [("H", 12.0), ("M", 10.0)])
    def test_parallel_edges_form_a_joint(self, order, kind, hi):
        """X -> Y by two steps a and b, then Y -> Z: each of a and b is a
        branch of the joint Y, whose fork is X, in either edge order."""
        nodes = {"X": symbolic("X", 10.0), "Y": symbolic("Y", 2.0), "Z": symbolic("Z", 1.0)}
        parallel = {
            "a": Edge("X", "Y", declared("a", nodes["Y"], 1.0, kind, 1.0)),
            "b": Edge("X", "Y", declared("b", nodes["Y"], 3.0, kind, 5.0)),
        }
        tail = Edge("Y", "Z", declared("d", nodes["Z"], 0.0, "H", 2.0))
        g = WorkflowGraph(nodes, [parallel[name] for name in order] + [tail])
        assert g._joints["Y"] == ("X", frozenset({kind}))
        # branches 10-2-1 = 7 and 10-2-3 = 5: from their max to their sum,
        # and a machine joint capped at H(X) = 10; then 2-1 = 1 bit more
        assert g.total_benefit() == Interval(7.0 + 1.0, hi + 1.0)
        assert g.total_cost("sum").amount == 8.0
        assert g.total_cost("max_parallel").amount == 5.0 + 2.0

    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_node_path_through_parallel_edges_rejected(self, order):
        """A node path names no edge of a parallel pair, so a hop through
        one is an error, the same in either edge order."""
        nodes = {"X": symbolic("X", 10.0), "Y": symbolic("Y", 4.0), "Z": symbolic("Z", 1.0)}
        parallel = {
            "a": Edge("X", "Y", declared("a", nodes["Y"], 1.0, "H")),
            "b": Edge("X", "Y", declared("b", nodes["Y"], 3.0, "H")),
        }
        tail = Edge("Y", "Z", declared("d", nodes["Z"], 0.0, "H", 2.0))
        g = WorkflowGraph(nodes, [parallel[name] for name in order] + [tail])
        message = "^hop X->Y has parallel edges a, b: a node path does not choose one$"
        with pytest.raises(ValueError, match=message):
            g.path_metrics(["X", "Y", "Z"])
        with pytest.raises(ValueError, match=message):
            g.path_metrics(["X", "Y"])
        assert g.path_metrics(["Y", "Z"]) == (3.0, 2.0)

    def test_overall_cbr_scales_by_cost(self):
        g = sym_chain(["M", "V"], [10.0, 8.0, 5.0], costs=[2.0, 3.0])
        cbr = g.overall_cbr()
        assert cbr.hi == pytest.approx(cbr.lo, abs=1e-12)
        assert cbr.lo == pytest.approx(5.0 / 5.0)

    def test_path_metrics(self):
        g = diamond()
        b, c = g.path_metrics(["fork", "b", "joint", "decision"])
        assert b == pytest.approx(6 + 2 + 1)
        assert c == pytest.approx(5.0)
        with pytest.raises(ValueError, match="no edge"):
            g.path_metrics(["fork", "joint"])

    def test_unscored_non_declared_edge_rejected(self):
        u8 = uniform("u8", [str(i) for i in range(8)])
        t = make_grouping(
            {"0": "a", "1": "a", "2": "a", "3": "a", "4": "b", "5": "b", "6": "c", "7": "c"}
        )
        from cbr.transform import pushforward

        g = WorkflowGraph(
            {"in": u8, "out": pushforward(t, u8)}, [Edge("in", "out", t)]
        )
        with pytest.raises(ValueError, match="unscored edge"):
            g.total_benefit()

    def test_analyze_report_shape(self):
        g = sym_chain(["M", "V", "H"], [10.0, 8.0, 5.0, 2.0])
        report = g.analyze(entropy_mode="maximal")
        assert set(report.per_edge) == {"t0", "t1", "t2"}
        assert report.overall.total_cost.amount == pytest.approx(3.0)
        assert report.notes

    def test_edge_metrics_returns_a_fresh_dict(self):
        g = diamond()
        first = g.edge_metrics()
        expected = dict(first)
        first.clear()
        assert g.edge_metrics() == expected
        g.edge_metrics()["va"] = None
        assert g.edge_metrics() == expected

    def test_zero_entropy_input_keeps_its_benefit(self):
        nodes = {"a": symbolic("a", 0.0), "b": symbolic("b", 0.0)}
        g = WorkflowGraph(nodes, [Edge("a", "b", declared("t", nodes["b"], 0.5, "H", 2.0))])
        m = g.analyze().per_edge["t"]
        assert (m.h_in, m.h_out, m.d_kl) == (0.0, 0.0, 0.5)
        assert m.benefit_bits == -0.5 and m.incremental_cbr == -0.25
        assert g.total_benefit() == Interval(-0.5, -0.5)
        assert g.path_metrics(["a", "b"]) == (-0.5, 2.0)
        for ratio in ("acr", "pdr", "ecr"):
            with pytest.raises(ValueError, match="transformation unnecessary"):
                getattr(m, ratio)
        assert "B=-0.5 bits" not in g.to_dot()

    def test_terms_per_entropy_mode(self):
        nodes = {"a": symbolic("a", 4.0, 8.0), "b": symbolic("b", 2.0)}
        g = WorkflowGraph(nodes, [Edge("a", "b", declared("t", nodes["b"], 0.0, "H"))])
        assert g.edge_metrics("actual")["t"].acr == pytest.approx(2.0 / 4.0)
        assert g.edge_metrics("maximal")["t"].acr == pytest.approx(2.0 / 8.0)
        assert g.edge_metrics("actual")["t"].acr == pytest.approx(2.0 / 4.0)


# every entry point that takes an entropy mode, called on diamond()
MODE_ENTRY_POINTS = {
    "analyze": lambda g, mode: g.analyze(mode),
    "edge_metrics": lambda g, mode: g.edge_metrics(mode),
    "total_benefit": lambda g, mode: g.total_benefit(mode),
    "overall_cbr": lambda g, mode: g.overall_cbr(entropy_mode=mode),
    "path_metrics": lambda g, mode: g.path_metrics(["fork", "a", "joint"], mode),
    "path_metrics of no hop": lambda g, mode: g.path_metrics(["fork"], mode),
    "to_dot": lambda g, mode: g.to_dot(mode),
    "evaluate": lambda g, mode: evaluate(g, mode),
    "exhaustive_search": lambda g, mode: exhaustive_search(g, ParamSpace(()), entropy_mode=mode),
    "greedy_search": lambda g, mode: greedy_search(g, ParamSpace(()), entropy_mode=mode, seed=0),
    "step_metrics": lambda g, mode: step_metrics(
        g.edges[0].transform, None, g.nodes["fork"], g.nodes["a"], mode
    ),
}


@pytest.mark.parametrize("mode", ["typical", "bogus"])
@pytest.mark.parametrize("entry", MODE_ENTRY_POINTS)
def test_unknown_entropy_mode_rejected(entry, mode):
    with pytest.raises(ValueError, match=f"^unknown entropy mode '{mode}'$"):
        MODE_ENTRY_POINTS[entry](diamond(), mode)


def test_one_distortion_per_edge_across_modes(monkeypatch):
    graph = parse_spec(json.dumps(enum_fork_join())).build_graph()
    calls = count_calls(monkeypatch, "distortion_bits")
    actual = graph.analyze("actual")
    maximal = graph.analyze("maximal")
    assert calls["distortion_bits"] == len(graph.edges) == 4
    for name, m in actual.per_edge.items():
        assert maximal.per_edge[name].d_kl == m.d_kl > 0.0


def test_graph_step_codes_are_read_only():
    # a step is shared with every caller given the same transform and input
    graph = parse_spec(json.dumps(enum_fork_join())).build_graph()
    for step in graph._steps:
        with pytest.raises(ValueError, match="read-only"):
            step.codes[0] = 1


class TestExport:
    def test_dot_output(self):
        g = sym_chain(["M", "V"], [10.0, 8.0, 5.0])
        dot = g.to_dot()
        assert dot.startswith("digraph workflow {")
        assert '"n0" -> "n1"' in dot
        assert "doubleoctagon" in dot
