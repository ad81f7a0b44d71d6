import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from cbr.alphabet import entropy, symbolic
from cbr.cli import main
from cbr.optimize import (
    DEFAULT_SEED,
    Dimension,
    ParamSpace,
    _frontier,
    apply_assignment,
    apply_dimension,
    evaluate,
    exhaustive_search,
    frontier_csv,
    greedy_search,
)
from cbr.specio import FIXTURE_NAMES, fixture_share_price, load_fixture, parse_spec
from cbr.transform import CostRecord, DeclaredHuman, Quantizer, Step, Transform
from cbr.workflow import AlphabetMismatch, Edge, WorkflowGraph
from oracles import workflow_oracle
from test_golden import ENUM_SPECS, _share_price_space
from test_specio import enum_fork_join
from test_step import COST, build, distortion_oracle, workflows


def declared(name, out, d, kind, cost=1.0):
    return Transform(name, DeclaredHuman(out, d), CostRecord("time", cost, "s"), kind)


def chain_graph():
    """s -> m -> dec with two declared steps open to tuning."""
    nodes = {
        "s": symbolic("s", 10.0),
        "m": symbolic("m", 6.0),
        "dec": symbolic("dec", 2.0),
    }
    edges = [
        Edge("s", "m", declared("t0", nodes["m"], 1.0, "M", 2.0)),
        Edge("m", "dec", declared("t1", nodes["dec"], 0.5, "H", 1.0)),
    ]
    return WorkflowGraph(nodes, edges)


def chain_space():
    return ParamSpace(
        (
            Dimension("transform:t0", "declared_distortion_bits", (0.0, 1.0, 2.0)),
            Dimension("transform:t0", "cost_amount", (1.0, 2.0)),
            Dimension("transform:t1", "declared_distortion_bits", (0.0, 0.5)),
        )
    )


def plateau_graph():
    """Two parallel branches whose costs merge by critical path.

    With merge="max_parallel" the total cost is max of the branch costs, so
    from a both-expensive start no single coordinate change improves the
    ratio: a plateau that coordinate ascent cannot leave without a restart.
    """
    nodes = {
        "fork": symbolic("fork", 10.0),
        "a": symbolic("a", 6.0),
        "b": symbolic("b", 4.0),
        "joint": symbolic("joint", 2.0),
        "decision": symbolic("decision", 1.0),
    }
    edges = [
        Edge("fork", "a", declared("va", nodes["a"], 1.0, "V", 10.0)),
        Edge("fork", "b", declared("mb", nodes["b"], 0.0, "M", 10.0)),
        Edge("a", "joint", declared("ja", nodes["joint"], 0.0, "V", 1.0)),
        Edge("b", "joint", declared("jb", nodes["joint"], 0.0, "M", 1.0)),
        Edge("joint", "decision", declared("dec", nodes["decision"], 0.0, "H", 1.0)),
    ]
    return WorkflowGraph(nodes, edges)


PLATEAU_SPACE = ParamSpace(
    (
        Dimension("transform:va", "cost_amount", (1.0, 10.0)),
        Dimension("transform:mb", "cost_amount", (1.0, 10.0)),
    )
)


class TestDimension:
    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            Dimension("transform:t0", "cost_amount", ())

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="target"):
            Dimension("node:t0", "cost_amount", (1.0,))

    def test_duplicate_rejected(self):
        dim = Dimension("transform:plot", "cost_amount", (1.0, 2.0))
        with pytest.raises(ValueError, match=r"^duplicate dimension transform:plot\.cost_amount$"):
            ParamSpace((dim, Dimension("transform:t0", "cost_amount", (1.0,)), dim))

    def test_combination_count(self):
        assert chain_space().combination_count() == 12

    def test_assignment_order_is_lexicographic(self):
        space = ParamSpace(
            (
                Dimension("transform:t0", "cost_amount", (1.0, 2.0)),
                Dimension("transform:t1", "cost_amount", (5.0,)),
            )
        )
        got = [a[("transform:t0", "cost_amount")] for a in space.assignments()]
        assert got == [1.0, 2.0]


class TestApplyAssignment:
    def test_cost_amount(self):
        g = apply_assignment(chain_graph(), {("transform:t0", "cost_amount"): 7.0})
        assert [e.transform.cost.amount for e in g.edges if e.transform.name == "t0"] == [7.0]

    def test_declared_distortion(self):
        g = apply_assignment(
            chain_graph(), {("transform:t0", "declared_distortion_bits"): 0.0}
        )
        assert g.total_benefit().lo == pytest.approx((10 - 6) + (6 - 2 - 0.5))

    @pytest.mark.parametrize(
        "target, field, value",
        [
            ("transform:plot", "bins", None),
            ("transform:plot", "bins", [1]),
            ("transform:plot", "bins", 2.5),
            ("transform:plot", "bins", True),
            ("transform:aggregate", "window", 12.5),
            ("transform:aggregate", "window", False),
            ("transform:plot", "cost_amount", True),
            ("transform:plot", "cost_amount", "3"),
            ("transform:recognize", "declared_distortion_bits", False),
            ("transform:recognize", "declared_distortion_bits", "0.5"),
            ("reconstruction:lossless", "declared_bits", True),
            ("reconstruction:lossless", "declared_bits", "0"),
        ],
    )
    def test_bad_value_rejected_as_a_search_rejects_it(self, target, field, value):
        """A value that is not an integer: null, a list, a fraction or a bool;
        or one that is not a number: a bool or a numeric string."""
        g = fixture_share_price(1).build_graph()
        with pytest.raises(ValueError) as by_dimension:
            apply_dimension(g, Dimension(target, field, (value,)))
        with pytest.raises(ValueError) as by_assignment:
            apply_assignment(g, {(target, field): value})
        assert str(by_assignment.value) == str(by_dimension.value)
        assert str(by_assignment.value).startswith(f"bad value for {target}.{field}: ")

    @pytest.mark.parametrize("command", ["validate", "optimize"])
    def test_numeric_string_rejected_by_the_cli(self, command, tmp_path, capsys):
        spec = load_fixture("plot_vs_binary").spec
        data = dict(spec.data, param_space={"dimensions": [
            {"target": "transform:recognize_plot", "field": "cost_amount", "values": ["3"]}
        ]})
        path = tmp_path / "string.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bad value for transform:recognize_plot.cost_amount: '3' is not a number\n"
        )

    def test_quantizer_bins_propagate_downstream(self):
        from cbr.alphabet import product
        from cbr.transform import pushforward

        series = product(symbolic("p", 5.0), 4)
        q = Transform("q", Quantizer(8), CostRecord("time", 1.0, "s"), "V")
        mid = pushforward(q, series, name="mid")
        tail = declared("t", symbolic("dec", 2.0), 0.0, "H")
        g = WorkflowGraph(
            {"s": series, "mid": mid, "dec": symbolic("dec", 2.0)},
            [Edge("s", "mid", q), Edge("mid", "dec", tail)],
        )
        tuned = apply_assignment(g, {("transform:q", "bins"): 4})
        assert entropy(tuned.nodes["mid"]) == pytest.approx(4 * 2.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown transform field"):
            apply_assignment(chain_graph(), {("transform:t0", "levels"): 4})


class TestEdgeEnabled:
    """An edge's ``enabled`` value is JSON true or false, and nothing else."""

    TARGET = "edge:Z1->Zb2"

    def space(self, value) -> ParamSpace:
        return ParamSpace((Dimension(self.TARGET, "enabled", (value,)),))

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None, []])
    def test_only_true_or_false(self, value, tmp_path, capsys):
        message = f"bad value for {self.TARGET}.enabled: {value!r} is not true or false"
        spec = load_fixture("plot_vs_binary").spec
        for search in (exhaustive_search, greedy_search):
            with pytest.raises(ValueError) as exc:
                search(spec.build_graph(), self.space(value))
            assert str(exc.value) == message
        data = dict(spec.data, param_space={"dimensions": [
            {"target": self.TARGET, "field": "enabled", "values": [value]}
        ]})
        path = tmp_path / "enabled.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_disabled_edge_leaves_a_joint_without_branch_point(self):
        """Without Z1 -> Zb2, the branches into Z4 share no ancestor."""
        g = load_fixture("plot_vs_binary").spec.build_graph()
        with pytest.raises(ValueError) as exc:
            exhaustive_search(g, self.space(False))
        assert str(exc.value) == "no common branch point for joint Z4"


def fork_join_graph(coarse_q_first: bool = False) -> WorkflowGraph:
    """``enum_fork_join``, whose joint D is reached by coarse_g and then
    coarse_q, or by coarse_q first."""
    data = enum_fork_join()
    if coarse_q_first:
        edges = data["graph"]["edges"]
        edges[2], edges[3] = edges[3], edges[2]
    return parse_spec(json.dumps(data)).build_graph()


BINS = ("transform:bin", "bins")


class TestDerivedAlphabets:
    """``apply_assignment`` leaves every fed node to the new graph, which
    derives it from its first in-edge and checks the others."""

    def test_one_step_per_edge(self, monkeypatch):
        g = fixture_share_price(3).build_graph()
        made = []
        init = Step.__init__

        def counted(self, *args):
            made.append(self)
            init(self, *args)

        monkeypatch.setattr(Step, "__init__", counted)
        tuned = apply_assignment(g, {("transform:plot", "bins"): 64})
        assert len(made) == len(tuned.edges) == 7

    @pytest.mark.parametrize("coarse_q_first", [False, True])
    def test_branches_that_disagree_at_a_joint(self, coarse_q_first):
        g = fork_join_graph(coarse_q_first)
        later = g.edges[3].transform.name
        for bins in (2, 3):
            with pytest.raises(AlphabetMismatch) as exc:
                apply_assignment(g, {BINS: bins})
            assert str(exc.value) == f"edge {later}: pushforward does not match node D"
        overall = g.analyze().overall
        cost, ben, cbr = evaluate(apply_assignment(g, {BINS: 4}))
        assert cost == overall.total_cost.amount == 8
        assert ben == overall.total_benefit_bits
        assert cbr == overall.overall_cbr
        assert (round(ben.lo, 5), round(ben.hi, 5)) == (2.85026, 5.69504)

    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, *ENUM_SPECS])
    def test_empty_assignment_keeps_cost_and_benefit(self, name):
        if name in ENUM_SPECS:
            spec = parse_spec(json.dumps(ENUM_SPECS[name]()))
        else:
            spec = load_fixture(name).spec
        g, mode = spec.build_graph(), spec.entropy_mode
        cost, ben, _ = evaluate(apply_assignment(g, {}), mode)
        assert cost == g.total_cost().amount
        assert ben == g.total_benefit(mode)


class TestSkippedAssignments:
    """An assignment whose branches disagree at a joint is skipped; every
    other error still ends the search."""

    def space(self, bins=(2, 3, 4)):
        return ParamSpace((
            Dimension(*BINS, bins),
            Dimension("transform:pair", "cost_amount", (1.0, 2.0)),
        ))

    def test_exhaustive(self):
        g = fork_join_graph()
        result = exhaustive_search(g, self.space())
        assert (result.evaluations, result.skipped) == (2, 4)
        assert result.first_skip == "edge coarse_q: pushforward does not match node D"
        assert [(a[BINS], cost) for a, cost, *_ in result.records] == [(4, 7.0), (4, 8.0)]
        assert result.best_assignment == {BINS: 4, ("transform:pair", "cost_amount"): 1.0}
        assert result.best_cost == 7.0
        assert result.frontier == [(7.0, g.total_benefit().midpoint)]

    def test_greedy(self):
        result = greedy_search(fork_join_graph(), self.space(), restarts=3, seed=1)
        assert result.skipped > 0
        assert result.first_skip == "edge coarse_q: pushforward does not match node D"
        assert result.evaluations == len(result.records) > 0
        assert {a[BINS] for a, *_ in result.records} == {4}
        assert result.best_assignment[BINS] == 4

    def test_nothing_skipped(self):
        result = exhaustive_search(fork_join_graph(), self.space((4,)))
        assert (result.evaluations, result.skipped, result.first_skip) == (2, 0, "")

    @pytest.mark.parametrize("search", [exhaustive_search, greedy_search])
    def test_every_assignment_skipped(self, search):
        with pytest.raises(AlphabetMismatch, match="^edge coarse_q: pushforward does not match node D$"):
            search(fork_join_graph(), self.space((2, 3)))

    @pytest.mark.parametrize("search", [exhaustive_search, greedy_search])
    def test_other_errors_end_the_search(self, search):
        g = fixture_share_price(3).build_graph()
        space = ParamSpace((Dimension("transform:aggregate", "window", (12, 7)),))
        with pytest.raises(ValueError, match="^window does not divide the factor count$") as exc:
            search(g, space)
        assert not isinstance(exc.value, AlphabetMismatch)


class TestExhaustive:
    def test_matches_brute_force(self):
        g, space = chain_graph(), chain_space()
        result = exhaustive_search(g, space)

        best = None
        for combo in itertools.product(*(d.values for d in space.dimensions)):
            assignment = {
                (d.target, d.field): v for d, v in zip(space.dimensions, combo)
            }
            cost, _, cbr = evaluate(apply_assignment(g, assignment))
            key = (cbr.midpoint, -cost)
            if best is None or key > best[0]:
                best = (key, assignment, cbr)
        assert result.best_assignment == best[1]
        assert result.best_cbr.midpoint == pytest.approx(best[2].midpoint)
        assert result.evaluations == 12
        assert result.certified

    def test_tie_breaks_on_lower_cost(self):
        g = chain_graph()
        space = ParamSpace(
            (Dimension("transform:t1", "cost_amount", (4.0, 2.0)),)
        )
        # benefit is negative here, so halving the divisor lowers the ratio;
        # force a tie instead by zeroing the benefit
        zeroed = apply_assignment(
            g,
            {
                ("transform:t0", "declared_distortion_bits"): 4.0,
                ("transform:t1", "declared_distortion_bits"): 4.0,
            },
        )
        result = exhaustive_search(zeroed, space)
        assert result.best_cost == pytest.approx(2.0 + 2.0)

    def test_budget_filters(self):
        result = exhaustive_search(chain_graph(), chain_space(), budget=2.0)
        assert result.best_cost <= 2.0

    def test_infeasible_budget(self):
        with pytest.raises(ValueError, match="infeasible budget"):
            exhaustive_search(chain_graph(), chain_space(), budget=0.5)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr("cbr.optimize.EXHAUSTIVE_CAP", 4)
        with pytest.raises(ValueError, match="^parameter space has 12 combinations, over the "
                                             "exhaustive cap 4; use greedy_search$"):
            exhaustive_search(chain_graph(), chain_space())


class TestGreedy:
    def test_single_dimension_equals_exhaustive(self):
        g = chain_graph()
        space = ParamSpace(
            (Dimension("transform:t0", "declared_distortion_bits", (0.0, 1.0, 2.0)),)
        )
        ex = exhaustive_search(g, space)
        gr = greedy_search(g, space, seed=123)
        assert gr.best_assignment == ex.best_assignment
        assert gr.best_cbr.midpoint == pytest.approx(ex.best_cbr.midpoint)
        assert not gr.certified

    def test_restarts_escape_plateau(self):
        g = plateau_graph()
        # seed 0 starts at the both-expensive corner: stuck on the plateau
        stuck = greedy_search(
            g, PLATEAU_SPACE, restarts=1, merge="max_parallel", seed=0
        )
        ex = exhaustive_search(g, PLATEAU_SPACE, merge="max_parallel")
        assert stuck.best_cbr.midpoint < ex.best_cbr.midpoint - 1e-9

        freed = greedy_search(
            g, PLATEAU_SPACE, restarts=2, merge="max_parallel", seed=0
        )
        assert freed.best_cbr.midpoint == pytest.approx(ex.best_cbr.midpoint)
        assert freed.best_assignment == ex.best_assignment

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("CBR_SEED", "0")
        g = plateau_graph()
        implicit = greedy_search(g, PLATEAU_SPACE, restarts=1, merge="max_parallel")
        explicit = greedy_search(g, PLATEAU_SPACE, restarts=1, merge="max_parallel", seed=0)
        assert implicit.best_assignment == explicit.best_assignment

    def test_each_assignment_evaluated_once(self):
        """The golden ``optimize --greedy --restarts 3`` space on share-price
        r=3 (18 combinations): restarts and lines come back to assignments
        already seen, which keep their one record."""
        spec = parse_spec(json.dumps(_share_price_space()))
        result = greedy_search(spec.build_graph(), spec.param_space(), restarts=3,
                               entropy_mode=spec.entropy_mode, seed=DEFAULT_SEED)
        distinct = {tuple(sorted(a.items())) for a, *_ in result.records}
        assert result.evaluations == len(result.records) == len(distinct) == 12

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_breaks_on_lower_cost(self, seed):
        """Every score is 0 on this line, at costs 2 + 4 and 2 + 2: greedy
        picks the cheaper, as exhaustive search does, from either start."""
        zeroed = apply_assignment(chain_graph(), {
            ("transform:t0", "declared_distortion_bits"): 4.0,
            ("transform:t1", "declared_distortion_bits"): 4.0,
        })
        space = ParamSpace((Dimension("transform:t1", "cost_amount", (4.0, 2.0)),))
        greedy = greedy_search(zeroed, space, seed=seed)
        assert greedy.best_cost == exhaustive_search(zeroed, space).best_cost == 4.0
        assert greedy.best_assignment == {("transform:t1", "cost_amount"): 2.0}

    def test_zero_restarts_rejected(self):
        with pytest.raises(ValueError, match="restarts"):
            greedy_search(chain_graph(), chain_space(), restarts=0)


class TestPareto:
    def test_known_frontier(self):
        points = [(1.0, 2.0), (2.0, 1.0), (2.0, 5.0), (3.0, 4.0), (4.0, 6.0)]
        cost, benefit = np.array(points).T
        assert _frontier(cost, benefit).tolist() == [0, 2, 4]

    def test_duplicates_collapse(self):
        assert _frontier(np.array([1.0, 1.0]), np.array([1.0, 1.0])).tolist() == [0]

    def test_frontier_csv_shape(self):
        result = exhaustive_search(chain_graph(), chain_space())
        csv = frontier_csv(result)
        lines = csv.strip().splitlines()
        assert lines[0] == "assignment,cost,benefit_lo,benefit_hi,cbr_mid"
        assert len(lines) == len(result.frontier) + 1


# -- the searches against a plain loop of evaluate(apply_assignment(...)) ------


def brute_force(g, space, budget, entropy_mode, merge):
    """Records, best record and frontier by one evaluation per assignment."""
    records = []
    for assignment in space.assignments():
        cost, ben, cbr = evaluate(apply_assignment(g, assignment), entropy_mode, merge)
        records.append((assignment, cost, ben, cbr))
    best = None
    for record in records:
        _, cost, _, cbr = record
        if budget is not None and cost > budget + 1e-12:
            continue
        score = cbr.midpoint
        if best is None or score > best[0] or (score == best[0] and cost < best[1][1]):
            best = (score, record)
    if best is None:
        raise ValueError("infeasible budget")
    return records, best[1], brute_force_frontier(records)


def brute_force_frontier(records):
    """Sort by (cost, -benefit midpoint), keep each point that raises the best benefit."""
    frontier = []
    for cost, ben in sorted(((c, b.midpoint) for _, c, b, _ in records), key=lambda p: (p[0], -p[1])):
        if not frontier or ben > frontier[-1][1]:
            frontier.append((cost, ben))
    return frontier


def tunable_fields(g):
    """(target, field, candidate values) for every dimension the graph takes.

    Candidate sets are small, so random spaces tie in cost and in score.
    """
    out = []
    for e in g.edges:
        t = e.transform
        out.append((f"transform:{t.name}", "cost_amount", (1.0, 2.0, 3.0)))
        if isinstance(t.kind, DeclaredHuman):
            out.append((f"transform:{t.name}", "declared_distortion_bits", (0.0, 1.0, 4.0)))
        if isinstance(t.kind, Quantizer):
            out.append((f"transform:{t.name}", "bins", (16, 64, 128)))
    return out


PROPERTY_GRAPHS = {
    "chain": chain_graph,
    # benefit 0 unless a space lowers a distortion: every cost ties in score
    "chain_zero_benefit": lambda: apply_assignment(
        chain_graph(),
        {
            ("transform:t0", "declared_distortion_bits"): 4.0,
            ("transform:t1", "declared_distortion_bits"): 4.0,
        },
    ),
    "plateau": plateau_graph,
    "share_price_r1": lambda: fixture_share_price(1).build_graph(),
}


def random_space(rng, g):
    """One to three value dimensions, and an edge switch in one space of four
    (most switched-off edges leave an invalid graph, which both must reject)."""
    fields = tunable_fields(g)
    dims = [
        Dimension(target, field_name, tuple(rng.sample(values, rng.randint(1, len(values)))))
        for target, field_name, values in rng.sample(fields, rng.randint(1, 3))
    ]
    if rng.random() < 0.25:
        target = rng.choice([f"edge:{e.src}->{e.dst}" for e in g.edges])
        dims.append(Dimension(target, "enabled", rng.choice([(True, False), (False, True)])))
    return ParamSpace(tuple(dims))


def outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs), None
    except ValueError as exc:
        return None, str(exc)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("graph_name", sorted(PROPERTY_GRAPHS))
    def test_random_spaces(self, graph_name):
        rng = random.Random(f"separable-{graph_name}")
        g = PROPERTY_GRAPHS[graph_name]()
        base = g.total_cost().amount
        compared = 0
        for case in range(150):
            space = random_space(rng, g)
            merge = rng.choice(["sum", "max_parallel"])
            mode = rng.choice(["actual", "maximal"])
            budget = rng.choice([None, base * rng.choice([0.5, 0.8, 1.2])])
            expected, error = outcome(brute_force, g, space, budget, mode, merge)
            got, got_error = outcome(
                exhaustive_search, g, space, budget=budget, entropy_mode=mode, merge=merge,
            )
            assert got_error == error, (case, space)
            if error is not None:
                continue
            compared += 1
            records, best, frontier = expected
            assert got.records == records
            assert got.best_assignment == best[0]
            assert got.best_cost == best[1]
            assert got.best_cbr == best[3]
            assert got.frontier == frontier
            assert got.evaluations == space.combination_count() == len(records)

            greedy, greedy_error = outcome(
                greedy_search, g, space, budget=budget, restarts=2, entropy_mode=mode,
                merge=merge, seed=case,
            )
            if greedy_error is not None:
                assert greedy_error == "infeasible budget"
                continue
            scores = []
            for assignment, cost, ben, cbr in greedy.records:
                assert (cost, ben, cbr) == evaluate(apply_assignment(g, assignment), mode, merge)
                if budget is None or cost <= budget + 1e-12:
                    scores.append(cbr.midpoint)
            assert greedy.best_cbr.midpoint == max(scores)
            assert any(
                r[0] == greedy.best_assignment and r[1] == greedy.best_cost and r[3] == greedy.best_cbr
                for r in greedy.records
            )
            assert greedy.frontier == brute_force_frontier(greedy.records)
        assert compared >= 60

    def test_large_cost_only_space(self):
        """10^5 cost-only combinations: the best is the cheapest assignment."""
        spec = fixture_share_price(1)
        g = spec.build_graph()
        base = {e.transform.name: float(e.transform.cost.amount) for e in g.edges}
        swept = ["aggregate", "plot", "recognize", "correlate", "decide_corr"]
        values = [tuple(0.5 + 0.25 * k + 0.01 * i for k in range(10)) for i in range(len(swept))]
        space = ParamSpace(
            tuple(Dimension(f"transform:{t}", "cost_amount", v) for t, v in zip(swept, values))
        )
        result = exhaustive_search(g, space, entropy_mode="maximal")
        ben = g.total_benefit("maximal")

        def closed_form_cost(assignment):
            costs = dict(base)
            for (target, _), value in assignment.items():
                costs[target.split(":", 1)[1]] = value
            return math.fsum(costs.values())

        cheapest = {(f"transform:{t}", "cost_amount"): min(v) for t, v in zip(swept, values)}
        cost = closed_form_cost(cheapest)
        assert result.evaluations == len(result.records) == 10**5
        assert result.best_assignment == cheapest
        assert result.best_cost == pytest.approx(cost, rel=1e-12)
        assert result.best_cbr.lo == pytest.approx(ben.lo / cost, rel=1e-12)
        assert result.best_cbr.hi == pytest.approx(ben.hi / cost, rel=1e-12)
        assert result.frontier == [(result.best_cost, ben.midpoint)]
        assert all(
            math.isclose(c, closed_form_cost(a), rel_tol=1e-12) and b == ben
            for a, c, b, _ in result.records
        )



# -- exhaustive search against workflow_oracle, one call per assignment --------


def oracle_search(nodes, steps, space, budget, mode, merge):
    """(best assignment, frontier) of ``space`` on a drawn workflow, each
    assignment scored from first principles by ``workflow_oracle``. Scores
    within 1e-9 tie, as do benefits on the frontier; a tie goes to the lower
    cost, then to the first assignment. None for the best when no cost is
    within ``budget``."""
    [sink] = [v for v in nodes if all(s["src"] != v for s in steps)]
    points = []  # (assignment, cost, benefit midpoint, score)
    for assignment in space.assignments():
        edges = []
        for s in steps:
            target = f"transform:{s['name']}"
            d = distortion_oracle(s, nodes)
            if s["map"] is None and s["bits"] is None:  # no reconstruction: the step's own
                d = assignment.get((target, "declared_distortion_bits"), d)
            cost = assignment.get((target, "cost_amount"), COST.amount)
            edges.append(dict(src=s["src"], dst=s["dst"], kind="H" if s["map"] is None else "M",
                              cost=cost, d=d))
        oracle = workflow_oracle(nodes, edges, sink)
        lo, hi = oracle["benefit"][mode]
        cost = oracle["cost"][merge]
        cbr_lo, cbr_hi = sorted((lo / cost, hi / cost))
        score = 0.5 * (cbr_lo + cbr_hi)
        points.append((assignment, cost, 0.5 * (lo + hi), score))
    feasible = [p for p in points if budget is None or p[1] <= budget + 1e-12]
    best = None
    if feasible:
        top = max(p[3] for p in feasible)
        tied = [p for p in feasible if p[3] >= top - 1e-9]
        best = min(tied, key=lambda p: p[1])[0]  # min keeps the first of equal costs
    frontier = []
    for _, cost, ben, _ in sorted(points, key=lambda p: (p[1], -p[2])):
        if not frontier or ben > frontier[-1][1] + 1e-9:
            frontier.append((cost, ben))
    return best, frontier


@st.composite
def oracle_cases(draw):
    """A drawn workflow with at least one edge and single forks, its graph,
    and a space of at most 64 assignments over its costs and declared
    distortions."""
    nodes, steps = draw(workflows())
    assume(steps)
    try:
        graph, _ = build(nodes, steps)
    except ValueError as exc:  # a joint with several lowest common ancestors
        assert "branch points" in str(exc)
        reject()
    fields = [(f"transform:{s['name']}", "cost_amount", (1.0, 2.0, 3.0)) for s in steps]
    fields += [(f"transform:{s['name']}", "declared_distortion_bits", (0.0, 1.0, 4.0))
               for s in steps if s["map"] is None]
    dims = tuple(
        Dimension(target, field_name, tuple(draw(st.lists(
            st.sampled_from(values), min_size=1, max_size=3, unique=True))))
        for target, field_name, values in draw(st.lists(
            st.sampled_from(fields), min_size=1, max_size=4, unique=True))
    )
    space = ParamSpace(dims)
    assume(space.combination_count() <= 64)
    return nodes, steps, graph, space


@settings(max_examples=200, deadline=None)
@given(oracle_cases(), st.sampled_from(["actual", "maximal"]), st.sampled_from(["sum", "max_parallel"]),
       st.sampled_from([None, 0.5, 0.8, 1.2]))
def test_exhaustive_equals_oracle_brute_force(case, mode, merge, budget_share):
    nodes, steps, graph, space = case
    budget = None if budget_share is None else graph.total_cost(merge).amount * budget_share
    best, frontier = oracle_search(nodes, steps, space, budget, mode, merge)
    if best is None:
        with pytest.raises(ValueError, match="infeasible budget"):
            exhaustive_search(graph, space, budget=budget, entropy_mode=mode, merge=merge)
        return
    result = exhaustive_search(graph, space, budget=budget, entropy_mode=mode, merge=merge)
    assert result.best_assignment == best
    assert len(result.frontier) == len(frontier)
    for (cost, ben), (want_cost, want_ben) in zip(result.frontier, frontier):
        assert cost == want_cost and math.isclose(ben, want_ben, rel_tol=1e-9, abs_tol=1e-9)
