import contextlib
import io
import json
import math
import subprocess
import sys

import pytest

from cbr import cli
from cbr.cli import main
from cbr.metrics import ENTROPY_MODES, METRICS
from cbr.specio import (
    FIXTURE_NAMES,
    emit_spec,
    fixture_plot_vs_binary,
    fixture_share_price,
    load_fixture,
    parse_spec,
    resolve_metric,
)
from test_specio import enum_fork_join


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "plot_vs_binary.json"
    path.write_text(emit_spec(fixture_plot_vs_binary()))
    return str(path)


@pytest.fixture
def tunable_file(tmp_path):
    spec = load_fixture("overview_interaction").spec
    data = dict(spec.data)
    data["param_space"] = {
        "dimensions": [
            {
                "target": "transform:zoom",
                "field": "declared_distortion_bits",
                "values": [0.0, 0.5, 2.0],
            },
            {"target": "transform:zoom", "field": "cost_amount", "values": [1.0, 2.0]},
        ]
    }
    path = tmp_path / "tunable.json"
    path.write_text(json.dumps(data, indent=2))
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, spec_file, capsys):
        assert main(["validate", spec_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/spec.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validate_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_validate_semantic_error(self, tmp_path, capsys):
        spec = json.loads(emit_spec(fixture_plot_vs_binary()))
        spec["graph"]["edges"][0]["transform"] = "ghost"
        bad = tmp_path / "dangling.json"
        bad.write_text(json.dumps(spec))
        assert main(["validate", str(bad)]) == 1
        assert "dangling reference" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_option_is_usage_error(self, spec_file):
        with pytest.raises(SystemExit) as exc:
            main(["report", spec_file])
        assert exc.value.code == 2

    def test_subprocess_matrix(self, spec_file):
        """End-to-end exit codes through the installed console script."""
        runs = [
            (["validate", spec_file], 0),
            (["validate", "/nonexistent.json"], 1),
            (["nonsense"], 2),
        ]
        for argv, expected in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "cbr.cli", *argv], capture_output=True
            )
            assert proc.returncode == expected, (argv, proc.stderr)


class TestAnalyze:
    def test_table_output(self, spec_file, capsys):
        assert main(["analyze", spec_file]) == 0
        out = capsys.readouterr().out
        assert "overall CBR" in out
        assert "recognize_plot" in out

    def test_json_output(self, spec_file, capsys):
        assert main(["analyze", spec_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "recognize_plot" in payload["per_edge"]
        assert payload["total_cost"] == pytest.approx(114.0)

    def test_merge_changes_cost(self, spec_file, capsys):
        assert main(["analyze", spec_file, "--json", "--merge", "max_parallel"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_cost"] == pytest.approx(102.0)

    def test_mode_override(self, spec_file, capsys):
        assert main(["analyze", spec_file, "--mode", "maximal", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entropy_mode"] == "maximal"


class TestOptimize:
    def test_exhaustive(self, tunable_file, capsys):
        assert main(["optimize", tunable_file]) == 0
        out = capsys.readouterr().out
        assert "certified global optimum: True" in out
        assert "evaluations: 6" in out

    def test_greedy(self, tunable_file, capsys):
        assert main(["optimize", tunable_file, "--greedy", "--restarts", "2"]) == 0
        assert "certified global optimum: False" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [[], ["--frontier"]], ids=["plain", "frontier"])
    def test_restarts_without_greedy_is_usage_error(self, extra, tunable_file, capsys):
        assert main(["optimize", tunable_file, "--restarts", "3", *extra]) == 2
        assert capsys.readouterr() == ("", "error: --restarts applies only to --greedy\n")

    def test_frontier_csv(self, tunable_file, capsys):
        assert main(["optimize", tunable_file, "--frontier"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "assignment,cost,benefit_lo,benefit_hi,cbr_mid"
        assert len(lines) > 1

    def test_infeasible_budget(self, tunable_file, capsys):
        assert main(["optimize", tunable_file, "--budget", "0.1"]) == 1
        assert "infeasible budget" in capsys.readouterr().err

    @pytest.mark.parametrize("search", [[], ["--greedy"]], ids=["exhaustive", "greedy"])
    @pytest.mark.parametrize("budget", ["2", "3", "10"])
    def test_budget_without_a_cost_model(self, budget, search, tunable_file, tmp_path, capsys):
        """A budget is an amount in the transforms' one cost unit, whether or
        not the spec declares a cost model: the output is the same."""
        with open(tunable_file) as fh:
            data = json.load(fh)
        del data["cost_model"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(data))
        outputs = []
        for path in (tunable_file, str(bare)):
            code = main(["optimize", path, "--budget", budget] + search)
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (1 if budget == "2" else 0)

    @pytest.mark.parametrize("budget, message", [
        ("inf", "cost must be finite"),
        ("nan", "cost must be positive: an action always has a cost"),
        ("0", "cost must be positive: an action always has a cost"),
        ("-1", "cost must be positive: an action always has a cost"),
    ])
    @pytest.mark.parametrize("search", [[], ["--greedy"]], ids=["exhaustive", "greedy"])
    def test_budget_not_a_positive_finite_number(self, budget, message, search, tunable_file,
                                                 monkeypatch, capsys):
        """A budget is checked before any assignment is evaluated."""
        monkeypatch.setattr(cli.opt, "_Evaluator", None)
        assert main(["optimize", tunable_file, "--budget", budget] + search) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_seed_not_an_integer(self, tunable_file, monkeypatch, capsys):
        monkeypatch.setenv("CBR_SEED", "abc")
        assert main(["optimize", tunable_file, "--greedy"]) == 1
        assert capsys.readouterr() == ("", "error: CBR_SEED must be an integer, got 'abc'\n")

    def test_duplicate_dimension(self, tunable_file, capsys):
        with open(tunable_file) as fh:
            data = json.load(fh)
        dims = data["param_space"]["dimensions"]
        dims.append({"target": "transform:zoom", "field": "cost_amount", "values": [3.0, 4.0]})
        with open(tunable_file, "w") as fh:
            json.dump(data, fh)
        assert main(["optimize", tunable_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate dimension transform:zoom.cost_amount\n"


class TestParamSpaceAgreement:
    """``validate`` rejects every parameter space that ``optimize`` rejects."""

    def add_dimension(self, path, dim):
        with open(path) as fh:
            data = json.load(fh)
        data["param_space"]["dimensions"].append(dim)
        with open(path, "w") as fh:
            json.dump(data, fh)

    @pytest.mark.parametrize("command", ["validate", "optimize"])
    def test_duplicate_dimension(self, command, tunable_file, capsys):
        self.add_dimension(
            tunable_file, {"target": "transform:zoom", "field": "cost_amount", "values": [3.0]}
        )
        assert main([command, tunable_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate dimension transform:zoom.cost_amount\n"

    @pytest.mark.parametrize("command", ["validate", "optimize"])
    def test_dangling_target(self, command, tunable_file, capsys):
        self.add_dimension(
            tunable_file, {"target": "transform:nosuch", "field": "cost_amount", "values": [3.0]}
        )
        assert main([command, tunable_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: dangling reference: transform 'nosuch'"
            " at param_space.dimensions[2].target\n"
        )


    @pytest.mark.parametrize("command", ["validate", "optimize"])
    @pytest.mark.parametrize(
        "target, field, message",
        [
            ("transform:zoom", "bins", "zoom is not a quantizer"),
            ("reconstruction:guess_uniform", "declared_bits", "guess_uniform is not a declared divergence"),
            ("edge:Zs->Zo", "bins", "unknown edge field 'bins'"),
        ],
    )
    def test_field_that_does_not_apply(self, command, target, field, message, tunable_file, capsys):
        self.add_dimension(tunable_file, {"target": target, "field": field, "values": [4]})
        assert main([command, tunable_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


PLACEHOLDER = 123.25  # written in the spec text as one of the literals below
BIG = "1" + "0" * 400  # an integer literal too large for a float


def dimension(field: str) -> dict:
    return {"dimensions": [{"target": "transform:plot", "field": field, "values": [PLACEHOLDER]}]}


def overview_with(mutate) -> str:
    """overview_interaction's spec text after ``mutate`` edits its document."""
    data = json.loads(emit_spec(load_fixture("overview_interaction").spec))
    mutate(data)
    return json.dumps(data)


def declared_spec(bits: dict, edges: list) -> str:
    """Symbolic alphabets (name -> entropy bits) joined by distortion-free
    declared steps, one per (src, dst, transform, node kind) edge."""
    cost = {"kind": "time", "amount": 1, "unit": "s"}
    transforms = {
        t: {"name": t, "node_kind": kind, "cost": cost,
            "kind": {"type": "declared", "output": dst, "distortion_bits": 0.0}}
        for _, dst, t, kind in edges
    }
    return json.dumps({
        "schema_version": "1",
        "alphabets": [
            {"name": n, "model": {"type": "symbolic", "entropy_bits": h}} for n, h in bits.items()
        ],
        "transforms": list(transforms.values()),
        "graph": {"edges": [{"from": src, "to": dst, "transform": t} for src, dst, t, _ in edges]},
    })


def test_joint_whose_fork_is_a_joint(tmp_path, capsys):
    """N4's fork is N2, itself a joint (tests/test_workflow.py)."""
    path = tmp_path / "nested.json"
    path.write_text(declared_spec(
        {"X": 10, "N1": 8, "N2": 6, "N3": 9, "N4": 5},
        [(src, dst, src + dst, kind) for src, dst, kind in [
            ("X", "N1", "M"), ("N1", "N2", "M"), ("X", "N2", "M"), ("N1", "N3", "H"),
            ("N2", "N3", "H"), ("N3", "N4", "M"), ("N2", "N4", "M"),
        ]],
    ))
    assert main(["analyze", str(path)]) == 0
    assert "total benefit: [5, 9] bits\n" in capsys.readouterr().out


def tie_edges(first: str, second: str) -> list:
    """X -> ``first`` and X -> ``second``, in that order; A and B each -> C
    and -> E; C and E -> D. D's lowest common ancestors are A and B."""
    return [(src, dst, src + dst, "H") for src, dst in [
        ("X", first), ("X", second), ("A", "C"), ("A", "E"), ("B", "C"), ("B", "E"),
        ("C", "D"), ("E", "D"),
    ]]


TIE_BITS = {"X": 10, "A": 6, "B": 8, "C": 1, "E": 1, "D": 0.5}
TIED = "joint D has several branch points: A, B"


@pytest.mark.parametrize("command", [
    ["validate"], ["analyze"], ["report", "--format", "dot"], ["report", "--format", "csv"],
])
@pytest.mark.parametrize("bits, edges, message", [
    (TIE_BITS, tie_edges("A", "B"), TIED),
    (TIE_BITS, tie_edges("B", "A"), TIED),
    ({"A": 4, "B": 3, "D": 1}, [("A", "D", "AD", "H"), ("B", "D", "BD", "H")],
     "no common branch point for joint D"),
], ids=["tie", "tie reversed", "two sources"])
def test_joint_without_one_branch_point(bits, edges, message, command, tmp_path, capsys):
    """A joint needs exactly one lowest common ancestor, in every edge order
    and under every command that builds the graph."""
    path = tmp_path / "joint.json"
    path.write_text(declared_spec(bits, edges))
    assert main(command + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} at graph\n"


class TestBadSpecs:
    """Schema-valid documents with a bad per-kind field, and non-finite
    numbers, end in one ``error:`` line and exit 1."""

    def run(self, tmp_path, capsys, text, command="validate"):
        path = tmp_path / "bad.json"
        path.write_text(text)
        argv = [command, "--json", str(path)] if command == "analyze" else [command, str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["transforms"][0]["kind"].pop("map"),
             "grouping transform needs 'map' at transforms[0].kind"),
            (lambda d: d["transforms"][0]["kind"]["map"].update({"10": []}),
             "grouping transform has a field of the wrong type (unhashable type: 'list')"
             " at transforms[0].kind"),
            (lambda d: d["transforms"][1]["kind"].pop("output"),
             "declared transform needs 'output' at transforms[1].kind"),
            (lambda d: d["transforms"][1]["kind"].update(output=["Zd"]),
             "declared transform has a field of the wrong type (unhashable type: 'list')"
             " at transforms[1].kind"),
            (lambda d: d["alphabets"][0]["model"]["probs"].update({"0": "0.0625"}),
             "enumerated model has a field of the wrong type"
             " ('<' not supported between instances of 'float' and 'str') at alphabets[Zs].model"),
        ],
    )
    def test_per_kind_field(self, mutate, message, tmp_path, capsys):
        assert self.run(tmp_path, capsys, overview_with(mutate)) == f"error: {message}\n"

    @pytest.mark.parametrize("section, i, name", [
        ("alphabets", 2, "Zd"), ("transforms", 1, "zoom"), ("reconstructions", 1, "zoom_declared"),
    ])
    def test_name_declared_twice(self, section, i, name, tmp_path, capsys):
        text = overview_with(lambda d: d[section].append(dict(d[section][i])))
        at = f"{section}[{len(json.loads(text)[section]) - 1}].name"
        assert self.run(tmp_path, capsys, text) == f"error: duplicate name {name!r} at {at}\n"

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_transform_on_two_edges(self, command, tmp_path, capsys):
        text = declared_spec({"S": 20, "A": 10, "B": 4, "D": 1}, [
            ("S", "A", "toA", "H"), ("S", "B", "toB", "H"),
            ("A", "D", "decide", "H"), ("B", "D", "decide", "H"),
        ])
        assert self.run(tmp_path, capsys, text, command) == (
            "error: transform 'decide' is on more than one edge at graph\n"
        )

    @pytest.mark.parametrize("command", ["validate", "analyze", "optimize"])
    def test_unknown_cost_model_kind(self, command, tmp_path, capsys):
        text = overview_with(lambda d: d.update(cost_model={"kind": "bogus", "unit": "s"}))
        assert self.run(tmp_path, capsys, text, command) == (
            "error: 'bogus' is not one of ['energy', 'time', 'monetary', 'abstract']"
            " at cost_model/kind\n"
        )

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_edgeless_graph(self, command, tmp_path, capsys):
        text = overview_with(lambda d: d["graph"].update(edges=[]))
        err = self.run(tmp_path, capsys, text, command)
        assert err == "error: [] should be non-empty at graph/edges\n"

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number(self, command, value, tmp_path, capsys):
        text = overview_with(lambda d: d["reconstructions"][1]["kind"].update(bits=value))
        name = json.dumps(value)
        assert self.run(tmp_path, capsys, text, command) == (
            f"error: non-finite number {name}: numbers must be finite\n"
        )

    @pytest.mark.parametrize(
        "fixture, mutate, literal, command, message",
        [
            ("overview_interaction", lambda d: d["transforms"][0]["cost"].update(amount=PLACEHOLDER),
             "1e400", "analyze", "cost must be finite"),
            ("overview_interaction", lambda d: d["reconstructions"][1]["kind"].update(bits=PLACEHOLDER),
             "1e400", "analyze", "declared divergence must be finite"),
            ("share_price_chain",
             lambda d: d["alphabets"][0]["model"].update(max_entropy_bits=PLACEHOLDER),
             BIG, "validate", "entropies must be finite"),
            ("share_price_chain", lambda d: d["alphabets"][1]["model"].update(count=PLACEHOLDER),
             BIG, "validate", "factor count must be finite"),
            ("overview_interaction", lambda d: d["transforms"][0]["cost"].update(amount=PLACEHOLDER),
             BIG, "analyze", "cost must be finite"),
            ("overview_interaction", lambda d: d["reconstructions"][1]["kind"].update(bits=PLACEHOLDER),
             BIG, "analyze", "declared divergence must be finite"),
            ("share_price_chain", lambda d: d.update(param_space=dimension("cost_amount")),
             BIG, "optimize",
             "bad value for transform:plot.cost_amount: int too large to convert to float"),
            ("share_price_chain", lambda d: d.update(param_space=dimension("bins")),
             "1e400", "optimize",
             "bad value for transform:plot.bins: cannot convert float infinity to integer"),
        ],
        ids=["amount-1e400", "bits-1e400", "max_entropy_bits-long", "count-long", "amount-long",
             "bits-long", "cost_amount-long", "bins-1e400"],
    )
    def test_overflowing_number(self, fixture, mutate, literal, command, message, tmp_path, capsys):
        """A literal that ``json`` reads as inf (1e400), or an integer too large
        for a float, where the program needs a finite float."""
        data = json.loads(emit_spec(load_fixture(fixture).spec))
        mutate(data)
        text = json.dumps(data).replace(str(PLACEHOLDER), literal)
        assert literal in text
        assert self.run(tmp_path, capsys, text, command) == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["validate"], ["analyze"], ["optimize"], ["report", "--format", "dot"], ["report", "--format", "csv"],
])
def test_unscored_edge(command, tmp_path, capsys):
    """An edge with no reconstruction, whose transform is not a declared
    step, has no D_KL: every command rejects it when it reads the spec."""
    path = tmp_path / "unscored.json"
    path.write_text(overview_with(lambda d: d["graph"]["edges"][0].pop("reconstruction")))
    assert main(command + [str(path)]) == 1
    assert capsys.readouterr() == ("", "error: unscored edge: overview at graph.edges[0]\n")


@pytest.mark.parametrize("command", [["validate"], ["analyze"], ["optimize", "--budget", "16"]])
@pytest.mark.parametrize("model", [{"kind": "energy", "unit": "J"}, {"kind": "time", "unit": "s"}],
                         ids=["kind", "unit"])
def test_cost_outside_the_cost_model(model, command, tmp_path, capsys):
    """A budget is read in the cost model's kind and unit, so a transform
    cost in another kind or unit is rejected."""
    data = json.loads(emit_spec(fixture_share_price(3)))
    data["cost_model"] = model
    path = tmp_path / "costs.json"
    path.write_text(json.dumps(data))
    assert main(command + [str(path)]) == 1
    assert capsys.readouterr() == ("", (
        f"error: cost in time/min, but the cost_model is {model['kind']}/{model['unit']}"
        " at transforms[0].cost\n"
    ))


@pytest.mark.parametrize("command", [
    ["validate"], ["analyze"], ["report", "--format", "csv"], ["report", "--format", "dot"],
])
def test_costs_in_two_units_without_a_cost_model(command, tmp_path, capsys):
    """With no cost model, every transform cost is in the first one's kind
    and unit, so a spec that validates can also be analyzed and reported."""
    def mutate(d):
        del d["cost_model"]
        d["transforms"][1]["cost"]["unit"] = "s"

    path = tmp_path / "units.json"
    path.write_text(overview_with(mutate))
    assert main(command + [str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: cost in time/s, but transforms[0].cost is time/min at transforms[1].cost\n")


class TestOneProcess:
    def run(self, argv, fresh):
        if fresh:
            cli._parser.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def test_parser_reused_across_commands(self, spec_file, tunable_file):
        commands = [
            ["analyze", spec_file],
            ["report", "--format", "csv", spec_file],
            ["optimize", tunable_file],
            ["report", spec_file],  # usage error: --format is required
            ["analyze", "--json", spec_file],
        ]
        expected = [self.run(argv, fresh=True) for argv in commands]
        assert expected[3][0] == 2
        parser = cli._parser()
        assert [self.run(argv, fresh=False) for argv in commands] == expected
        assert cli._parser() is parser

    def test_analyze_builds_one_graph(self, spec_file, monkeypatch, capsys):
        from cbr.workflow import WorkflowGraph

        built = []
        init = WorkflowGraph.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(WorkflowGraph, "__init__", counted)
        assert main(["analyze", "--json", spec_file]) == 0
        assert len(built) == 1


class TestReport:
    def test_dot(self, spec_file, capsys):
        assert main(["report", spec_file, "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph workflow {")

    def test_csv(self, spec_file, capsys):
        assert main(["report", spec_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "step,acr,pdr,ecr,benefit_bits,cost,incremental_cbr"
        assert len(lines) == 7


# each edge metric path that the CLI shows, and its per-edge column there
EDGE_COLUMNS = {"acr": "acr", "pdr": "pdr", "ecr": "ecr", "benefit": "benefit_bits",
                "cost": "cost", "cbr": "incremental_cbr"}
CLEAN_DOCS = {  # the documents whose edges all have defined ratios
    **{name: emit_spec(load_fixture(name).spec) for name in FIXTURE_NAMES
       if name != "share_price_chain"},
    "enum_fork_join": json.dumps(enum_fork_join()),
}


@pytest.mark.parametrize("mode", ENTROPY_MODES)
@pytest.mark.parametrize("name", CLEAN_DOCS)
def test_edge_metric_paths_equal_the_cli_columns(name, mode, tmp_path, capsys):
    """Every edge metric of the table, read through ``resolve_metric``,
    equals the ``analyze --json`` column of the same measure; H(in), H(out)
    and D_KL, which have no column, add up to the benefit column."""
    path = tmp_path / f"{name}.json"
    path.write_text(CLEAN_DOCS[name])
    assert main(["analyze", "--json", "--mode", mode, str(path)]) == 0
    per_edge = json.loads(capsys.readouterr().out)["per_edge"]
    graph = parse_spec(CLEAN_DOCS[name]).build_graph()
    edge_metrics = {metric for scope, metric in METRICS if scope == "edge"}
    assert edge_metrics == {*EDGE_COLUMNS, "h_in", "h_out", "d_kl"}
    for edge, columns in per_edge.items():
        read = {m: resolve_metric(graph, f"edge:{edge}:{m}", mode) for m in edge_metrics}
        for metric, column in EDGE_COLUMNS.items():
            assert read[metric] == columns[column], (edge, metric)
        assert read["h_in"] - read["h_out"] - read["d_kl"] == columns["benefit_bits"]


class TestFixtures:
    def test_all_pass(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "fixture share_price_chain:" in out

    def test_single_fixture(self, capsys):
        assert main(["fixtures", "--name", "plot_vs_binary"]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_unknown_fixture(self, capsys):
        assert main(["fixtures", "--name", "nonesuch"]) == 2
        assert "unknown fixture" in capsys.readouterr().err

    def test_name_is_not_a_path(self, capsys):
        assert main(["fixtures", "--name", "../fixtures/share_price_chain"]) == 2
        assert capsys.readouterr() == ("", "unknown fixture: ../fixtures/share_price_chain\n")

    def test_empty_name(self, capsys):
        assert main(["fixtures", "--name", ""]) == 2
        assert capsys.readouterr() == ("", "unknown fixture: \n")
