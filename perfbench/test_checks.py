"""Tests of the benchmark's own output checks.

Each check accepts what cbr computes today and rejects a slightly wrong
output. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import contextlib
import copy
import dataclasses
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from cbr import cli  # noqa: E402
from cbr.optimize import Dimension, ParamSpace, exhaustive_search  # noqa: E402
from cbr.specio import FIXTURE_NAMES, emit_spec, fixture_share_price, load_fixture  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def enum_case():
    text, expected = gen.enum_workflow(7, 256)
    return expected, workloads.EnumAnalyze.observed(workloads.EnumAnalyze.analyse(text))


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "overview.json"
    path.write_text(emit_spec(load_fixture("overview_interaction").spec))
    return str(path)


# -- enumerated workflows ----------------------------------------------------


def test_enum_accepts_cbr(enum_case):
    checks.check_enum(*enum_case)


@pytest.mark.parametrize("edge", ["pair", "bin", "coarse_g", "coarse_q"])
def test_enum_rejects_benefit_off_by_1e6(enum_case, edge):
    expected, observed = copy.deepcopy(enum_case)
    observed["benefit"][edge] += 1e-6
    with pytest.raises(CheckFailed, match=f"{edge} benefit"):
        checks.check_enum(expected, observed)


def test_enum_rejects_grouping_residual_1e8(enum_case):
    expected, observed = copy.deepcopy(enum_case)
    observed["residual"]["pair"] = 1e-8
    with pytest.raises(CheckFailed, match="grouping residual"):
        checks.check_enum(expected, observed)


@pytest.mark.parametrize(
    "field, key",
    [("pdr", "bin"), ("entropy", "G"), ("mc_benefit", "coarse_q")],
)
def test_enum_rejects_other_perturbations(enum_case, field, key):
    expected, observed = copy.deepcopy(enum_case)
    observed[field][key] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_enum(expected, observed)


def test_enum_rejects_wrong_joint_rule(enum_case):
    expected, observed = copy.deepcopy(enum_case)
    lo, hi = observed["total_benefit"]
    observed["total_benefit"] = (hi, hi)  # a machine-style point value
    with pytest.raises(CheckFailed, match="joint benefit lo"):
        checks.check_enum(expected, observed)


# -- command-line outputs ----------------------------------------------------


def test_analyze_json_accepts_and_rejects_benefit_off_by_1e6(fixture_file):
    rc, out, _ = run_cli(["analyze", "--json", fixture_file])
    payload = json.loads(out)
    checks.check_analyze_json(payload)
    payload["per_edge"]["overview"]["benefit_bits"] += 1e-6
    with pytest.raises(CheckFailed, match="overview cbr"):
        checks.check_analyze_json(payload)


def test_report_csv_accepts_and_rejects_missing_row(fixture_file):
    payload = json.loads(run_cli(["analyze", "--json", fixture_file])[1])
    rc, csv_text, _ = run_cli(["report", "--format", "csv", fixture_file])
    assert rc == 0
    checks.check_report_csv(csv_text, payload)
    lines = csv_text.strip().splitlines()
    with pytest.raises(CheckFailed, match="do not match edges"):
        checks.check_report_csv("\n".join(lines[:-1]) + "\n", payload)
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    with pytest.raises(CheckFailed, match="report csv"):
        checks.check_report_csv("\n".join([lines[0], ",".join(fields), *lines[2:]]), payload)


def test_validate_check(fixture_file):
    rc, out, _ = run_cli(["validate", fixture_file])
    checks.check_validate(rc, out, fixture_file)
    with pytest.raises(CheckFailed):
        checks.check_validate(1, out, fixture_file)


def test_fixtures_check_rejects_a_failing_row():
    rc, out, _ = run_cli(["fixtures"])
    checks.check_fixtures(rc, out, len(FIXTURE_NAMES))
    with pytest.raises(CheckFailed):
        checks.check_fixtures(rc, out.replace("[ok]", "[FAIL]", 1), len(FIXTURE_NAMES))


def test_known_failure_is_the_zero_entropy_error(tmp_path):
    path = tmp_path / "share.json"
    path.write_text(emit_spec(load_fixture("share_price_chain").spec))
    rc, _, err = run_cli(["analyze", "--json", str(path)])
    checks.check_known_failure(rc, err)
    with pytest.raises(CheckFailed):
        checks.check_known_failure(1, "error: something else")


def test_rotation_counts_known_failures_until_mended(tmp_path):
    w = workloads.SpecWarm(5, str(tmp_path))  # set-up checks one whole round
    outputs = {entry: op() for entry, op in w.ops}
    assert len(outputs) == 3 * len(FIXTURE_NAMES) + 2
    assert w.check_round(outputs) == 2
    # a mended fault is checked like any other entry and no longer counted
    for cmd in ("analyze", "report"):
        outputs[(cmd, "share_price_chain")] = outputs[(cmd, "overview_interaction")]
    assert w.check_round(outputs) == 0
    outputs[("report", "share_price_chain")] = (1, "", "error: something else")
    with pytest.raises(CheckFailed, match="expected the zero-entropy error"):
        w.check_round(outputs)


# -- optimizer -----------------------------------------------------------------


DIMS = [
    ("transform:aggregate", "cost_amount", (0.5, 2.0, 3.0)),
    ("transform:correlate", "cost_amount", (1.5, 4.0)),
    ("transform:plot", "bins", (64, 128)),
]


@pytest.fixture(scope="module")
def optimized():
    spec = fixture_share_price(3)
    space = ParamSpace(tuple(Dimension(t, f, v) for t, f, v in DIMS))
    result = exhaustive_search(spec.build_graph(), space, entropy_mode="maximal")
    return result, workloads.base_costs(spec.data)


def test_optimize_accepts_cbr(optimized):
    result, base = optimized
    checks.check_optimize(result, 3, base, DIMS)


def test_optimize_rejects_best_that_is_not_minimum_cost(optimized):
    result, base = optimized
    dearer = dict(result.best_assignment)
    dearer[("transform:aggregate", "cost_amount")] = 3.0
    wrong = dataclasses.replace(
        result, best_assignment=dearer, best_cost=checks.assignment_cost(base, dearer)
    )
    with pytest.raises(CheckFailed, match="best assignment cost"):
        checks.check_optimize(wrong, 3, base, DIMS)


def test_optimize_rejects_wrong_count(optimized):
    result, base = optimized
    with pytest.raises(CheckFailed, match="evaluations"):
        checks.check_optimize(dataclasses.replace(result, evaluations=11), 3, base, DIMS)


def test_frontier_rejects_dominated_and_unordered_points():
    points = [(1.0, 5.0), (2.0, 6.0), (3.0, 6.5), (2.5, 7.0)]
    checks.check_frontier([(1.0, 5.0), (2.0, 6.0), (2.5, 7.0)], points)
    with pytest.raises(CheckFailed, match="dominated"):
        checks.check_frontier([(3.0, 6.5)], points)
    with pytest.raises(CheckFailed, match="ascending"):
        checks.check_frontier([(2.0, 6.0), (1.0, 5.0)], points)


def test_optimize_cli_output(tmp_path):
    data = fixture_share_price(3).data
    data["param_space"] = {"dimensions": [{"target": t, "field": f, "values": list(v)} for t, f, v in DIMS]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    rc, out, _ = run_cli(["optimize", str(path)])
    base = workloads.base_costs(data)
    checks.check_optimize_cli(rc, out, 3, base, DIMS)
    with pytest.raises(CheckFailed, match="best cost"):
        checks.check_optimize_cli(rc, out.replace("best cost: ", "best cost: 1"), 3, base, DIMS)


def test_share_price_closed_form_matches_fixture_entropies():
    # 23040r - r log2 3 .. 24960r - 2 r log2 3, independent of the plot bins
    lo, hi = checks.share_price_benefit(2, 64)
    assert lo == pytest.approx(2 * 23040 - 2 * 1.584962500721156)
    assert hi == pytest.approx(2 * 24960 - 4 * 1.584962500721156)
    assert checks.share_price_benefit(2, 128) == pytest.approx((lo, hi))
