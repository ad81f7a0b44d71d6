"""Output checks for every benchmark operation.

Each check compares cbr's output with a value the benchmark computed apart
from cbr (see ``gen.py`` and ``share_price_benefit``), or with a property
the method must have. None compares with a stored copy of an earlier
output. A failed check raises ``CheckFailed``.
"""

import csv
import io
import math

TOL = 1e-9

CSV_HEADER = ["step", "acr", "pdr", "ecr", "benefit_bits", "cost", "incremental_cbr"]
ZERO_ENTROPY_ERROR = "error: transformation unnecessary: input entropy is zero"


class CheckFailed(Exception):
    """An operation's output disagrees with what the benchmark expects."""


def _close(observed, expected, what, tol=TOL, rel=False):
    scale = max(1.0, abs(expected)) if rel else 1.0
    if not (abs(observed - expected) <= tol * scale):
        raise CheckFailed(f"{what}: got {observed!r}, expected {expected!r} (tol {tol:g})")


def _interval(lo, hi, what):
    if not lo <= hi:
        raise CheckFailed(f"{what}: lo {lo!r} exceeds hi {hi!r}")


# -- command-line outputs ----------------------------------------------------


def check_validate(rc: int, out: str, path: str) -> None:
    if rc != 0 or out.strip() != f"{path}: valid":
        raise CheckFailed(f"validate {path}: exit {rc}, output {out.strip()[:80]!r}")


def check_analyze_json(payload: dict) -> None:
    """ECR = ACR + PDR and CBR = benefit/cost per edge; overall CBR = benefit/cost."""
    if not payload["per_edge"]:
        raise CheckFailed("analyze: no edges reported")
    for name, m in payload["per_edge"].items():
        _close(m["ecr"], m["acr"] + m["pdr"], f"{name} ecr", rel=True)
        _close(m["incremental_cbr"], m["benefit_bits"] / m["cost"], f"{name} cbr", rel=True)
    cost = payload["total_cost"]
    (blo, bhi), (clo, chi) = payload["total_benefit_bits"], payload["overall_cbr"]
    _interval(blo, bhi, "total benefit")
    _interval(clo, chi, "overall cbr")
    _close(clo, blo / cost, "overall cbr lo", rel=True)
    _close(chi, bhi / cost, "overall cbr hi", rel=True)


def check_report_csv(text: str, payload: dict) -> None:
    """One row per edge, each value equal to the JSON report's."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        raise CheckFailed(f"report csv: bad header {rows[:1]!r}")
    body = rows[1:]
    names = [r[0] for r in body]
    if sorted(names) != sorted(payload["per_edge"]) or len(set(names)) != len(names):
        raise CheckFailed(f"report csv: rows {names} do not match edges {sorted(payload['per_edge'])}")
    for row in body:
        m = payload["per_edge"][row[0]]
        want = [m["acr"], m["pdr"], m["ecr"], m["benefit_bits"], m["cost"], m["incremental_cbr"]]
        for col, got, exp in zip(CSV_HEADER[1:], row[1:], want):
            _close(float(got), exp, f"report csv {row[0]} {col}", tol=1e-12, rel=True)


def check_fixtures(rc: int, out: str, fixture_count: int) -> None:
    headers = [ln for ln in out.splitlines() if ln.startswith("fixture ")]
    rows = [ln.strip() for ln in out.splitlines() if ln.startswith("  [")]
    bad = [r for r in rows if not r.startswith("[ok]")]
    if rc != 0 or len(headers) != fixture_count or not rows or bad:
        raise CheckFailed(f"fixtures: exit {rc}, {len(headers)} fixtures, failing rows {bad[:2]}")


def check_known_failure(rc: int, err: str) -> None:
    """The zero-entropy ``Z3c`` fault on ``share_price_chain`` (r = 1)."""
    if rc != 1 or err.strip() != ZERO_ENTROPY_ERROR:
        raise CheckFailed(f"expected the zero-entropy error, got exit {rc}: {err.strip()[:80]!r}")


# -- share-price optimizer ---------------------------------------------------


def share_price_benefit(r: int, bins: int = 128) -> tuple:
    """Closed-form maximal-entropy benefit interval of ``fixture_share_price(r)``.

    Maximal entropies: 23040r, 1920r, 60r*min(7, log2 bins) (420r at 128
    bins, 360r at 64), 30r, 15r(r-1), log2(5)*pairs and r*log2(3). All
    distortions are 0; the two branches from the fork ``Z2`` meet at the
    human node ``Z5``, where the benefit lies between the larger branch
    and the sum of both.
    """
    pairs = r * (r - 1) // 2
    h1, h2 = 23040.0 * r, 1920.0 * r
    h3 = 60.0 * r * min(7.0, math.log2(bins))
    h4, h3c, h4c, h5 = 30.0 * r, 15.0 * r * (r - 1), math.log2(5) * pairs, r * math.log2(3)
    features = (h2 - h3) + (h3 - h4) + (h4 - h5)
    correlations = (h2 - h3c) + (h3c - h4c) + (h4c - h5)
    lo, hi = max(features, correlations), features + correlations
    return (h1 - h2) + min(lo, hi), (h1 - h2) + hi


def assignment_cost(base_costs: dict, assignment: dict) -> float:
    """Total cost of the workflow with the swept ``cost_amount`` values applied."""
    costs = dict(base_costs)
    for (target, field), value in assignment.items():
        if field == "cost_amount":
            costs[target.split(":", 1)[1]] = float(value)
    return math.fsum(costs.values())


def min_cost(base_costs: dict, dims: list) -> float:
    """Smallest total cost over a space of (target, field, values) dimensions."""
    best = {(t, f): min(v) for t, f, v in dims if f == "cost_amount"}
    return assignment_cost(base_costs, best)


def combinations(dims: list) -> int:
    return math.prod(len(v) for _, _, v in dims)


def check_optimize(result, r: int, base_costs: dict, dims: list) -> None:
    """Exhaustive search: count, certificate, minimum-cost best, sound frontier."""
    if result.evaluations != combinations(dims) or not result.certified:
        raise CheckFailed(
            f"optimize: {result.evaluations} evaluations (certified {result.certified}),"
            f" expected {combinations(dims)}"
        )
    cheapest = min_cost(base_costs, dims)
    _close(assignment_cost(base_costs, result.best_assignment), cheapest, "best assignment cost", rel=True)
    _close(result.best_cost, cheapest, "best cost", rel=True)
    bins = result.best_assignment.get(("transform:plot", "bins"), 128)
    lo, hi = share_price_benefit(r, bins)
    _close(result.best_cbr.lo, lo / cheapest, "best cbr lo", rel=True)
    _close(result.best_cbr.hi, hi / cheapest, "best cbr hi", rel=True)
    check_frontier(result.frontier, [(c, b.midpoint) for _, c, b, _ in result.records])


def check_frontier(frontier: list, points: list) -> None:
    """Cost strictly ascending, benefit strictly ascending, and no evaluated
    point dominates a frontier point."""
    if not frontier:
        raise CheckFailed("optimize: empty frontier")
    for (c0, b0), (c1, b1) in zip(frontier, frontier[1:]):
        if not (c0 < c1 and b0 < b1):
            raise CheckFailed(f"frontier not ascending: {(c0, b0)} then {(c1, b1)}")
    for c, b in frontier:
        for pc, pb in points:
            if pc <= c and pb >= b and (pc < c or pb > b):
                raise CheckFailed(f"frontier point {(c, b)} dominated by {(pc, pb)}")


def check_optimize_cli(rc: int, out: str, r: int, base_costs: dict, dims: list) -> None:
    """The text printed by ``cbr optimize`` (6 significant digits)."""
    if rc != 0:
        raise CheckFailed(f"optimize: exit {rc}")
    fields = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    if int(fields["evaluations"]) != combinations(dims) or fields["certified global optimum"] != "True":
        raise CheckFailed(f"optimize: {fields}")
    cheapest = min_cost(base_costs, dims)
    _close(float(fields["best cost"]), cheapest, "best cost", tol=1e-5, rel=True)
    lo, hi = (float(v) for v in fields["best CBR"].strip("[]").split(","))
    want_lo, want_hi = share_price_benefit(r)
    _close(lo, want_lo / cheapest, "best cbr lo", tol=1e-5, rel=True)
    _close(hi, want_hi / cheapest, "best cbr hi", tol=1e-5, rel=True)


# -- enumerated workflows ----------------------------------------------------


def check_enum(expected: dict, observed: dict) -> None:
    """One analysed enumerated workflow against the benchmark's own numbers.

    ``observed`` holds what cbr computed: node ``entropy``, per-edge
    ``benefit`` and ``pdr`` from ``analyze``, machine-centric benefit
    ``mc_benefit``, grouping ``residual``, and the joint's ``total_benefit``
    and ``overall_cbr`` intervals.
    """
    h, kl = expected["entropy"], expected["kl"]
    for node, want in h.items():
        _close(observed["entropy"][node], want, f"H({node})")
    benefit = {}
    for name, (src, dst) in expected["edges"].items():
        _close(observed["pdr"][name] * h[src], kl[name], f"{name} D_KL")
        benefit[name] = h[src] - h[dst] - kl[name]
        _close(observed["benefit"][name], benefit[name], f"{name} benefit")
        _close(observed["mc_benefit"][name], 0.0, f"{name} machine-centric benefit")
    for name in expected["groupings"]:
        if not observed["residual"][name] <= TOL:
            raise CheckFailed(f"{name} grouping residual {observed['residual'][name]!r}")
    a, b = (sum(benefit[e] for e in branch) for branch in expected["branches"])
    lo, hi = min(max(a, b), a + b), a + b
    blo, bhi = observed["total_benefit"]
    _interval(blo, bhi, "total benefit")
    _close(blo, lo, "joint benefit lo")
    _close(bhi, hi, "joint benefit hi")
    cost = math.fsum(expected["cost"].values())
    clo, chi = observed["overall_cbr"]
    _close(clo, lo / cost, "overall cbr lo")
    _close(chi, hi / cost, "overall cbr hi")
