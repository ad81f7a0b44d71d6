"""Command-line interface.

Exit codes: 0 success, 1 validation or analysis error, 2 usage error.
"""

import argparse
import functools
import json
import math
import sys

from . import optimize as opt
from .metrics import ENTROPY_MODES, METRICS
from .specio import (
    FIXTURE_NAMES,
    SpecError,
    check_fixture,
    load_fixture,
    parse_spec,
)
from .workflow import MERGES

# each per-edge field of ``analyze --json`` and ``report --format csv``, and
# the reader of the edge metric it shows
_EDGE_FIELDS = {
    field: METRICS["edge", metric]
    for field, metric in (("acr", "acr"), ("pdr", "pdr"), ("ecr", "ecr"),
                          ("benefit_bits", "benefit"), ("cost", "cost"), ("incremental_cbr", "cbr"))
}


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror}")
    return parse_spec(text)


def _cmd_validate(args) -> int:
    _load(args.file)
    print(f"{args.file}: valid")
    return 0


def _format_report(report) -> str:
    lines = [f"entropy mode: {report.entropy_mode}", ""]
    lines.append(
        f"{'step':<20} {'ACR':>10} {'PDR':>10} {'ECR':>10} {'benefit':>12} {'CBR':>10}"
    )
    for name, m in report.per_edge.items():
        lines.append(
            f"{name:<20} {m.acr:>10.4g} {m.pdr:>10.4g} {m.ecr:>10.4g}"
            f" {m.benefit_bits:>12.4g} {m.incremental_cbr:>10.4g}"
        )
    o = report.overall
    lines.append("")
    lines.append(f"total cost: {o.total_cost.amount:g} {o.total_cost.unit} ({o.total_cost.kind})")
    b = o.total_benefit_bits
    lines.append(f"total benefit: [{b.lo:.6g}, {b.hi:.6g}] bits")
    c = o.overall_cbr
    lines.append(f"overall CBR: [{c.lo:.6g}, {c.hi:.6g}]")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    spec = _load(args.file)
    graph = spec.build_graph()
    mode = args.mode or spec.entropy_mode
    report = graph.analyze(entropy_mode=mode, merge=args.merge)
    if args.json:
        o = report.overall
        payload = {
            "entropy_mode": report.entropy_mode,
            "per_edge": {
                name: {field: read(m) for field, read in _EDGE_FIELDS.items()}
                for name, m in report.per_edge.items()
            },
            "total_cost": o.total_cost.amount,
            "total_benefit_bits": [o.total_benefit_bits.lo, o.total_benefit_bits.hi],
            "overall_cbr": [o.overall_cbr.lo, o.overall_cbr.hi],
            "notes": report.notes,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(_format_report(report))
    return 0


def _cmd_optimize(args) -> int:
    spec = _load(args.file)
    graph = spec.build_graph()
    space = spec.param_space()
    if space is None:
        space = opt.ParamSpace(())
    if args.budget is not None:
        if not args.budget > 0:
            raise ValueError("cost must be positive: an action always has a cost")
        if not math.isfinite(args.budget):
            raise ValueError("cost must be finite")
    mode = spec.entropy_mode
    if args.greedy:
        result = opt.greedy_search(
            graph, space, budget=args.budget, restarts=args.restarts, entropy_mode=mode
        )
    else:
        result = opt.exhaustive_search(graph, space, budget=args.budget, entropy_mode=mode)
    if args.frontier:
        print(opt.frontier_csv(result), end="")
        return 0
    assignment = {
        f"{target}.{field}": value
        for (target, field), value in sorted(result.best_assignment.items())
    }
    print(f"evaluations: {result.evaluations}")
    if result.skipped:
        print(f"skipped: {result.skipped} (first: {result.first_skip})")
    print(f"certified global optimum: {result.certified}")
    print(f"best assignment: {json.dumps(assignment)}")
    print(f"best cost: {result.best_cost:g}")
    print(f"best CBR: [{result.best_cbr.lo:.6g}, {result.best_cbr.hi:.6g}]")
    return 0


def _cmd_report(args) -> int:
    spec = _load(args.file)
    graph = spec.build_graph()
    mode = spec.entropy_mode
    if args.format == "dot":
        print(graph.to_dot(entropy_mode=mode))
        return 0
    report = graph.analyze(entropy_mode=mode)
    # every row is formatted before the header is printed: an undefined
    # ratio on any edge prints nothing
    rows = [",".join([name, *(str(read(m)) for read in _EDGE_FIELDS.values())])
            for name, m in report.per_edge.items()]
    print("\n".join([",".join(["step", *_EDGE_FIELDS]), *rows]))
    return 0


def _cmd_fixtures(args) -> int:
    names = list(FIXTURE_NAMES) if args.name is None else [args.name]
    all_ok = True
    for name in names:
        try:
            fixture = load_fixture(name)
        except KeyError:
            print(f"unknown fixture: {name}", file=sys.stderr)
            return 2
        rows = check_fixture(fixture)
        print(f"fixture {name}:")
        for path, op, expected, computed, ok, provenance in rows:
            status = "ok" if ok else "FAIL"
            print(
                f"  [{status}] {path} {op} {expected:g}"
                f" (computed {computed:g}, {provenance})"
            )
            all_ok = all_ok and ok
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cbr",
        description="Cost-benefit analysis of data-analysis and visualization workflows",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a workflow spec file")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("analyze", help="compute per-step and overall metrics")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=ENTROPY_MODES, default=None)
    sp.add_argument("--merge", choices=MERGES, default="sum")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("optimize", help="search the declared parameter space")
    sp.add_argument("file")
    sp.add_argument("--budget", type=float, default=None)
    sp.add_argument("--greedy", action="store_true")
    sp.add_argument("--restarts", type=int, default=1)
    sp.add_argument("--frontier", action="store_true", help="emit the Pareto frontier as CSV")
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("report", help="export the annotated graph")
    sp.add_argument("file")
    sp.add_argument("--format", choices=["dot", "csv"], required=True)
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("fixtures", help="run built-in case-study fixtures")
    sp.add_argument("--name", default=None)
    sp.set_defaults(func=_cmd_fixtures)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a SpecError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
