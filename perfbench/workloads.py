"""The three benchmark workloads.

A workload is built from a seed and a scratch directory, runs untimed
warm-up operations, and then offers ``ops``: one round of (label, thunk)
pairs, the same every round. ``check_round`` checks a round's outputs after
the round (outside the timed region) and returns how many operations failed
with the known fault; any other wrong output raises ``CheckFailed``.
"""

import contextlib
import io
import json
import os
import random

import numpy as np

import checks
import gen
from checks import CheckFailed

SHARE_PRICE_R = 3
# (command, fixture) pairs that fail every time today: the zero-entropy
# ``Z3c`` branch of share_price_chain at r = 1 (see CHANGES.md).
KNOWN_FAILURES = {("analyze", "share_price_chain"), ("report", "share_price_chain")}


def _cost_values(rng, count: int) -> tuple:
    """``count`` distinct positive cost amounts, two decimals."""
    values = set()
    while len(values) < count:
        values.add(round(float(rng.uniform(0.5, 8.0)), 2))
    return tuple(sorted(values))


def base_costs(data: dict) -> dict:
    return {t["name"]: float(t["cost"]["amount"]) for t in data["transforms"]}


class Rotation:
    """The command rotation of ``spec_warm``.

    ``validate``, ``analyze --json`` and ``report --format csv`` on each
    bundled fixture, ``optimize`` on the share-price r=3 spec with a small
    seeded parameter space, and ``fixtures``; shuffled by the seed.
    """

    def __init__(self, seed: int, workdir: str):
        from cbr.specio import FIXTURE_NAMES, emit_spec, fixture_share_price, load_fixture

        rng = np.random.default_rng(seed)
        self.fixture_count = len(FIXTURE_NAMES)
        self.paths = {}
        for name in FIXTURE_NAMES:
            self.paths[name] = self._write(workdir, name, emit_spec(load_fixture(name).spec))
        data = fixture_share_price(SHARE_PRICE_R).data
        self.opt_base = base_costs(data)
        self.opt_dims = [
            ("transform:aggregate", "cost_amount", _cost_values(rng, 3)),
            ("transform:recognize", "cost_amount", _cost_values(rng, 3)),
            ("transform:plot", "bins", (64, 128)),
        ]
        data["param_space"] = {
            "dimensions": [{"target": t, "field": f, "values": list(v)} for t, f, v in self.opt_dims]
        }
        self.paths["optimize"] = self._write(workdir, "share_price_r3_space", json.dumps(data))
        entries = [("fixtures",), ("optimize", "optimize")]
        for name in FIXTURE_NAMES:
            entries += [("validate", name), ("analyze", name), ("report", name)]
        random.Random(seed).shuffle(entries)
        self.entries = entries

    @staticmethod
    def _write(workdir, name, text):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def argv(self, entry) -> list:
        cmd = entry[0]
        if cmd == "fixtures":
            return ["fixtures"]
        path = self.paths[entry[1]]
        return {
            "validate": ["validate", path],
            "analyze": ["analyze", "--json", path],
            "report": ["report", "--format", "csv", path],
            "optimize": ["optimize", path],
        }[cmd]

    def check_round(self, outputs: dict) -> int:
        """Check one round; a known failure that no longer fails is checked
        like any other entry."""
        known = {e for e, (rc, _, _) in outputs.items() if e in KNOWN_FAILURES and rc != 0}
        for entry in known:
            checks.check_known_failure(outputs[entry][0], outputs[entry][2])
        reports = {}
        for entry, (rc, out, err) in outputs.items():
            if entry[0] == "analyze" and entry not in known:
                if rc != 0:
                    raise CheckFailed(f"analyze {entry[1]}: exit {rc}: {err.strip()[:80]!r}")
                reports[entry[1]] = json.loads(out)
        for entry, (rc, out, err) in outputs.items():
            cmd = entry[0]
            if entry in known:
                continue
            if cmd in ("analyze", "report") and entry[1] not in reports:
                raise CheckFailed(f"{cmd} {entry[1]}: no successful analyze to compare with")
            if cmd == "validate":
                checks.check_validate(rc, out, self.paths[entry[1]])
            elif cmd == "analyze":
                checks.check_analyze_json(reports[entry[1]])
            elif cmd == "report":
                if rc != 0:
                    raise CheckFailed(f"report {entry[1]}: exit {rc}: {err.strip()[:80]!r}")
                checks.check_report_csv(out, reports[entry[1]])
            elif cmd == "optimize":
                checks.check_optimize_cli(rc, out, SHARE_PRICE_R, self.opt_base, self.opt_dims)
            else:
                checks.check_fixtures(rc, out, self.fixture_count)
        return len(known)


class SpecWarm:
    """The rotation as in-process ``cbr.cli.main(argv)`` calls."""

    name = "spec_warm"

    def __init__(self, seed: int, workdir: str):
        from cbr import cli

        self.cli = cli  # looked up per call, so a traced run sees its wrapper
        self.rotation = Rotation(seed, workdir)
        self.ops = [(e, self._thunk(e)) for e in self.rotation.entries]
        self.check_round({e: op() for e, op in self.ops})  # warm-up round

    def _thunk(self, entry):
        argv = self.rotation.argv(entry)

        def op():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        return op

    def check_round(self, outputs):
        return self.rotation.check_round(outputs)


class EnumAnalyze:
    """Each operation analyses one generated enumerated workflow end to end."""

    name = "enum_analyze"
    POOL = 3  # distinct workflows per run, analysed in turn

    def __init__(self, seed: int, workdir: str):
        self.inputs = [gen.enum_workflow(seed * self.POOL + i) for i in range(self.POOL)]
        self.ops = [(i, self._thunk(text)) for i, (text, _) in enumerate(self.inputs)]
        self.check_round({0: self.ops[0][1]()})  # warm-up

    @staticmethod
    def analyse(text: str):
        from cbr.metrics import step_metrics, grouping_check
        from cbr.specio import parse_spec
        from cbr.transform import Grouping

        graph = parse_spec(text).build_graph()
        report = graph.analyze()
        mc = {
            e.transform.name: step_metrics(
                e.transform, None, graph.nodes[e.src], graph.nodes[e.dst], machine_centric=True
            )
            for e in graph.edges
        }
        residual = {
            e.transform.name: grouping_check(graph.nodes[e.src], e.transform)
            for e in graph.edges
            if isinstance(e.transform.kind, Grouping)
        }
        return graph, report, mc, residual

    def _thunk(self, text):
        return lambda: self.analyse(text)

    @staticmethod
    def observed(result) -> dict:
        """cbr's numbers for ``checks.check_enum``."""
        from cbr.alphabet import entropy

        graph, report, mc, residual = result
        o = report.overall
        return {
            "entropy": {n: entropy(a) for n, a in graph.nodes.items()},
            "benefit": {k: m.benefit_bits for k, m in report.per_edge.items()},
            "pdr": {k: m.pdr for k, m in report.per_edge.items()},
            "mc_benefit": {k: m.benefit_bits for k, m in mc.items()},
            "residual": residual,
            "total_benefit": (o.total_benefit_bits.lo, o.total_benefit_bits.hi),
            "overall_cbr": (o.overall_cbr.lo, o.overall_cbr.hi),
        }

    def check_round(self, outputs):
        for i, result in outputs.items():
            checks.check_enum(self.inputs[i][1], self.observed(result))
        return 0


SWEPT = ("aggregate", "plot", "recognize", "correlate")


def sweep_dims(seed: int) -> list:
    """``cost_amount`` on four transforms (4 values each) and ``bins`` on plot."""
    rng = np.random.default_rng(seed)
    dims = [(f"transform:{t}", "cost_amount", _cost_values(rng, 4)) for t in SWEPT]
    return dims + [("transform:plot", "bins", (64, 128))]


class OptimizeSweep:
    """Each operation is one ``exhaustive_search`` on the share-price r=3 graph."""

    name = "optimize_sweep"

    def __init__(self, seed: int, workdir: str):
        from cbr.optimize import Dimension, ParamSpace
        from cbr.specio import fixture_share_price

        spec = fixture_share_price(SHARE_PRICE_R)
        self.graph = spec.build_graph()
        self.base = base_costs(spec.data)
        self.dims = sweep_dims(seed)
        self.space = ParamSpace(tuple(Dimension(t, f, v) for t, f, v in self.dims))
        self.ops = [(0, self.search)]
        self.check_round({0: self.search()})  # warm-up

    def search(self):
        from cbr.optimize import exhaustive_search

        return exhaustive_search(self.graph, self.space, entropy_mode="maximal")

    def check_round(self, outputs):
        for result in outputs.values():
            checks.check_optimize(result, SHARE_PRICE_R, self.base, self.dims)
        return 0


WORKLOADS = {w.name: w for w in (SpecWarm, EnumAnalyze, OptimizeSweep)}
