"""The traced run: per-layer metrics, spans and tracing overhead.

Layers are the ``cbr`` modules, plus imports. Nothing under ``src/`` is
changed: spans come from wrappers that this file installs, for the length
of the traced operations only, around the public functions of each
module, under that name in every ``cbr`` module that imports it (so
``pushforward`` is traced inside ``WorkflowGraph.__init__`` and
``distortion_bits`` inside ``analyze``).

A traced run
1. sets the workload up and runs each of its operations twice in a row,
   untraced and then with the wrappers installed (at least six pairs);
   traced operations record a span (name, start, end, parent) per
   wrapped call, and the spans and each span name's self time are written
   to ``out/trace-<workload>-<seed>.jsonl``;
2. times calls into each module directly from this file, wrappers off,
   at fixed sizes, and counts wrapped calls per command on fixed inputs.
The median over the pairs of traced minus untraced time in step 1 is
the tracing overhead. Step 2 is the same for every workload; its counts repeat
exactly between runs.
"""

import contextlib
import functools
import importlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import checks
import gen
import workloads

SIZES = (256, 1024, 4096, 16384)  # source letters n; k = n/2 groups
MI_MAX = 4096  # the dense n x k joint is 1 GiB at n = 16384, so the MI sweep stops here
FIXTURE = "overview_interaction"  # the bundled fixture timed layer by layer
IMPORT_SAMPLES = 5

# (module, attribute, span name); "Class.method" attributes patch the class.
INSTRUMENTED = [
    ("cbr.cli", "main", "cli.main"),
    ("jsonschema", "validate", "specio.schema"),
    ("cbr.specio", "parse_spec", "specio.parse_spec"),
    ("cbr.specio", "WorkflowSpec.alphabets", "specio.alphabets"),
    ("cbr.specio", "WorkflowSpec.transforms", "specio.transforms"),
    ("cbr.specio", "WorkflowSpec.build_graph", "specio.build_graph"),
    ("cbr.specio", "load_fixture", "specio.load_fixture"),
    ("cbr.specio", "check_fixture", "specio.check_fixture"),
    ("cbr.workflow", "WorkflowGraph.__init__", "workflow.graph_init"),
    ("cbr.workflow", "WorkflowGraph.edge_metrics", "workflow.edge_metrics"),
    ("cbr.workflow", "WorkflowGraph.total_benefit", "workflow.total_benefit"),
    ("cbr.workflow", "WorkflowGraph.analyze", "workflow.analyze"),
    ("cbr.optimize", "exhaustive_search", "optimize.exhaustive_search"),
    ("cbr.optimize", "apply_assignment", "optimize.apply_assignment"),
    ("cbr.optimize", "evaluate", "optimize.evaluate"),
    ("cbr.transform", "pushforward", "transform.pushforward"),
    ("cbr.transform", "deterministic_map", "transform.deterministic_map"),
    ("cbr.transform", "mutual_information", "transform.mutual_information"),
    ("cbr.reconstruction", "impression", "reconstruction.impression"),
    ("cbr.reconstruction", "kl_divergence", "reconstruction.kl_divergence"),
    ("cbr.reconstruction", "distortion_bits", "reconstruction.distortion_bits"),
    ("cbr.metrics", "step_metrics", "metrics.step_metrics"),
    ("cbr.metrics", "grouping_check", "metrics.grouping_check"),
    ("cbr.alphabet", "enumerated", "alphabet.enumerated"),
    ("cbr._kernels", "entropy_bits", "kernels.entropy_bits"),
    ("cbr._kernels", "kl_bits", "kernels.kl_bits"),
    ("cbr._kernels", "mi_bits", "kernels.mi_bits"),
]


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter_ns()

        return traced

    def counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def self_times_ms(self) -> dict:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - covered) / 1e6
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": extra, "self_ms": self.self_times_ms(),
                                 "calls": self.counts()}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers of ``INSTRUMENTED``; restore the originals on exit."""
    patches = []
    for modname, attr, span in INSTRUMENTED:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            owners = [owner]
            attr = meth
        else:
            original = getattr(module, attr)
            owners = [module] + [
                m for n, m in list(sys.modules.items())
                if n.startswith("cbr") and m is not module and getattr(m, attr, None) is original
            ]
        wrapper = tracer.wrap(span, original)
        for owner in owners:
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _ms(fn):
    return per_call(fn) * 1e3, "ms"


def _us(fn):
    return per_call(fn) * 1e6, "us"


def per_call(fn, repeats: int = 5) -> float:
    """Median seconds per call over ``repeats`` batches, each one call or
    enough calls to last about 20 ms."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    if once > 0.5:
        repeats = 3
    number = max(1, int(0.02 / max(once, 1e-7)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


# -- the per-layer measurements ------------------------------------------------


def import_metrics(src: str) -> dict:
    """Median over fresh processes: wall time of ``import cbr.cli`` and the
    cumulative ``-X importtime`` of numpy, networkx and jsonschema."""
    code = "import time; t = time.perf_counter(); import cbr.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=src)
    samples = {"cbr_cli": [], "numpy": [], "networkx": [], "jsonschema": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        samples["cbr_cli"].append(float(proc.stdout) * 1e3)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e3)
    return {f"import.{k}_ms": (statistics.median(v), "ms") for k, v in samples.items()}


def _cli_call(main, argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    return call


def cli_metrics(paths: dict) -> dict:
    from cbr.cli import main

    commands = {
        "validate": ["validate", paths[FIXTURE]],
        "analyze": ["analyze", "--json", paths[FIXTURE]],
        "report": ["report", "--format", "csv", paths[FIXTURE]],
        "optimize": ["optimize", paths["optimize"]],
        "fixtures": ["fixtures"],
    }
    out = {f"cli.main_ms.{c}": _ms(_cli_call(main, argv)) for c, argv in commands.items()}
    for c, argv in commands.items():
        with instrumented(Tracer()) as tracer:
            _cli_call(main, argv)()
        out[f"specio.build_graph_calls.{c}"] = (tracer.counts()["specio.build_graph"], "count")
    return out


def spec_metrics(text: str, suffix: str) -> dict:
    """specio and workflow layers on one spec text."""
    import jsonschema
    from cbr.specio import SCHEMA, WorkflowSpec, parse_spec
    from cbr.workflow import WorkflowGraph

    data = json.loads(text)
    spec = WorkflowSpec(data)
    graph = spec.build_graph()
    calls = {
        "specio.json_load_ms": lambda: json.loads(text),
        "specio.schema_ms": lambda: jsonschema.validate(data, SCHEMA),
        "specio.alphabets_ms": spec.alphabets,
        "specio.transforms_ms": spec.transforms,
        "specio.build_graph_ms": spec.build_graph,
        "specio.parse_spec_ms": lambda: parse_spec(text),
        "workflow.graph_init_ms": lambda: WorkflowGraph(graph.nodes, graph.edges, decisional=graph.decisional),
        "workflow.edge_metrics_ms": graph.edge_metrics,
        "workflow.total_benefit_ms": graph.total_benefit,
        "workflow.analyze_ms": graph.analyze,
    }
    return {name + suffix: _ms(fn) for name, fn in calls.items()}


def fixture_metrics() -> dict:
    from cbr.specio import FIXTURE_NAMES, check_fixture, load_fixture

    fixtures = [load_fixture(n) for n in FIXTURE_NAMES]
    return {
        "specio.load_fixture_ms": _ms(lambda: [load_fixture(n) for n in FIXTURE_NAMES]),
        "specio.check_fixture_ms": _ms(lambda: [check_fixture(f) for f in fixtures]),
    }


def optimizer_metrics(seed: int) -> dict:
    from cbr.optimize import Dimension, ParamSpace, apply_assignment, evaluate, exhaustive_search
    from cbr.specio import fixture_share_price
    from cbr.workflow import WorkflowGraph

    graph = fixture_share_price(workloads.SHARE_PRICE_R).build_graph()
    space = ParamSpace(tuple(Dimension(t, f, v) for t, f, v in workloads.sweep_dims(seed)))
    assignment = next(space.assignments())
    applied = apply_assignment(graph, assignment)
    result = exhaustive_search(graph, space, entropy_mode="maximal")
    return {
        "workflow.graph_init_us.share_price": _us(
            lambda: WorkflowGraph(graph.nodes, graph.edges, decisional=graph.decisional)),
        "workflow.total_benefit_us.share_price": _us(lambda: graph.total_benefit("maximal")),
        "optimize.apply_assignment_us": _us(lambda: apply_assignment(graph, assignment)),
        "optimize.evaluate_us": _us(lambda: evaluate(applied, "maximal")),
        "optimize.evaluations": (result.evaluations, "count"),
        "optimize.records": (len(result.records), "count"),
    }


def sweep_metrics(seed: int) -> dict:
    """Per-letter primitives on a pairwise grouping (k = n/2) at each size."""
    from cbr import _kernels
    from cbr.alphabet import Pmf, enumerated
    from cbr.metrics import grouping_check, step_metrics
    from cbr.reconstruction import (PriorWeighted, Reconstruction, UniformPreimage, impression,
                                    kl_divergence)
    from cbr.transform import CostRecord, Grouping, Transform, deterministic_map, mutual_information, pushforward

    rng = np.random.default_rng(seed)
    out = {}
    for n in (2, 4, 16):
        probs = dict(zip(map(str, range(n)), (rng.random(n) + 0.05).tolist()))
        total = math.fsum(probs.values())
        probs = {k: v / total for k, v in probs.items()}
        out[f"alphabet.pmf_us.n{n}"] = _us(lambda: Pmf(probs))
    for n in SIZES:
        tag = f"n{n}"
        ids = [str(i) for i in range(n)]
        p = rng.random(n) + 0.05
        p /= p.sum()
        q = rng.random(n) + 0.05
        q /= q.sum()
        probs = dict(zip(ids, p.tolist()))
        x = enumerated("X", probs)
        pair = Transform("pair", Grouping({s: f"g{i // 2}" for i, s in enumerate(ids)}), CostRecord("time", 1.0, "s"))
        y = pushforward(pair, x)
        uniform = Reconstruction("uniform", UniformPreimage())
        prior = Reconstruction("prior", PriorWeighted(Pmf(dict(zip(ids, q.tolist())))))
        imp = impression(uniform, pair, x)
        out[f"alphabet.enumerated_ms.{tag}"] = _ms(lambda: enumerated("X", probs))
        out[f"transform.pushforward_ms.{tag}"] = _ms(lambda: pushforward(pair, x))
        out[f"transform.deterministic_map_ms.{tag}"] = _ms(lambda: deterministic_map(pair, x))
        if n <= MI_MAX:
            out[f"transform.mutual_information_ms.{tag}"] = _ms(lambda: mutual_information(pair, x))
        out[f"transform.joint_mb.{tag}"] = (n * (n // 2) * 8 / 2**20, "MB")
        out[f"reconstruction.impression_ms.uniform.{tag}"] = _ms(lambda: impression(uniform, pair, x))
        out[f"reconstruction.impression_ms.prior.{tag}"] = _ms(lambda: impression(prior, pair, x))
        out[f"reconstruction.kl_divergence_ms.{tag}"] = _ms(lambda: kl_divergence(imp.pmf, x.model.pmf))
        out[f"metrics.step_metrics_ms.{tag}"] = _ms(lambda: step_metrics(pair, uniform, x, y))
        out[f"metrics.grouping_check_ms.{tag}"] = _ms(lambda: grouping_check(x, pair))
        out[f"kernels.entropy_us.{tag}"] = _us(lambda: _kernels.entropy_bits(p))
        out[f"kernels.kl_us.{tag}"] = _us(lambda: _kernels.kl_bits(p, q))
    return out


def count_metrics(seed: int) -> dict:
    """Calls per enum_analyze operation and per ``analyze``, on a small
    workflow of the same shape (the counts do not depend on its size)."""
    from cbr.specio import parse_spec

    text, _ = gen.enum_workflow(seed, 256)
    with instrumented(Tracer()) as tracer:
        workloads.EnumAnalyze.analyse(text)
    graph = parse_spec(text).build_graph()
    with instrumented(Tracer()) as per_analyze:
        graph.analyze()
    return {
        "transform.pushforward_calls": (tracer.counts()["transform.pushforward"], "count"),
        "reconstruction.distortion_calls": (per_analyze.counts()["reconstruction.distortion_bits"], "count"),
    }


def layer_metrics(seed: int, src: str, workdir: str) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    rotation = workloads.Rotation(seed, workdir)
    enum_text, _ = gen.enum_workflow(seed)
    with open(rotation.paths[FIXTURE], encoding="utf-8") as fh:
        fixture_text = fh.read()
    out = import_metrics(src)
    out.update(cli_metrics(rotation.paths))
    out.update(spec_metrics(fixture_text, ""))
    out.update(spec_metrics(enum_text, ".enum"))
    out.update(fixture_metrics())
    out.update(optimizer_metrics(seed))
    out.update(sweep_metrics(seed))
    out.update(count_metrics(seed))
    return out


# -- the traced run ---------------------------------------------------------------


def _timed(op):
    t0 = time.perf_counter()
    out = op()
    return time.perf_counter() - t0, out


def traced(name: str, seed: int, workdir: str, out_dir: str, src: str) -> dict:
    w = workloads.WORKLOADS[name](seed, workdir)
    tracer = Tracer()
    plain, traced_durations, outputs = [], [], []
    # each operation runs untraced and then traced, so that the pair sees
    # the same machine; at least six pairs
    for _ in range(max(1, math.ceil(6 / len(w.ops)))):
        plain_out, traced_out = {}, {}
        for label, op in w.ops:
            d, plain_out[label] = _timed(op)
            plain.append(d)
            with instrumented(tracer):
                d, traced_out[label] = _timed(tracer.wrap(f"{name}.op", op))
            traced_durations.append(d)
        outputs += [plain_out, traced_out]
    try:
        failed = sum(w.check_round(o) for o in outputs)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    summary = {"workload": name, "seed": seed, "traced_op_p50_ms": statistics.median(traced_durations) * 1e3,
               "untraced_op_p50_ms": statistics.median(plain) * 1e3}
    summary["overhead_ms"] = statistics.median(t - p for t, p in zip(traced_durations, plain)) * 1e3
    summary["overhead_pct"] = 100 * summary["overhead_ms"] / summary["untraced_op_p50_ms"]
    path = os.path.join(out_dir, f"trace-{name}-{seed}.jsonl")
    tracer.write(path, summary)
    print(f"{name}: traced {len(tracer.spans)} spans to {path}")
    print("  " + ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}" for k, v in summary.items()))
    for span, ms in sorted(tracer.self_times_ms().items(), key=lambda kv: -kv[1])[:12]:
        print(f"  self {span:<34} {ms:12.3f} ms")

    metrics = layer_metrics(seed, src, workdir)
    for key, (value, unit) in metrics.items():
        note = "  (computed n*k*8 bytes, not measured)" if ".joint_mb." in key else ""
        print(f"  {key:<44} {value:14.4f} {unit}{note}")
    return {
        "correct": True,
        "attempted": len(plain) + len(traced_durations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
