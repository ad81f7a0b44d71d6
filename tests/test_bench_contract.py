"""The benchmark's traced run (``perfbench/run.py --trace 1``), in small.

The traced run wraps named ``cbr`` functions, times the imports of
``cbr.cli`` and its dependencies in fresh processes, and times the spec
layers on a fixture's text. A change to ``cbr`` that removes what it reads
makes that run fail; these calls into the benchmark's own functions fail
here first. They name nothing themselves, so they follow the benchmark
when it changes.
"""

import importlib
import json
import math
from pathlib import Path

import pytest

from cbr.specio import emit_spec, load_fixture
from test_golden import run
from test_specio import count_calls

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("layers")


def test_instrumentation_installs_and_restores(layers):
    with layers.instrumented(layers.Tracer()):
        pass


def test_import_metrics(layers):
    metrics = layers.import_metrics(str(ROOT / "src"))
    assert metrics and all(value > 0 for value, _ in metrics.values())


def test_spec_metrics_on_a_fixture(layers):
    text = emit_spec(load_fixture("overview_interaction").spec)
    metrics = layers.spec_metrics(text, "")
    assert metrics and all(math.isfinite(value) for value, _ in metrics.values())


def test_enum_analyze_compiles_each_step_once(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    text, _ = gen.enum_workflow(0)
    calls = count_calls(monkeypatch, "deterministic_codes")
    graph = workloads.EnumAnalyze.analyse(text)[0]
    assert len(graph.edges) == 4
    assert calls["deterministic_codes"] == 4


def test_optimize_sweep_checks_a_search(monkeypatch, tmp_path):
    """The benchmark's optimize check reads every record of a search by
    iteration, as well as the best assignment and the frontier."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    sweep = workloads.OptimizeSweep(1, str(tmp_path))
    assert sweep.check_round({0: sweep.search()}) == 0


def test_cli_columns_are_the_benchmark_csv_header(monkeypatch, tmp_path):
    """The per-edge keys of ``analyze --json`` and the header of ``report
    --format csv`` are the columns the benchmark's checks read."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    header = importlib.import_module("checks").CSV_HEADER
    path = tmp_path / "overview_interaction.json"
    path.write_text(emit_spec(load_fixture("overview_interaction").spec))
    rc, out, _ = run(["analyze", "--json", str(path)])
    assert rc == 0
    per_edge = json.loads(out)["per_edge"]
    assert per_edge and all(list(m) == header[1:] for m in per_edge.values())
    rc, out, _ = run(["report", "--format", "csv", str(path)])
    assert rc == 0 and out.splitlines()[0].split(",") == header
