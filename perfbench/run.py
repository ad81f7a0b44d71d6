#!/usr/bin/env python3
"""End-to-end benchmark of cbr: one command, three workloads.

    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

runs every workload in its own process and prints each end-to-end metric
with its unit, plus the operations attempted and failed. ``--workload
<name>`` runs one workload; ``--trace 1`` replaces the end-to-end metrics
with the per-layer ones (see ``layers.py``). The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md for what each workload does and why.

Load is one client in a closed loop: each operation starts after the
previous one has completed and been timed. A run attempts whole rounds of
the workload's operations until ``--seconds`` have passed, so the share of
failed operations is the same in every run.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import gen
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

UNITS = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3  # this process plus two fresh processes that only set up


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_cbr() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "cbr", "__init__.py")):
        sys.exit(f"error: no cbr sources at {SRC}")
    sys.path.insert(0, SRC)
    import cbr

    if os.path.dirname(os.path.dirname(os.path.abspath(cbr.__file__))) != SRC:
        sys.exit(f"error: imported cbr from {cbr.__file__}, not from {SRC}")


def set_up(name: str, seed: int, workdir: str):
    return workloads.WORKLOADS[name](seed, workdir)


def timed_rounds(w, seconds: float):
    """Run whole rounds of ``w.ops``, at least one, until ``seconds`` of wall
    time have passed. Returns per-operation durations in seconds and the
    failed count.
    """
    durations, failed = [], 0
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        outputs = {}
        for label, op in w.ops:
            t0 = time.perf_counter()
            outputs[label] = op()
            durations.append(time.perf_counter() - t0)
        failed += w.check_round(outputs)
    return durations, failed


def setup_sample(name: str, seed: int) -> float:
    """Set-up time of a fresh process doing only this workload's set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-200:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail_ms(durations: list):
    """(p, value): the highest of a few percentiles with at least ten
    operations beyond it, or None below forty operations."""
    n = len(durations)
    if n < 40:
        return None
    p = next(p for p in (99, 98, 95, 90, 80, 75) if n * (100 - p) / 100 >= 10)
    return p, statistics.quantiles(durations, n=100)[p - 1] * 1e3


def untraced(name: str, seed: int, seconds: float, workdir: str) -> dict:
    w = set_up(name, seed, workdir)
    setups = [process_age()]
    try:
        durations, failed = timed_rounds(w, seconds)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    setups += [setup_sample(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "ops_per_s": len(durations) / sum(durations),
        "peak_rss_mb": peak,
    }
    print(f"{name}: {len(durations)} operations, {failed} failed; set-up samples {[round(s, 3) for s in setups]}")
    extra = {}
    if name == "enum_analyze":
        extra["letters_per_s"] = (metrics["ops_per_s"] * gen.ENUM_LETTERS, "1/s")
    if name == "optimize_sweep":
        extra["evals_per_s"] = (metrics["ops_per_s"] * w.space.combination_count(), "1/s")
    tail = tail_ms(durations)
    if tail is not None:
        extra[f"op_tail_ms (p{tail[0]})"] = (tail[1], "ms")
    for key, value in metrics.items():
        print(f"  {key:<20} {value:14.4f} {UNITS[key]}")
    for key, (value, unit) in extra.items():
        print(f"  {key:<20} {value:14.4f} {unit}  (derived, not gated)")
    return {
        "correct": True,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
        total["correct"] = total["correct"] and result.get("correct", False)
        total["attempted"] += result.get("attempted", 0)
        total["failed"] += result.get("failed", 0)
        for key, metric in result.get("metrics", {}).items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            result = {"setup_s": process_age()}
        elif args.trace:
            import layers

            result = layers.traced(args.workload, args.seed, workdir, OUT, SRC)
        else:
            result = untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result.get("correct", True) else 1


if __name__ == "__main__":
    import_cbr()
    sys.exit(main())
