"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each test prints its verdict on the real stdout so the line survives
pytest's capture; a failing assertion still fails the test as usual.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cbr.alphabet import Pmf, entropy, enumerated, uniform
from cbr.metrics import grouping_check, machine_cbr, step_metrics
from cbr.optimize import apply_assignment, evaluate, exhaustive_search, greedy_search
from cbr.reconstruction import kl_divergence
from cbr.specio import (
    FIXTURE_NAMES,
    Fixture,
    check_fixture,
    emit_spec,
    share_price_expected,
    fixture_share_price,
    fixture_plot_vs_binary,
    load_fixture,
    parse_spec,
    resolve_metric,
)
from cbr.transform import mutual_information, pushforward
from conftest import make_grouping, random_grouping, random_pmf
from oracles import entropy_oracle, kl_oracle, mi_oracle

from test_optimize import PLATEAU_SPACE, chain_graph, chain_space, plateau_graph


def verdict(number: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}", file=sys.__stdout__)
    assert ok, f"acceptance criterion {number} ({name}) failed" + (f": {detail}" if detail else "")


def test_acceptance_1_share_price_chain():
    start = time.perf_counter()
    ok = True
    for r in (1, 3, 10):
        rows = check_fixture(Fixture("share_price", fixture_share_price(r), share_price_expected(r)))
        ok = ok and all(row[4] for row in rows)
    elapsed = time.perf_counter() - start
    verdict(1, "share-price chain reproduction", ok and elapsed < 1.0)


def test_acceptance_2_grouping_property():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 2**12 + 1))
        pmf = random_pmf(rng, n)
        a = enumerated("a", pmf)
        t = make_grouping(random_grouping(rng, pmf, max(1, n // int(rng.integers(2, 9)))))
        worst = max(worst, grouping_check(a, t))
    elapsed = time.perf_counter() - start
    verdict(
        2,
        "grouping identity residual",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst residual {worst:.3g} (bound 1e-9), elapsed {elapsed:.2f} s (bound 10 s)",
    )


def test_acceptance_3_oracle_equivalence():
    rng = np.random.default_rng(3)
    ok = True
    # entropy on every enumerated node of the shipped fixtures
    for f in (load_fixture("overview_interaction").spec,):
        for a in f.build_graph().nodes.values():
            if a.is_enumerated:
                expect = entropy_oracle(a.model.pmf.probs.values())
                ok = ok and math.isclose(entropy(a), expect, rel_tol=1e-9, abs_tol=1e-12)
    # entropy / KL / MI against naive summation on random cases
    for _ in range(200):
        n = int(rng.integers(2, 64))
        p, q = random_pmf(rng, n), random_pmf(rng, n)
        ok = ok and math.isclose(
            entropy(enumerated("p", p)), entropy_oracle(p.values()), rel_tol=1e-9
        )
        ok = ok and math.isclose(
            kl_divergence(Pmf(p), Pmf(q)), kl_oracle(p, q), rel_tol=1e-9, abs_tol=1e-12
        )
        a = enumerated("a", p)
        t = make_grouping(random_grouping(rng, p, max(1, n // 2)))
        det = {x: t.kind.mapping[x] for x in p}
        groups = sorted(set(det.values()))
        joint = [
            [p[x] if det[x] == y else 0.0 for y in groups] for x in p
        ]
        ok = ok and math.isclose(
            mutual_information(t, a), mi_oracle(joint), rel_tol=1e-9, abs_tol=1e-12
        )
    verdict(3, "oracle equivalence", ok)


def test_acceptance_4_kl_properties():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 16))
        p, q = random_pmf(rng, n), random_pmf(rng, n)
        d = kl_divergence(Pmf(p), Pmf(q))
        ok = ok and d >= -1e-12
    p = Pmf({"a": 0.5, "b": 0.5})
    ok = ok and kl_divergence(p, p) == 0.0
    q = Pmf({"a": 0.25, "b": 0.75})
    ok = ok and kl_divergence(p, q) > 1e-6  # zero iff equal
    ok = ok and abs(kl_divergence(p, q) - kl_divergence(q, p)) > 1e-6
    try:
        kl_divergence(p, Pmf({"a": 1.0, "b": 0.0}))
        ok = False
    except ValueError as exc:
        ok = ok and "divergence undefined" in str(exc)
    verdict(4, "KL divergence properties", ok)


def test_acceptance_5_data_processing_inequality():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 64))
        a = enumerated("a", random_pmf(rng, n))
        h_prev = entropy(a)
        for _step in range(3):
            ids = list(a.letter_ids())
            a = pushforward(make_grouping(random_grouping(rng, ids, max(1, len(ids) // 2))), a)
            h = entropy(a)
            ok = ok and h <= h_prev + 1e-9
            h_prev = h
    # a human step with declared soft knowledge is exempt from the inequality
    zoom = load_fixture("overview_interaction").spec.build_graph()
    ok = ok and entropy(zoom.nodes["Zd"]) > entropy(zoom.nodes["Zo"])
    verdict(5, "data processing inequality", ok)


def test_acceptance_6_benefit_mi_consistency():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(500):
        n = int(rng.integers(3, 32))
        pmf = random_pmf(rng, n)
        a = enumerated("a", pmf)
        t = make_grouping(random_grouping(rng, pmf, max(1, n // 2)))
        out = pushforward(t, a)
        m = step_metrics(t, None, a, out, machine_centric=True)
        i = mutual_information(t, a)
        ok = ok and abs(m.benefit_bits - (i - entropy(out))) <= 1e-9
        # deterministic steps carry no information beyond their output
        ok = ok and abs(machine_cbr(i, entropy(out), t.cost)) <= 1e-9
    verdict(6, "benefit/mutual-information consistency", ok)


def test_acceptance_7_plot_vs_binary_scenario():
    graph = fixture_plot_vs_binary().build_graph()
    b = resolve_metric(graph, "edge:recognize_plot:benefit", "actual")
    ok = abs(b - 415.0) <= 1.0
    plot = resolve_metric(graph, "path:Z1,Za2,Za3,Z4:cbr", "actual")
    binary = resolve_metric(graph, "path:Z1,Zb2,Zb3,Z4:cbr", "actual")
    ok = ok and plot > binary
    presenter = fixture_plot_vs_binary(presenter=True).build_graph().total_benefit()
    ok = ok and abs(presenter.lo) <= 1e-9 and abs(presenter.hi) <= 1e-9
    verdict(7, "plot vs binary-digits scenario (declared-cost conditional)", ok)


def test_acceptance_8_optimizer_correctness():
    ok = True
    cases = [
        (chain_graph(), chain_space(), "sum"),
        (plateau_graph(), PLATEAU_SPACE, "max_parallel"),
    ]
    for graph, space, merge in cases:
        assert space.combination_count() <= 10**4
        result = exhaustive_search(graph, space, merge=merge)
        best = None
        for combo in itertools.product(*(d.values for d in space.dimensions)):
            assignment = {
                (d.target, d.field): v for d, v in zip(space.dimensions, combo)
            }
            cost, _, cbr = evaluate(apply_assignment(graph, assignment), merge=merge)
            key = (cbr.midpoint, -cost)
            if best is None or key > best[0]:
                best = (key, assignment, cbr)
        ok = ok and result.best_assignment == best[1]
        ok = ok and abs(result.best_cbr.midpoint - best[2].midpoint) <= 1e-12
    # greedy equals exhaustive on single-dimension spaces
    from cbr.optimize import Dimension, ParamSpace

    g = chain_graph()
    single = ParamSpace(
        (Dimension("transform:t0", "declared_distortion_bits", (0.0, 1.0, 2.0)),)
    )
    ok = ok and (
        greedy_search(g, single, seed=8).best_assignment
        == exhaustive_search(g, single).best_assignment
    )
    # restart improvement on the cost-plateau fixture
    stuck = greedy_search(plateau_graph(), PLATEAU_SPACE, restarts=1, merge="max_parallel", seed=0)
    freed = greedy_search(plateau_graph(), PLATEAU_SPACE, restarts=2, merge="max_parallel", seed=0)
    ok = ok and freed.best_cbr.midpoint > stuck.best_cbr.midpoint + 1e-9
    verdict(8, "optimizer correctness", ok)


def test_acceptance_9_cli_contract(tmp_path):
    ok = True
    valid = tmp_path / "valid.json"
    valid.write_text(emit_spec(fixture_plot_vs_binary()))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{oops")
    matrix = [
        (["validate", str(valid)], 0),
        (["analyze", str(valid), "--json"], 0),
        (["report", str(valid), "--format", "dot"], 0),
        (["fixtures"], 0),
        (["validate", str(malformed)], 1),
        (["validate", str(tmp_path / "missing.json")], 1),
        (["report", str(valid)], 2),  # missing required --format
        (["frobnicate"], 2),
        ([], 2),
    ]
    for argv, expected in matrix:
        proc = subprocess.run(
            [sys.executable, "-m", "cbr.cli", *argv], capture_output=True
        )
        ok = ok and proc.returncode == expected
    for name in FIXTURE_NAMES:
        spec = load_fixture(name).spec
        ok = ok and parse_spec(emit_spec(spec)).data == spec.data
    verdict(9, "CLI contract and spec round-trip", ok)
