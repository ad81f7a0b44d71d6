"""Seeded input generation for the benchmark workloads.

Everything here is computed with plain numpy and Python arithmetic, apart
from cbr: the expected values returned next to each input are what the
checks compare cbr's output against. cbr only ever sees the generated spec
text or spec files.
"""

import json
import math

import numpy as np

ENUM_LETTERS = 4096  # source letters per enum_analyze workflow
ENUM_DECISIONS = 16  # letters of the decisional node
ENUM_BINS = 128  # quantizer bins; each holds n/128 source letters


def _norm(w: np.ndarray) -> np.ndarray:
    return w / w.sum()


def _entropy(p: np.ndarray) -> float:
    return float(-np.sum(p * np.log2(p)))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * (np.log2(p) - np.log2(q))))


def _impression(p: np.ndarray, codes: np.ndarray, prior=None) -> np.ndarray:
    """Impression of ``p`` after the deterministic map ``codes``.

    Uniform over each preimage when ``prior`` is None, otherwise the prior
    conditioned on each preimage; either is weighted by the output mass.
    """
    q = np.bincount(codes, weights=p)
    w = np.ones_like(p) if prior is None else prior
    return q[codes] * w / np.bincount(codes, weights=w)[codes]


def enum_workflow(seed: int, n: int = ENUM_LETTERS):
    """One enumerated workflow as spec JSON text, with its expected values.

    ``n`` is a multiple of 256. Source ``X`` (n letters, ids "0".."n-1") forks into a pairwise grouping
    ``G`` (k = n/2, uniform-preimage reconstruction, machine node) and an
    enumerated quantizer ``Q`` (128 bins, prior-weighted reconstruction, visual node).
    Two coarse groupings join the branches at the decisional node ``D``.
    The priors are drawn apart from the data pmf, so every distortion is
    strictly positive.
    """
    rng = np.random.default_rng(seed)
    per_d = n // ENUM_DECISIONS
    width = n // ENUM_BINS
    letters = np.arange(n)
    p_x = _norm(rng.random(n) + 0.05)
    prior_x = _norm(rng.random(n) ** 3 + 0.01)
    g_codes = letters // 2
    q_codes = letters // width
    p_g = np.bincount(g_codes, weights=p_x)
    p_q = np.bincount(q_codes, weights=p_x)
    prior_g = _norm(rng.random(n // 2) ** 3 + 0.01)
    gd_codes = np.arange(n // 2) * 2 // per_d
    qd_codes = np.arange(n // width) * width // per_d
    p_d = np.bincount(gd_codes, weights=p_g)
    costs = [round(float(c), 3) for c in rng.uniform(1.0, 10.0, 4)]

    x_ids = [str(i) for i in range(n)]
    g_ids = [f"g{j}" for j in range(n // 2)]
    q_ids = [f"bin{j}" for j in range(n // width)]
    d_ids = [f"d{j}" for j in range(ENUM_DECISIONS)]

    def alphabet(name, ids, p):
        return {"name": name, "model": {"type": "enumerated", "probs": dict(zip(ids, p.tolist()))}}

    def grouping(name, node_kind, cost, src_ids, codes, dst_ids):
        return {
            "name": name,
            "node_kind": node_kind,
            "cost": {"kind": "time", "amount": cost, "unit": "s"},
            "kind": {"type": "grouping", "map": {s: dst_ids[c] for s, c in zip(src_ids, codes)}},
        }

    bounds = [float(b) for b in range(0, n + 1, width)]
    bounds[-1] = float(n - 1)  # last bin is closed on the right
    data = {
        "schema_version": "1",
        "entropy_mode": "actual",
        "cost_model": {"kind": "time", "unit": "s"},
        "alphabets": [
            alphabet("X", x_ids, p_x),
            alphabet("G", g_ids, p_g),
            alphabet("Q", q_ids, p_q),
            alphabet("D", d_ids, p_d),
        ],
        "transforms": [
            grouping("pair", "M", costs[0], x_ids, g_codes, g_ids),
            {
                "name": "bin",
                "node_kind": "V",
                "cost": {"kind": "time", "amount": costs[1], "unit": "s"},
                "kind": {"type": "quantizer", "levels": len(q_ids), "boundaries": bounds},
            },
            grouping("coarse_g", "M", costs[2], g_ids, gd_codes, d_ids),
            grouping("coarse_q", "H", costs[3], q_ids, qd_codes, d_ids),
        ],
        "reconstructions": [
            {"name": "uniform", "kind": {"type": "uniform_preimage"}},
            {"name": "prior_x", "kind": {"type": "prior_weighted", "prior": dict(zip(x_ids, prior_x.tolist()))}},
            {"name": "prior_g", "kind": {"type": "prior_weighted", "prior": dict(zip(g_ids, prior_g.tolist()))}},
        ],
        "graph": {
            "edges": [
                {"from": "X", "to": "G", "transform": "pair", "reconstruction": "uniform"},
                {"from": "X", "to": "Q", "transform": "bin", "reconstruction": "prior_x"},
                {"from": "G", "to": "D", "transform": "coarse_g", "reconstruction": "prior_g"},
                {"from": "Q", "to": "D", "transform": "coarse_q", "reconstruction": "uniform"},
            ],
            "decisional": "D",
        },
    }

    h = {"X": _entropy(p_x), "G": _entropy(p_g), "Q": _entropy(p_q), "D": _entropy(p_d)}
    kl = {
        "pair": _kl(_impression(p_x, g_codes), p_x),
        "bin": _kl(_impression(p_x, q_codes, prior_x), p_x),
        "coarse_g": _kl(_impression(p_g, gd_codes, prior_g), p_g),
        "coarse_q": _kl(_impression(p_q, qd_codes), p_q),
    }
    expected = {
        "entropy": h,
        "kl": kl,
        "edges": {"pair": ("X", "G"), "bin": ("X", "Q"), "coarse_g": ("G", "D"), "coarse_q": ("Q", "D")},
        "cost": dict(zip(("pair", "bin", "coarse_g", "coarse_q"), costs)),
        "branches": (("pair", "coarse_g"), ("bin", "coarse_q")),
        "groupings": ("pair", "coarse_g", "coarse_q"),
        "letters": n,
    }
    return json.dumps(data), expected
