import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import cbr
from cbr.alphabet import enumerated
from cbr.transform import CostRecord, Grouping, Transform

# `python -m cbr.cli` subprocesses import the same cbr as this session.
_SRC = str(Path(cbr.__file__).resolve().parents[1])
_PATH = os.environ.get("PYTHONPATH", "")
if _PATH.split(os.pathsep)[0] != _SRC:
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, _PATH) if p)


def random_pmf(rng: np.random.Generator, n: int, sparse: bool = False) -> dict:
    w = rng.random(n)
    if sparse:
        w[rng.random(n) < 0.3] = 0.0
        if w.sum() == 0.0:
            w[0] = 1.0
    w = w / w.sum()
    return {f"x{i}": float(p) for i, p in enumerate(w)}


def random_grouping(rng: np.random.Generator, letter_ids, n_groups: int) -> dict:
    # One vector draw: the same values, and the same generator state after,
    # as one rng.integers(n_groups) call per letter (pinned in test_conftest.py).
    groups = rng.integers(n_groups, size=len(letter_ids)).tolist()
    return {lid: f"g{g}" for lid, g in zip(letter_ids, groups)}


def make_grouping(mapping: dict, name: str = "t", cost: float = 1.0, node_kind: str = "M") -> Transform:
    return Transform(name, Grouping(mapping), CostRecord("time", cost, "s"), node_kind)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
