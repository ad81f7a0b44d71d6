import numpy as np
import pytest

from cbr import _kernels
from oracles import entropy_oracle, kl_oracle, mi_oracle


class TestActiveBackend:
    def test_entropy(self):
        p = np.array([0.5, 0.25, 0.25])
        assert _kernels.entropy_bits(p) == pytest.approx(1.5, abs=1e-12)

    def test_zero_entries_are_exact_zeros(self):
        p = np.array([1.0, 0.0, 0.0])
        assert _kernels.entropy_bits(p) == 0.0

    def test_agrees_with_oracles(self, rng):
        n = 100
        p = rng.random(n)
        p /= p.sum()
        q = rng.random(n)
        q /= q.sum()
        assert _kernels.entropy_bits(p) == pytest.approx(entropy_oracle(p), rel=1e-12)
        pd = {str(i): float(v) for i, v in enumerate(p)}
        qd = {str(i): float(v) for i, v in enumerate(q)}
        assert _kernels.kl_bits(p, q) == pytest.approx(kl_oracle(pd, qd), rel=1e-12)
        joint = rng.random((8, 5))
        joint /= joint.sum()
        assert _kernels.mi_bits(joint) == pytest.approx(
            mi_oracle(joint.tolist()), abs=1e-12
        )
