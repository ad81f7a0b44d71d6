"""Numeric kernels for entropy, KL divergence and mutual information.

All kernels take float64 arrays. Probabilities must already be validated;
entries <= 0 are treated as exact zeros (0 * log 0 == 0).
"""

import numpy as np

__all__ = ["entropy_bits", "kl_bits", "mi_bits"]


def entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def kl_bits(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = p > 0.0
    pm = p[m]
    d = float(np.sum(pm * (np.log2(pm) - np.log2(q[m]))))
    # Gibbs' inequality: D_KL >= 0; a negative sum is rounding error.
    return max(d, 0.0)


def mi_bits(joint: np.ndarray) -> float:
    joint = np.asarray(joint, dtype=np.float64)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    outer = px[:, None] * py[None, :]
    m = joint > 0.0
    return float(np.sum(joint[m] * (np.log2(joint[m]) - np.log2(outer[m]))))
