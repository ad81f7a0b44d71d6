"""Reconstruction functions and the distortion they leave behind.

A reconstruction maps output letters back to a distribution over input
letters; the mixture of those per-letter distributions, weighted by the
output pmf, is the observer's impression of the input. Distortion is the
KL divergence (bits) between that impression and the true input pmf.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .alphabet import Alphabet, Pmf, _finite
from .transform import (
    DeclaredHuman,
    Grouping,
    Quantizer,
    Step,
    Transform,
    compiled,
)

@dataclass(frozen=True)
class ExactConditional:
    """Perfect Bayesian inversion: the true conditional of input given output."""


@dataclass(frozen=True)
class UniformPreimage:
    """Uniform guess over each output letter's preimage."""


@dataclass(frozen=True)
class PriorWeighted:
    """Prior pmf over input letters, conditioned on each preimage."""

    prior: Pmf


@dataclass(frozen=True)
class DeclaredDivergence:
    """User-declared distortion in bits, for symbolic and human steps."""

    bits: float

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("declared divergence must be non-negative")
        _finite("declared divergence", self.bits)


RKind = Union[ExactConditional, UniformPreimage, PriorWeighted, DeclaredDivergence]


@dataclass(frozen=True)
class Reconstruction:
    name: str
    kind: RKind


@dataclass(frozen=True)
class Impression:
    """Observer's reconstructed distribution over the input letter set."""

    alphabet: Alphabet
    pmf: Pmf


def impression(g: Reconstruction, t: Transform, input: Alphabet) -> Impression:
    """Mixture impression p(z') = sum_y q_out(y) g(z'|y).

    Each rule weighs the letters of a preimage by ``w`` (the input pmf, 1,
    or the prior) and gives letter x the share q_out(y) w(x) / sum w over
    the preimage of y.
    """
    _check_impression(g, t, input)
    v = _impression_vector(g, compiled(t, input))
    return Impression(input, Pmf.from_vector(input.letter_ids(), v))


def _check_impression(g: Reconstruction, t: Transform, input: Alphabet) -> None:
    """Raise unless ``g`` gives ``t`` on ``input`` an enumerated impression;
    the public functions check this before they take a ``Step``."""
    if isinstance(g.kind, DeclaredDivergence):
        raise ValueError("no enumerated impression available")
    k = t.kind
    if not isinstance(k, (Grouping, Quantizer)):
        raise ValueError("mode mismatch: impression requires a deterministic transform")
    if isinstance(k, Quantizer) and k.boundaries is None:
        raise ValueError("mode mismatch: symbolic quantizer has no letter map")
    if not input.is_enumerated:
        raise ValueError("mode mismatch: alphabet is not enumerated")


def _impression_vector(g: Reconstruction, step: Step) -> np.ndarray:
    """The impression's probabilities, aligned with the input's letter ids;
    ``g`` on ``step`` has passed ``_check_impression``."""
    kind = g.kind
    codes, out_ids, input = step.codes, step.out_ids, step.input
    p = input.prob_vector()
    if isinstance(kind, ExactConditional):
        w = p
    elif isinstance(kind, UniformPreimage):
        w = np.ones(len(p))
    else:  # PriorWeighted
        w = kind.prior.aligned(input.letter_ids())
    q = np.bincount(codes, weights=p, minlength=len(out_ids))
    mass = np.bincount(codes, weights=w, minlength=len(out_ids))
    live = q > 0.0  # an output letter of probability 0 adds nothing
    dead = live & (mass <= 0.0)
    if dead.any():
        y = out_ids[int(dead.argmax())]
        raise ValueError(f"prior has zero mass on the preimage of {y!r}")
    share = np.divide(w, mass[codes], out=np.zeros(len(w)), where=live[codes])
    return q[codes] * share


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """D_KL(p || q) in bits; requires support(p) within support(q)."""
    qset = set(q.ids)
    ids = q.ids + tuple(k for k in p.ids if k not in qset)
    return _kl_vectors(p.aligned(ids), q.aligned(ids))


def _kl_vectors(pv: np.ndarray, qv: np.ndarray) -> float:
    """``kl_divergence`` on two aligned probability vectors."""
    if np.any((pv > 0.0) & (qv <= 0.0)):
        raise ValueError("divergence undefined: p > 0 where q = 0")
    return _kernels.kl_bits(pv, qv)


def distortion_bits(g: Optional[Reconstruction], t: Transform, input: Alphabet) -> float:
    """Distortion D_KL(impression || input) for one step; the declared bits
    of a declared divergence, or of a human step with no reconstruction."""
    if g is None:
        if isinstance(t.kind, DeclaredHuman):
            return t.kind.declared_distortion_bits
        raise ValueError("unscored edge: no reconstruction given")
    if isinstance(g.kind, DeclaredDivergence):
        return g.kind.bits
    _check_impression(g, t, input)
    v = _impression_vector(g, compiled(t, input))
    # renormalised as impression()'s Pmf is, so the result is bit-identical
    # to kl_divergence(impression(g, t, input).pmf, input.model.pmf)
    v = v / math.fsum(v)
    return _kl_vectors(v, input.prob_vector())
