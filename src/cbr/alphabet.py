"""Discrete alphabets: letter sets with probability models, plus entropy.

Three probability models are supported:

* ``Enumerated`` -- an explicit letter set with a probability mass function.
* ``Symbolic`` -- bookkeeping for alphabets too large to enumerate; carries
  declared entropy and maximal entropy in bits.
* ``Product`` -- ``count`` independent copies of a factor alphabet; entropy
  and maximal entropy scale linearly.

All entropies are base-2 (bits).
"""

import math
from dataclasses import dataclass, field
from typing import Mapping, NoReturn, Optional, Union

import numpy as np

from . import _kernels

PROB_TOL = 1e-9


def _finite(what: str, *values) -> None:
    """Raise ValueError unless every value is a finite number. An integer
    too large for a float (a long JSON literal) is not finite either."""
    try:
        if all(map(math.isfinite, values)):
            return
    except OverflowError:
        pass
    raise ValueError(f"{what} must be finite")


def _reject(probs: Mapping[str, float]) -> NoReturn:
    """Raise the error that ``Pmf`` reports for ``probs``: range, then sum."""
    for lid, p in probs.items():
        if not (-PROB_TOL <= p <= 1.0 + PROB_TOL):
            raise ValueError(f"probability out of [0,1] for letter {lid!r}: {p}")
    total = math.fsum(probs.values())
    raise ValueError(f"pmf sums to {total}, outside tolerance {PROB_TOL}")


class Pmf:
    """Probability mass function over letter ids.

    Probabilities must lie in [0, 1] and sum to 1 within ``PROB_TOL``
    (absolute); sums within tolerance are renormalized exactly, anything
    further off is an error.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: Mapping[str, float]):
        if not probs:
            raise ValueError("empty pmf")
        # Fast path: min/max bound every item at once. They can step over a
        # NaN, but a NaN makes the sum NaN and fails the sum test; either
        # failure falls back to the per-item check for the error message.
        vals = probs.values()
        lo, hi = min(vals), max(vals)
        if not (-PROB_TOL <= lo and hi <= 1.0 + PROB_TOL):
            _reject(probs)
        total = math.fsum(vals)
        if not abs(total - 1.0) <= PROB_TOL:
            _reject(probs)
        if lo >= 0.0 and hi <= 1.0:
            self._probs = {lid: p / total for lid, p in probs.items()}
        else:
            self._probs = {lid: min(max(p, 0.0), 1.0) / total for lid, p in probs.items()}

    @property
    def probs(self) -> dict:
        return dict(self._probs)

    def __getitem__(self, lid: str) -> float:
        return self._probs[lid]

    def get(self, lid: str, default: float = 0.0) -> float:
        return self._probs.get(lid, default)

    def __iter__(self):
        return iter(self._probs)

    def __len__(self):
        return len(self._probs)

    def items(self):
        return self._probs.items()

    def __eq__(self, other):
        if not isinstance(other, Pmf):
            return NotImplemented
        return self._probs == other._probs

    def __repr__(self):
        return f"Pmf({self._probs!r})"


@dataclass(frozen=True)
class Enumerated:
    """An explicit letter set: letter ids in order, and their pmf.

    ``vector`` holds the probabilities aligned with ``ids``, built once
    here and read-only.
    """

    ids: tuple
    pmf: Pmf
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = set(self.ids)
        if len(ids) != len(self.ids):
            raise ValueError("duplicate letter ids")
        probs = self.pmf._probs
        if ids != probs.keys():
            raise ValueError("pmf support does not match letter set")
        v = np.fromiter(map(probs.__getitem__, self.ids), dtype=np.float64, count=len(self.ids))
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


@dataclass(frozen=True)
class Symbolic:
    entropy_bits: float
    max_entropy_bits: float

    def __post_init__(self):
        if self.entropy_bits < 0 or self.max_entropy_bits < 0:
            raise ValueError("entropies must be non-negative")
        _finite("entropies", self.entropy_bits, self.max_entropy_bits)
        if self.entropy_bits > self.max_entropy_bits + PROB_TOL:
            raise ValueError("entropy exceeds maximal entropy")


@dataclass(frozen=True)
class Product:
    factor: "Alphabet"
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("empty product")
        _finite("factor count", self.count)


Model = Union[Enumerated, Symbolic, Product]


@dataclass(frozen=True)
class Alphabet:
    """A named discrete variable: its letter set and probability model."""

    name: str
    model: Model

    @property
    def is_enumerated(self) -> bool:
        return isinstance(self.model, Enumerated)

    def letter_ids(self) -> tuple:
        if not self.is_enumerated:
            raise ValueError("mode mismatch: alphabet is not enumerated")
        return self.model.ids

    def prob_vector(self) -> np.ndarray:
        """Probabilities aligned with ``letter_ids()`` order (read-only)."""
        m = self.model
        if not isinstance(m, Enumerated):
            raise ValueError("mode mismatch: alphabet is not enumerated")
        return m.vector


def enumerated(name: str, probs: Mapping[str, float]) -> Alphabet:
    """Build an enumerated alphabet from a letter-id -> probability map."""
    return Alphabet(name, Enumerated(tuple(probs), Pmf(probs)))


def uniform(name: str, letter_ids) -> Alphabet:
    ids = list(letter_ids)
    return enumerated(name, {lid: 1.0 / len(ids) for lid in ids})


def symbolic(name: str, entropy_bits: float, max_entropy_bits: Optional[float] = None) -> Alphabet:
    if max_entropy_bits is None:
        max_entropy_bits = entropy_bits
    return Alphabet(name, Symbolic(entropy_bits, max_entropy_bits))


def entropy(a: Alphabet) -> float:
    """Shannon entropy in bits, with 0*log2(0) := 0."""
    m = a.model
    if isinstance(m, Enumerated):
        return _kernels.entropy_bits(a.prob_vector())
    if isinstance(m, Symbolic):
        return m.entropy_bits
    return m.count * entropy(m.factor)


def max_entropy(a: Alphabet) -> float:
    """Entropy under the uniform distribution: log2 of the cardinality."""
    m = a.model
    if isinstance(m, Enumerated):
        return math.log2(len(m.ids))
    if isinstance(m, Symbolic):
        return m.max_entropy_bits
    return m.count * max_entropy(m.factor)


def product(a: Alphabet, count: int, name: Optional[str] = None) -> Alphabet:
    """``count`` independent copies of ``a``; entropies scale linearly."""
    if count < 1:
        raise ValueError("empty product")
    return Alphabet(name or f"{a.name}^{count}", Product(a, count))


def restrict(a: Alphabet, subset, name: Optional[str] = None) -> Alphabet:
    """Condition an enumerated alphabet on a subset of its letters."""
    m = a.model
    if not isinstance(m, Enumerated):
        raise ValueError("mode mismatch: restrict requires an enumerated alphabet")
    subset = set(subset)
    if not subset or not subset <= set(m.ids):
        raise ValueError("unconditionable subset")
    mass = math.fsum(m.pmf[lid] for lid in subset)
    if mass <= 0.0:
        raise ValueError("unconditionable subset")
    probs = {lid: m.pmf[lid] / mass for lid in m.ids if lid in subset}
    return enumerated(name or f"{a.name}|{len(subset)}", probs)
