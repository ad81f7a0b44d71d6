"""Discrete alphabets: letter sets with probability models, plus entropy.

Three probability models are supported:

* ``Pmf`` -- an explicit letter set: its letter ids and their probabilities.
* ``Symbolic`` -- bookkeeping for alphabets too large to enumerate; carries
  declared entropy and maximal entropy in bits.
* ``Product`` -- ``count`` independent copies of a factor alphabet; entropy
  and maximal entropy scale linearly.

All entropies are base-2 (bits).
"""

import math
from dataclasses import dataclass
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


def _reject(ids, values) -> NoReturn:
    """Raise ``Pmf``'s error for probabilities ``values`` of ``ids``: range, then sum."""
    for lid, p in zip(ids, values):
        if not (-PROB_TOL <= p <= 1.0 + PROB_TOL):
            raise ValueError(f"probability out of [0,1] for letter {lid!r}: {p}")
    total = math.fsum(values)
    raise ValueError(f"pmf sums to {total}, outside tolerance {PROB_TOL}")


class Pmf:
    """Probability mass function: the letter ids in order, and their
    probabilities as one read-only float64 vector aligned with them.

    Probabilities must lie in [0, 1] and sum to 1 within ``PROB_TOL``
    (absolute); sums within tolerance are renormalized exactly, anything
    further off is an error. ``Pmf(probs)`` takes a letter-id ->
    probability map; ``Pmf.from_vector`` takes ids and a vector.
    """

    __slots__ = ("ids", "vector", "_index")

    def __init__(self, probs: Mapping[str, float]):
        if not probs:
            raise ValueError("empty pmf")
        self._validate(list(probs.values()), tuple(probs), None)

    @classmethod
    def from_vector(cls, ids: tuple, vector: np.ndarray) -> "Pmf":
        """The pmf of letters ``ids`` whose probabilities are ``vector``."""
        if not ids:
            raise ValueError("empty pmf")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate letter ids")
        pmf = cls.__new__(cls)
        pmf._validate(vector.tolist(), tuple(ids), vector)
        return pmf

    def _validate(self, values: list, ids: tuple, vector: Optional[np.ndarray]) -> None:
        """Check ``values`` (as ``vector``, if given) for ``ids``; keep them clamped and renormalized."""
        # Fast path: min/max bound every item at once. They can step over a
        # NaN, but a NaN makes the sum NaN and fails the sum test; either
        # failure falls back to the per-item check for the error message.
        lo, hi = min(values), max(values)
        in_range = -PROB_TOL <= lo and hi <= 1.0 + PROB_TOL
        if not (in_range and abs((total := math.fsum(values)) - 1.0) <= PROB_TOL):
            _reject(ids, values)
        v = np.array(values, dtype=np.float64) if vector is None else vector
        if not (lo >= 0.0 and hi <= 1.0):
            v = np.minimum(np.maximum(v, 0.0), 1.0)
        v = v / total
        v.setflags(write=False)
        self.ids, self.vector, self._index = ids, v, None

    def _positions(self) -> dict:
        """Letter id -> its position in ``ids``, built on first use."""
        if self._index is None:
            self._index = {lid: j for j, lid in enumerate(self.ids)}
        return self._index

    def aligned(self, ids: tuple) -> np.ndarray:
        """The probabilities of letters ``ids``, in that order; 0 for a
        letter outside the support."""
        if ids == self.ids:
            return self.vector
        index, n = self._positions(), len(self.ids)
        at = np.fromiter((index.get(lid, n) for lid in ids), dtype=np.intp, count=len(ids))
        return np.append(self.vector, 0.0)[at]

    @property
    def pmf(self) -> "Pmf":
        """The pmf itself: an enumerated alphabet's model is its pmf."""
        return self

    @property
    def probs(self) -> dict:
        return dict(zip(self.ids, self.vector.tolist()))

    def __getitem__(self, lid: str) -> float:
        return self.vector.item(self._positions()[lid])

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)

    def items(self):
        return self.probs.items()

    def __eq__(self, other):
        if not isinstance(other, Pmf):
            return NotImplemented
        return self.probs == other.probs

    def __repr__(self):
        return f"Pmf({self.probs!r})"


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


Model = Union[Pmf, Symbolic, Product]


@dataclass(frozen=True)
class Alphabet:
    """A named discrete variable: its letter set and probability model."""

    name: str
    model: Model

    @property
    def is_enumerated(self) -> bool:
        return isinstance(self.model, Pmf)

    def letter_ids(self) -> tuple:
        if not self.is_enumerated:
            raise ValueError("mode mismatch: alphabet is not enumerated")
        return self.model.ids

    def prob_vector(self) -> np.ndarray:
        """Probabilities aligned with ``letter_ids()`` order (read-only)."""
        if not self.is_enumerated:
            raise ValueError("mode mismatch: alphabet is not enumerated")
        return self.model.vector


def enumerated(name: str, probs: Mapping[str, float]) -> Alphabet:
    """Build an enumerated alphabet from a letter-id -> probability map."""
    return Alphabet(name, Pmf(probs))


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
    if isinstance(m, Pmf):
        return _kernels.entropy_bits(m.vector)
    if isinstance(m, Symbolic):
        return m.entropy_bits
    return m.count * entropy(m.factor)


def max_entropy(a: Alphabet) -> float:
    """Entropy under the uniform distribution: log2 of the cardinality."""
    m = a.model
    if isinstance(m, Pmf):
        return math.log2(len(m.ids))
    if isinstance(m, Symbolic):
        return m.max_entropy_bits
    return m.count * max_entropy(m.factor)


def product(a: Alphabet, count: int, name: Optional[str] = None) -> Alphabet:
    """``count`` independent copies of ``a``; entropies scale linearly."""
    return Alphabet(name or f"{a.name}^{count}", Product(a, count))
