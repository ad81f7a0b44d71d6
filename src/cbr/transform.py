"""Mappings between alphabets, with cost records.

A transform pushes an input alphabet forward to an output alphabet.
Deterministic kinds (grouping, quantizer) and stochastic channels operate
on enumerated alphabets; aggregators and declared steps do symbolic bit
bookkeeping only, because the alphabets they act on are far too large to
enumerate.
"""

import math
import weakref
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from . import _kernels
from .alphabet import (
    PROB_TOL,
    Alphabet,
    Pmf,
    Product,
    Symbolic,
    _finite,
)

COST_KINDS = ("energy", "time", "monetary", "abstract")
NODE_KINDS = ("M", "H", "V", "I")


def check_cost(amount) -> None:
    """Raise ValueError unless ``amount``, a cost or a budget, is positive, then finite."""
    if not amount > 0:
        raise ValueError("cost must be positive: an action always has a cost")
    _finite("cost", amount)


@dataclass(frozen=True)
class CostRecord:
    kind: str
    amount: float
    unit: str

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}")
        check_cost(self.amount)

    def __add__(self, other: "CostRecord") -> "CostRecord":
        if self.kind != other.kind or self.unit != other.unit:
            raise ValueError("incommensurable costs")
        return CostRecord(self.kind, self.amount + other.amount, self.unit)


def _count(value) -> int:
    """``value`` as a bin count or a window: an integer, or a float that is one."""
    if isinstance(value, (bool, str)) or int(value) != value:
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class Grouping:
    """Total deterministic map from input letter ids to output letter ids."""

    mapping: Mapping[str, str]


@dataclass(frozen=True)
class Quantizer:
    """Bins an ordered numeric letter domain into ``levels`` bins.

    With explicit ``boundaries`` (levels+1 ascending edges) it quantizes an
    enumerated alphabet whose letter ids parse as floats; bins are
    closed-left/open-right, last bin closed. Without boundaries it performs
    symbolic bookkeeping: each factor of a product alphabet is clamped to
    log2(levels) bits.
    """

    levels: int
    boundaries: Optional[tuple] = None

    def __post_init__(self):
        if _count(self.levels) < 1:
            raise ValueError("quantizer needs at least one bin")
        if self.boundaries is not None:
            b = self.boundaries
            if len(b) != self.levels + 1:
                raise ValueError("boundaries must have levels+1 edges")
            if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
                raise ValueError("boundaries must be strictly increasing")
            _finite("boundaries", *b)


@dataclass(frozen=True)
class Aggregator:
    """Merges ``window`` consecutive factors of a product alphabet.

    Symbolic-mode bookkeeping only; the aggregate is assumed to keep the
    factor's bit width.
    """

    window: int

    def __post_init__(self):
        if _count(self.window) < 1:
            raise ValueError("window must be positive")


@dataclass(frozen=True)
class Channel:
    """Row-stochastic conditional pmf from input letters to output letters."""

    inputs: tuple
    outputs: tuple
    matrix: tuple  # rows of per-output probabilities, aligned with inputs/outputs

    def __post_init__(self):
        _finite("channel entries", *(v for row in self.matrix for v in row))
        mat = self.as_array()
        if mat.shape != (len(self.inputs), len(self.outputs)):
            raise ValueError("channel matrix shape mismatch")
        if np.any(mat < 0) or np.any(mat > 1):
            raise ValueError("channel entries must be probabilities")
        sums = mat.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > PROB_TOL):
            raise ValueError("channel rows must each sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=np.float64)


@dataclass(frozen=True)
class DeclaredHuman:
    """A declared step: output alphabet and distortion are user estimates.

    Used for human processing and for machine/visual steps over symbolic
    alphabets, where distortion cannot be computed from an enumerated model.
    """

    output: Alphabet
    declared_distortion_bits: float = 0.0

    def __post_init__(self):
        if self.declared_distortion_bits < 0:
            raise ValueError("declared distortion must be non-negative")
        _finite("declared distortion", self.declared_distortion_bits)


Kind = Union[Grouping, Quantizer, Aggregator, Channel, DeclaredHuman]


@dataclass(frozen=True)
class Transform:
    name: str
    kind: Kind
    cost: CostRecord
    node_kind: str = "M"

    def __post_init__(self):
        if self.node_kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.node_kind!r}")


def _first_appearance_codes(targets: tuple) -> tuple:
    """(codes, distinct targets): targets numbered in first-appearance order."""
    index = {y: i for i, y in enumerate(dict.fromkeys(targets))}
    codes = np.fromiter(map(index.__getitem__, targets), dtype=np.intp, count=len(targets))
    return codes, tuple(index)


def _numeric_prefix(ids: tuple) -> np.ndarray:
    """The letters before the first non-numeric one, as floats."""
    vals = []
    for lid in ids:
        try:
            vals.append(float(lid))
        except ValueError:
            break
    return np.array(vals, dtype=np.float64)


def deterministic_codes(t: Transform, input: Alphabet) -> tuple:
    """(codes, out_ids) of a deterministic step on an enumerated input.

    ``codes[i]`` is the index in ``out_ids`` of the output letter that input
    letter ``i`` maps to; ``out_ids`` lists the output letters in order of
    first appearance along the input letters.
    """
    k = t.kind
    if isinstance(k, Grouping):
        ids = input.letter_ids()
        try:
            targets = tuple(map(k.mapping.__getitem__, ids))
        except KeyError:
            missing = [i for i in ids if i not in k.mapping]
            raise ValueError(f"partial mapping: unmapped letters {missing[:3]}") from None
        return _first_appearance_codes(targets)
    if isinstance(k, Quantizer):
        if k.boundaries is None:
            raise ValueError("mode mismatch: symbolic quantizer has no letter map")
        ids = input.letter_ids()
        try:
            v = np.fromiter(map(float, ids), dtype=np.float64, count=len(ids))
        except ValueError:
            v = _numeric_prefix(ids)
        b = k.boundaries
        outside = ~((v >= b[0]) & (v <= b[-1]))  # NaN is outside too
        if outside.any():
            lid = ids[int(outside.argmax())]
            raise ValueError(f"partial mapping: letter {lid!r} outside bin range")
        if len(v) < len(ids):
            raise ValueError(f"partial mapping: letter {ids[len(v)]!r} is not numeric")
        # closed-left/open-right; last bin closed on the right
        bins = np.minimum(np.searchsorted(b, v, side="right") - 1, k.levels - 1)
        codes, seen = _first_appearance_codes(tuple(bins.tolist()))
        return codes, tuple(f"bin{i}" for i in seen)
    raise ValueError("mode mismatch: transform is not deterministic")


def deterministic_map(t: Transform, input: Alphabet) -> dict:
    """Input-letter-id -> output-letter-id map for deterministic kinds."""
    codes, out_ids = deterministic_codes(t, input)
    return dict(zip(input.letter_ids(), map(out_ids.__getitem__, codes.tolist())))


def _has_codes(k: Kind) -> bool:
    """Whether a step of kind ``k`` compiles to a letter code array."""
    return isinstance(k, Grouping) or (isinstance(k, Quantizer) and k.boundaries is not None)


class Step:
    """One transform on one input alphabet. A grouping or an enumerated
    quantizer is compiled here, once, to read-only ``codes`` and to
    ``out_ids`` (as ``deterministic_codes``); for any other kind both are
    None. Take steps from ``compiled``, which shares a live compiled one."""

    __slots__ = ("transform", "input", "codes", "out_ids", "__weakref__")

    def __init__(self, transform: Transform, input: Alphabet):
        self.transform, self.input = transform, input
        self.codes = self.out_ids = None
        if _has_codes(transform.kind):
            if not input.is_enumerated:
                raise ValueError("mode mismatch: deterministic transform requires enumerated input")
            self.codes, self.out_ids = deterministic_codes(transform, input)
            self.codes.setflags(write=False)  # the step is shared: see ``compiled``

    def output(self, name: Optional[str] = None) -> Alphabet:
        """Image alphabet of the input under the transform."""
        t, input = self.transform, self.input
        k = t.kind
        name = name or f"{t.name}({input.name})"

        if self.codes is not None:
            # bincount adds in input order, like a running sum per output letter
            q = np.bincount(self.codes, weights=input.prob_vector(), minlength=len(self.out_ids))
            return Alphabet(name, Pmf.from_vector(self.out_ids, q))

        if isinstance(k, DeclaredHuman):
            return k.output

        if isinstance(k, Aggregator):
            m = input.model
            if not isinstance(m, Product):
                raise ValueError("mode mismatch: aggregator requires a product alphabet")
            if m.count % k.window != 0:
                raise ValueError("window does not divide the factor count")
            return Alphabet(name, Product(m.factor, m.count // k.window))

        if isinstance(k, Quantizer) and k.boundaries is None:
            m = input.model
            if not isinstance(m, Product) or not isinstance(m.factor.model, Symbolic):
                raise ValueError(
                    "mode mismatch: symbolic quantizer requires a product of symbolic factors"
                )
            bits = math.log2(k.levels)
            f = m.factor.model
            clamped = Alphabet(
                f"{m.factor.name}@{k.levels}",
                Symbolic(min(f.entropy_bits, bits), min(f.max_entropy_bits, bits)),
            )
            return Alphabet(name, Product(clamped, m.count))

        if isinstance(k, Channel):
            if not input.is_enumerated:
                raise ValueError("mode mismatch: channel requires an enumerated alphabet")
            return Alphabet(name, Pmf.from_vector(k.outputs, _channel_input(k, input) @ k.as_array()))

        raise ValueError("mode mismatch: transform is not deterministic")

    def mutual_information(self) -> float:
        """I(input; output) in bits; the output entropy for a compiled step,
        and from the joint distribution for a channel."""
        if self.codes is not None:
            return _kernels.entropy_bits(np.bincount(self.codes, weights=self.input.prob_vector()))
        if not self.input.is_enumerated:
            raise ValueError("requires enumerated model")
        k = self.transform.kind
        if isinstance(k, Quantizer):  # one with boundaries has codes
            raise ValueError("mode mismatch: symbolic quantizer has no letter map")
        if not isinstance(k, Channel):
            raise ValueError("mode mismatch: no joint distribution for this transform kind")
        return _kernels.mi_bits(_channel_input(k, self.input)[:, None] * k.as_array())

    def grouping_residual(self) -> float:
        """Residual of the grouping identity H(X) = H(Y) + sum_k q(y_k) H_k
        of a compiled step.

        One pass over the letters: ``q`` is the per-code sum of ``p``, and
        each local entropy H_k is the per-code sum of -(p/q_k) log2(p/q_k)
        over the letters of group k.
        """
        codes = self.codes
        p = self.input.prob_vector()
        q = np.bincount(codes, weights=p)
        live = p > 0.0  # 0 log 0 := 0; a group with q_k = 0 has H_k = 0
        r = p[live] / q[codes[live]]
        h_local = np.bincount(codes[live], weights=-r * np.log2(r), minlength=len(q))

        h_x = _kernels.entropy_bits(p)
        h_y = _kernels.entropy_bits(q)
        return abs(h_x - h_y - math.fsum(q * h_local))


# (id(transform), id(input)) -> the live compiled Step of that pair. The
# step holds both objects, so neither id is reused while its entry lives,
# and the entry goes with the step's last reference
_compiled = weakref.WeakValueDictionary()


def compiled(t: Transform, input: Alphabet) -> Step:
    """The Step of ``t`` on ``input``. A code-bearing step (a grouping, or a
    quantizer with boundaries) is compiled once and shared for as long as
    any caller holds it; any other step has nothing to compile, and is
    built on each call."""
    if not _has_codes(t.kind):
        return Step(t, input)
    key = (id(t), id(input))
    step = _compiled.get(key)
    if step is None:
        step = _compiled[key] = Step(t, input)  # a step that raises is not kept
    return step


def pushforward(t: Transform, input: Alphabet, name: Optional[str] = None) -> Alphabet:
    """Image alphabet of ``input`` under ``t``."""
    return compiled(t, input).output(name)


def _channel_input(k: Channel, input: Alphabet) -> np.ndarray:
    """The input's probabilities aligned with the channel's ``inputs``."""
    if set(input.letter_ids()) != set(k.inputs):
        raise ValueError("partial mapping: channel inputs do not match alphabet")
    return input.model.aligned(k.inputs)


def mutual_information(t: Transform, input: Alphabet) -> float:
    """I(input; output) in bits; equals output entropy for deterministic kinds."""
    if not input.is_enumerated:
        raise ValueError("requires enumerated model")
    return compiled(t, input).mutual_information()


def _as_channel(t: Transform) -> Channel:
    k = t.kind
    if isinstance(k, Channel):
        return k
    if isinstance(k, Grouping):
        codes, outputs = _first_appearance_codes(tuple(k.mapping.values()))
        rows = tuple(map(tuple, np.eye(len(outputs))[codes].tolist()))
        return Channel(tuple(k.mapping), outputs, rows)
    raise ValueError("mode mismatch: cannot compose this transform kind")


def compose(t1: Transform, t2: Transform) -> Transform:
    """Transform equivalent to applying ``t1`` then ``t2``; costs add."""
    cost = t1.cost + t2.cost  # raises on kind/unit mismatch
    k1, k2 = t1.kind, t2.kind
    name = f"{t1.name}>{t2.name}"
    if isinstance(k1, Grouping) and isinstance(k2, Grouping):
        missing = [v for v in set(k1.mapping.values()) if v not in k2.mapping]
        if missing:
            raise ValueError(f"partial mapping: unmapped letters {missing[:3]}")
        mapping = {i: k2.mapping[k1.mapping[i]] for i in k1.mapping}
        return Transform(name, Grouping(mapping), cost, t2.node_kind)
    c1, c2 = _as_channel(t1), _as_channel(t2)
    if set(c1.outputs) - set(c2.inputs):
        raise ValueError("partial mapping: intermediate letters not covered")
    idx = {i: j for j, i in enumerate(c2.inputs)}
    m1 = c1.as_array()
    m2 = c2.as_array()[[idx[o] for o in c1.outputs], :]
    mat = m1 @ m2
    rows = tuple(tuple(float(v) for v in row) for row in mat)
    return Transform(name, Channel(c1.inputs, c2.outputs, rows), cost, t2.node_kind)

