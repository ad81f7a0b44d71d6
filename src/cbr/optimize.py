"""Discrete parameter search maximizing the overall cost-benefit ratio.

Parameter spaces are finite candidate lists attached to named transforms,
reconstructions or edges. Exhaustive search is the certified route up to a
combination cap; coordinate-ascent with seeded restarts covers larger
spaces without a global-optimum guarantee.
"""

import itertools
import math
import os
import random
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .alphabet import Alphabet
from .transform import (
    Aggregator,
    DeclaredHuman,
    Quantizer,
    Transform,
    _count,
)
from .metrics import entropy_function
from .reconstruction import DeclaredDivergence, Reconstruction
from .workflow import AlphabetMismatch, Edge, Interval, WorkflowGraph

DEFAULT_SEED = 0x9E3779B97F4A7C15  # documented fixed seed; override with CBR_SEED
EXHAUSTIVE_CAP = 10**6


@dataclass(frozen=True)
class Dimension:
    target: str  # "transform:<name>", "reconstruction:<name>" or "edge:<src>-><dst>"
    field: str
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("dimension needs at least one candidate value")
        scope = self.target.split(":", 1)[0]
        if scope not in ("transform", "reconstruction", "edge"):
            raise ValueError(f"unknown dimension target {self.target!r}")


@dataclass(frozen=True)
class ParamSpace:
    dimensions: tuple

    def __post_init__(self):
        seen = set()
        for d in self.dimensions:
            if (d.target, d.field) in seen:
                raise ValueError(f"duplicate dimension {d.target}.{d.field}")
            seen.add((d.target, d.field))

    def combination_count(self) -> int:
        return math.prod(len(d.values) for d in self.dimensions)

    def assignments(self):
        """All assignments in lexicographic (dimension-order) order."""
        for combo in itertools.product(*(d.values for d in self.dimensions)):
            yield {(d.target, d.field): v for d, v in zip(self.dimensions, combo)}


@dataclass
class OptimizeResult:
    best_assignment: dict
    best_cbr: Interval
    best_cost: float
    frontier: list  # nondominated (cost, benefit) points, cost ascending
    evaluations: int
    certified: bool
    records: list = field(default_factory=list)  # (assignment, cost, benefit, cbr)
    skipped: int = 0  # assignments whose branches disagree at a joint: no record
    first_skip: str = ""  # the first one's mismatch


def _seed() -> int:
    env = os.environ.get("CBR_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"CBR_SEED must be an integer, got {env!r}") from None


def _uniform_boundaries(lo: float, hi: float, k: int) -> tuple:
    step = (hi - lo) / k
    return tuple(lo + i * step for i in range(k)) + (hi,)


def _number(value) -> float:
    """``value`` as a cost or a bit count: a number, as the schema reads one."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _apply_to_transform(t: Transform, field_name: str, value, input: Alphabet) -> Transform:
    k = t.kind
    if field_name == "cost_amount":
        return replace(t, cost=replace(t.cost, amount=_number(value)))
    if field_name == "bins":
        if not isinstance(k, Quantizer):
            raise ValueError(f"{t.name} is not a quantizer")
        bins = _count(value)
        if k.boundaries is None:
            return replace(t, kind=Quantizer(bins, None))
        # checked before any boundary is built: they take O(bins) time and memory
        letters = len(input.letter_ids())
        if bins > letters:
            raise ValueError(f"{t.name} has more bins than the {letters} letters of its input")
        lo, hi = k.boundaries[0], k.boundaries[-1]
        return replace(t, kind=Quantizer(bins, _uniform_boundaries(lo, hi, bins)))
    if field_name == "window":
        if not isinstance(k, Aggregator):
            raise ValueError(f"{t.name} is not an aggregator")
        return replace(t, kind=replace(k, window=_count(value)))
    if field_name == "declared_distortion_bits":
        if not isinstance(k, DeclaredHuman):
            raise ValueError(f"{t.name} is not a declared step")
        return replace(t, kind=replace(k, declared_distortion_bits=_number(value)))
    raise ValueError(f"unknown transform field {field_name!r}")


def _apply(g: WorkflowGraph, e: Edge, target: str, field_name: str, value):
    """``value`` applied as ``field_name`` to the part of edge ``e`` of ``g``
    that ``target`` names: a new transform or reconstruction, or the edge's
    ``enabled`` flag; None when ``target`` names no part of ``e``.

    Raises ValueError for a field that does not apply to that part, or a
    value that the field rejects.
    """
    scope, name = target.split(":", 1)
    t, r = e.transform, e.reconstruction
    try:
        if scope == "transform" and t.name == name:
            return _apply_to_transform(t, field_name, value, g.nodes[e.src])
        if scope == "reconstruction" and r is not None and r.name == name:
            if field_name != "declared_bits":
                raise ValueError(f"unknown reconstruction field {field_name!r}")
            if not isinstance(r.kind, DeclaredDivergence):
                raise ValueError(f"{r.name} is not a declared divergence")
            return replace(r, kind=DeclaredDivergence(_number(value)))
        if scope == "edge" and name == f"{e.src}->{e.dst}":
            if field_name != "enabled":
                raise ValueError(f"unknown edge field {field_name!r}")
            if not isinstance(value, bool):
                raise TypeError(f"{value!r} is not true or false")
            return value
    except (TypeError, OverflowError) as exc:  # null, a list, a fraction, or too large a number
        raise ValueError(f"bad value for {target}.{field_name}: {exc}") from None
    return None


def apply_dimension(g: WorkflowGraph, d: Dimension) -> list:
    """``d``'s values applied, in order, to the transform or reconstruction
    of ``g`` that it names (to an edge: the ``enabled`` flags); empty when
    it names nothing in ``g``, which changes nothing, as in ``apply_assignment``.

    Raises the ValueError that a search raises on ``d``: a field that does
    not apply to the target, or a value that the field rejects.
    """
    for e in g.edges:
        first = _apply(g, e, d.target, d.field, d.values[0])
        if first is not None:
            return [first] + [_apply(g, e, d.target, d.field, v) for v in d.values[1:]]
    return []


def apply_assignment(g: WorkflowGraph, assignment: dict) -> WorkflowGraph:
    """Rebuild the graph with parameters applied.

    Sources keep their alphabets; every node that an edge feeds is derived
    again by the new graph, so parameter changes flow downstream.
    """
    edges = []
    for e in g.edges:
        enabled = True
        for (target, field_name), value in assignment.items():
            applied = _apply(g, e, target, field_name, value)
            if isinstance(applied, Transform):
                e = replace(e, transform=applied)
            elif isinstance(applied, Reconstruction):
                e = replace(e, reconstruction=applied)
            elif applied is not None:
                enabled = applied
        if enabled:
            edges.append(e)

    fed = {e.dst for e in edges}
    used = {e.src for e in edges} | fed | {g.decisional}
    nodes = {n: None if n in fed else a for n, a in g.nodes.items() if n in used}
    return WorkflowGraph(nodes, edges, decisional=g.decisional)


def evaluate(
    g: WorkflowGraph,
    entropy_mode: str = "actual",
    merge: str = "sum",
) -> tuple:
    """(cost amount, benefit interval, cbr interval) for one instantiation."""
    cost = g.total_cost(merge)
    ben = g.total_benefit(entropy_mode)
    return cost.amount, ben, ben.scale(1.0 / cost.amount)


def _is_cost_only(d: Dimension) -> bool:
    return d.target.startswith("transform:") and d.field == "cost_amount"


class _Evaluator:
    """Evaluates the assignments of one space on one graph, each given as
    one value index per dimension.

    Benefit has no cost term, so a ``cost_amount`` dimension changes only
    the divisor of the ratio. The graph and its benefit are built once per
    structural sub-assignment (every other dimension); the cost-only
    dimensions enter as candidate amounts in ``WorkflowGraph.cost_amounts``.
    """

    def __init__(self, g: WorkflowGraph, space: ParamSpace, entropy_mode: str, merge: str,
                 revisits: bool):
        entropy_function(entropy_mode)  # an unknown mode raises before any evaluation
        self.g, self.entropy_mode, self.merge = g, entropy_mode, merge
        self.dims = dims = space.dimensions
        self.keys = [(d.target, d.field) for d in dims]
        self.first_skip = None
        self.structural = [i for i, d in enumerate(dims) if not _is_cost_only(d)]
        self.cost_only = [i for i, d in enumerate(dims) if _is_cost_only(d)]
        # dimension index -> (transform name, validated amount per value); a
        # dimension naming no transform of the graph changes nothing
        self.amounts = {}
        for i, d in enumerate(dims):
            applied = apply_dimension(g, d)  # every dimension, so that a bad one raises here
            if applied and _is_cost_only(d):
                self.amounts[i] = d.target.split(":", 1)[1], np.array([t.cost.amount for t in applied])
        # structural value indices -> structure(), for a search that comes back
        # to them; a graph holds kilobytes, and exhaustive search visits each once
        self._structures = {} if revisits else None

    def structure(self, picks: tuple) -> Optional[tuple]:
        """(graph, benefit interval) with the structural values at ``picks``
        applied, built once; None when its branches disagree at a joint:
        the first such mismatch is kept as ``first_skip``."""
        memo = self._structures
        if memo is not None and picks in memo:
            return memo[picks]
        try:
            graph = apply_assignment(self.g, {
                self.keys[i]: self.dims[i].values[k] for i, k in zip(self.structural, picks)
            })
            built = graph, graph.total_benefit(self.entropy_mode)
        except AlphabetMismatch as exc:
            self.first_skip = self.first_skip or exc
            built = None
        if memo is not None:
            memo[picks] = built
        return built

    def table(self, candidates: list) -> tuple:
        """Every assignment that takes one of ``candidates[i]`` (value
        indices) for each dimension i, in lexicographic order: a mask of
        those kept, and their records and cost, benefit-midpoint and score
        arrays.

        Each structural sub-assignment fills the cost-only axes of its
        block with one broadcast cost array and one benefit interval. A
        sub-assignment whose branches disagree at a joint is skipped, with
        its whole block.
        """
        shape = tuple(map(len, candidates))
        cost_shape = tuple(shape[i] for i in self.cost_only)
        columns = {
            name: amounts[candidates[i]].reshape([-1 if j == i else 1 for j in self.cost_only])
            for i, (name, amounts) in self.amounts.items()
        }
        cost = np.empty(shape)
        block = np.empty(shape, dtype=np.intp)
        blocks = []  # (benefit, the block's one cost when no cost dimension reaches it)
        index = [slice(None)] * len(shape)
        for picks in itertools.product(*(enumerate(candidates[i]) for i in self.structural)):
            for i, (at, _) in zip(self.structural, picks):
                index[i] = at
            at = tuple(index)
            built = self.structure(tuple(k for _, k in picks))
            if built is None:
                block[at] = -1
                continue
            graph, ben = built
            total = graph.cost_amounts(self.merge, columns)
            cost[at] = np.broadcast_to(total, cost_shape)
            block[at] = len(blocks)
            blocks.append((ben, None if np.ndim(total) else total))

        kept = block.ravel() >= 0
        cost, block = cost.ravel()[kept], block.ravel()[kept]
        ben_lo = np.array([ben.lo for ben, _ in blocks])[block]
        ben_hi = np.array([ben.hi for ben, _ in blocks])[block]
        # Interval.scale and Interval.midpoint, elementwise
        inv = 1.0 / cost
        a, b = ben_lo * inv, ben_hi * inv
        cbr_lo, cbr_hi = np.minimum(a, b), np.maximum(a, b)
        score = 0.5 * (cbr_lo + cbr_hi)
        records = [
            ({key: d.values[k] for key, d, k in zip(self.keys, self.dims, row)},
             c if fixed is None else fixed, ben, Interval(lo, hi))
            for row, c, (ben, fixed), lo, hi in zip(
                itertools.compress(itertools.product(*candidates), kept), cost.tolist(),
                map(blocks.__getitem__, block.tolist()), cbr_lo.tolist(), cbr_hi.tolist())
        ]
        return kept, records, cost, 0.5 * (ben_lo + ben_hi), score


def _frontier(cost: np.ndarray, benefit: np.ndarray) -> np.ndarray:
    """Indices of the nondominated (cost, benefit) points, cost ascending:
    sort by (cost, -benefit), then keep each point whose benefit beats
    every point before it."""
    order = np.lexsort((-benefit, cost))
    benefit = benefit[order]
    best_before = np.maximum.accumulate(np.concatenate(([-np.inf], benefit[:-1])))
    return order[benefit > best_before]


def _best(cost: np.ndarray, score: np.ndarray, budget: Optional[float]) -> Optional[int]:
    """Index of the highest score within ``budget``, then the lowest cost,
    then the first; None when no cost is within it."""
    feasible = np.arange(cost.size) if budget is None else (
        np.flatnonzero(cost <= budget + 1e-12))
    if not feasible.size:
        return None
    return int(feasible[np.lexsort((cost[feasible], -score[feasible]))[0]])


def _result(ev: _Evaluator, records: list, cost: np.ndarray, benefit: np.ndarray,
            score: np.ndarray, skipped: int, budget: Optional[float],
            certified: bool) -> OptimizeResult:
    """The result of a search that evaluated ``records``, one per
    assignment, with their cost, benefit-midpoint and score arrays; it
    raises the first mismatch when every assignment was skipped."""
    if not records:
        raise ev.first_skip
    best = _best(cost, score, budget)
    if best is None:
        raise ValueError("infeasible budget")
    assignment, best_cost, _, best_cbr = records[best]
    return OptimizeResult(
        best_assignment=assignment,
        best_cbr=best_cbr,
        best_cost=best_cost,
        frontier=[(records[i][1], records[i][2].midpoint) for i in _frontier(cost, benefit)],
        evaluations=len(records),
        certified=certified,
        records=records,
        skipped=skipped,
        first_skip=str(ev.first_skip or ""),
    )


def exhaustive_search(
    g: WorkflowGraph,
    space: ParamSpace,
    budget: Optional[float] = None,
    entropy_mode: str = "actual",
    merge: str = "sum",
) -> OptimizeResult:
    """Evaluate every assignment; certified global argmax of the CBR
    midpoint within ``budget``, an amount in the graph's cost unit.

    An assignment whose branches disagree at a joint is skipped; when
    every one is, the first mismatch is raised.
    """
    count = space.combination_count()
    if count > EXHAUSTIVE_CAP:
        raise ValueError(
            f"parameter space has {count} combinations, over the exhaustive cap "
            f"{EXHAUSTIVE_CAP}; use greedy_search"
        )
    ev = _Evaluator(g, space, entropy_mode, merge, revisits=False)
    kept, records, *arrays = ev.table([range(len(d.values)) for d in space.dimensions])
    return _result(ev, records, *arrays, kept.size - len(records), budget, certified=True)


def greedy_search(
    g: WorkflowGraph,
    space: ParamSpace,
    budget: Optional[float] = None,
    restarts: int = 1,
    entropy_mode: str = "actual",
    merge: str = "sum",
    seed: Optional[int] = None,
) -> OptimizeResult:
    """Coordinate ascent from seeded random starts; local optimum only.

    From each start, each dimension in turn scores its line (every value
    of that dimension, the others fixed) and moves to the line's best when
    that scores strictly higher. Each assignment is evaluated once; an
    assignment that ``exhaustive_search`` would skip is not evaluated."""
    if restarts < 1:
        raise ValueError("restarts must be positive")
    rng = random.Random(_seed() if seed is None else seed)
    ev = _Evaluator(g, space, entropy_mode, merge, revisits=True)
    sizes = [len(d.values) for d in space.dimensions]
    evaluated = {}  # assignment -> (record, cost, benefit, score), in first-visit order
    visited = set()  # skipped assignments too

    def best_of(candidates):
        """(score, assignment) of the best of ``candidates`` within budget, or None."""
        kept, records, cost, benefit, score = ev.table(candidates)
        every = list(itertools.product(*candidates))
        visited.update(every)
        rows = list(itertools.compress(every, kept))
        for row, *values in zip(rows, records, cost, benefit, score):
            evaluated.setdefault(row, values)
        best = _best(cost, score, budget)
        return None if best is None else (score[best], rows[best])

    for _ in range(restarts):
        # the value indices drawn are those of the values rng.choice(d.values) draws
        at = tuple(rng.choice(range(n)) for n in sizes)
        found = best_of([[k] for k in at])
        current = None if found is None else found[0]
        improved = True
        while improved:
            improved = False
            for i, n in enumerate(sizes):
                line = [[k] for k in at]
                line[i] = range(n)
                found = best_of(line)
                if found is not None and (current is None or found[0] > current):
                    (current, at), improved = found, True
    records, cost, benefit, score = zip(*evaluated.values()) if evaluated else ((),) * 4
    return _result(ev, list(records), np.array(cost), np.array(benefit), np.array(score),
                   len(visited) - len(evaluated), budget, certified=False)


def frontier_csv(result: OptimizeResult) -> str:
    """Nondominated evaluations as CSV, one row per frontier point."""
    lines = ["assignment,cost,benefit_lo,benefit_hi,cbr_mid"]
    frontier = set(result.frontier)
    seen = set()
    for assignment, cost, ben, cbr in result.records:
        key = (cost, ben.midpoint)
        if key in frontier and key not in seen:
            seen.add(key)
            desc = ";".join(
                f"{target}.{field_name}={value}"
                for (target, field_name), value in sorted(assignment.items())
            )
            lines.append(f"{desc},{cost},{ben.lo},{ben.hi},{cbr.midpoint}")
    return "\n".join(lines) + "\n"
