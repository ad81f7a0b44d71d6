"""Workflow graphs: DAGs of alphabets connected by transforms.

Per-edge metrics telescope into an overall benefit. Sequential segments
give exact point values; parallel joints give intervals, because the
combined benefit at a joint is only bounded, not determined: machine-only
branches are capped by the entropy at the fork, human-involved branches
range between the maximum and the sum of the arriving benefits.
"""

import functools
from dataclasses import dataclass, field, replace
from typing import Optional

import networkx as nx
import numpy as np

from .alphabet import Alphabet, entropy, max_entropy
from .transform import CostRecord, Transform, DeclaredHuman, compiled
from .reconstruction import Reconstruction, step_distortion
from .metrics import StepMetrics, entropy_function

MERGES = ("sum", "max_parallel")  # how cost accumulates: over all edges, or along the critical path


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi + 1e-12:
            raise ValueError("interval lo exceeds hi")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    def scale(self, factor: float) -> "Interval":
        a, b = self.lo * factor, self.hi * factor
        return Interval(min(a, b), max(a, b))


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    transform: Transform
    reconstruction: Optional[Reconstruction] = None


@dataclass(frozen=True)
class OverallMetrics:
    total_cost: CostRecord
    total_benefit_bits: Interval
    overall_cbr: Interval


@dataclass
class MetricsReport:
    entropy_mode: str
    per_edge: dict  # transform name -> StepMetrics
    overall: OverallMetrics
    notes: list = field(default_factory=list)


def _alphabets_close(a: Alphabet, b: Alphabet) -> bool:
    if a.is_enumerated != b.is_enumerated:
        return False
    if a.is_enumerated:
        ids_a, ids_b = a.letter_ids(), b.letter_ids()
        if ids_a != ids_b and (len(ids_a) != len(ids_b) or set(ids_a) != set(ids_b)):
            return False
        return bool(np.all(np.abs(a.prob_vector() - b.model.aligned(ids_a)) <= 1e-9))
    return (
        abs(entropy(a) - entropy(b)) <= 1e-6
        and abs(max_entropy(a) - max_entropy(b)) <= 1e-6
    )


class AlphabetMismatch(ValueError):
    """An edge's pushforward differs from the alphabet of its target node."""


def _check_scored(e: Edge) -> None:
    if e.reconstruction is None and not isinstance(e.transform.kind, DeclaredHuman):
        raise ValueError(f"unscored edge: {e.transform.name}")


class WorkflowGraph:
    """Validated DAG with exactly one decisional sink alphabet.

    The structure (topological order, in- and out-edges, each joint's fork)
    and each edge's ``Step``, with its letter codes, are computed once, here;
    so is each node given as None, as the image of its first in-edge.
    Each edge's D_KL is computed once, and its ``StepMetrics`` (H(in),
    H(out) and that D_KL) once per entropy mode, when first needed; every
    per-edge, path and total measure reads it.
    """

    def __init__(self, nodes: dict, edges: list, decisional: Optional[str] = None):
        self.nodes = dict(nodes)
        self.edges = list(edges)

        # every edge, in edge order: two edges from one node to another are
        # parallel branches, and their target is a joint
        self._in: dict = {n: [] for n in self.nodes}
        self._out: dict = {n: [] for n in self.nodes}
        first_in = {}  # node -> index of its first in-edge
        named = set()  # per-edge results are keyed by transform name
        for i, e in enumerate(self.edges):
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise ValueError(f"dangling reference: edge {e.src}->{e.dst}")
            if e.transform.name in named:
                raise ValueError(f"transform {e.transform.name!r} is on more than one edge")
            named.add(e.transform.name)
            self._out[e.src].append(e)
            self._in[e.dst].append(e)
            first_in.setdefault(e.dst, i)
        # networkx sees node names only, and is not kept; it checks for a
        # cycle and gives the order, and no result depends on which order
        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from((e.src, e.dst) for e in self.edges)
        if not nx.is_directed_acyclic_graph(g):
            raise ValueError("workflow graph must be acyclic")
        self._order = tuple(nx.topological_sort(g))

        # one Step per edge, in edge order: nodes given as None are derived
        # first, in topological order; then every other edge must match its target
        steps = self._steps = [None] * len(self.edges)
        for n in self._order:
            if self.nodes[n] is None:
                if n not in first_in:
                    raise ValueError(f"node {n} has no alphabet and no in-edge")
                e = self.edges[first_in[n]]
                steps[first_in[n]] = step = compiled(e.transform, self.nodes[e.src])
                self.nodes[n] = step.output(n)
        for i, e in enumerate(self.edges):
            if steps[i] is None:
                steps[i] = step = compiled(e.transform, self.nodes[e.src])
                if not _alphabets_close(step.output(), self.nodes[e.dst]):
                    raise AlphabetMismatch(
                        f"edge {e.transform.name}: pushforward does not match node {e.dst}"
                    )

        sinks = [n for n in self.nodes if not self._out[n]]
        if decisional is None:
            if len(sinks) != 1:
                raise ValueError("exactly one decisional sink required")
            decisional = sinks[0]
        elif decisional not in sinks:
            raise ValueError("decisional node must be a sink")
        elif len(sinks) != 1:
            raise ValueError("exactly one decisional sink required")
        self.decisional = decisional

        # each node's ancestors, itself included, as a bitset over positions
        # in the topological order, filled along that order
        bit = {n: 1 << i for i, n in enumerate(self._order)}
        anc = {}
        for n in self._order:
            anc[n] = bit[n]
            for e in self._in[n]:
                anc[n] |= anc[e.src]

        # joint -> (fork, node kinds of the edges between fork and joint). The
        # fork is the lowest common ancestor of the in-edges' sources: the one
        # common ancestor from which no other common ancestor descends. Joints
        # are taken by name, so that the first error does not depend on order
        self._joints = {}
        for n in sorted(self.nodes):
            if len(self._in[n]) < 2:
                continue
            common = -1  # every bit set
            for e in self._in[n]:
                common &= anc[e.src]
            if not common:
                raise ValueError(f"no common branch point for joint {n}")
            above = 0  # common ancestors of another common ancestor
            for c in self.nodes:
                if common & bit[c]:
                    above |= anc[c] ^ bit[c]
            lowest = sorted(c for c in self.nodes if common & ~above & bit[c])
            if len(lowest) > 1:
                raise ValueError(f"joint {n} has several branch points: {', '.join(lowest)}")
            fork = lowest[0]
            kinds = frozenset(
                e.transform.node_kind
                for e in self.edges
                if anc[e.src] & bit[fork] and anc[n] & bit[e.dst]
            )
            self._joints[n] = fork, kinds
        self._records: dict = {}  # (edge index, entropy mode) -> StepMetrics
        self._d_kl: dict = {}  # edge index -> D_KL, which no entropy mode changes

    # -- analysis ---------------------------------------------------------

    def _record(self, i: int, entropy_mode: str) -> StepMetrics:
        """The StepMetrics of edge ``i``, built once per entropy mode over
        the edge's one D_KL."""
        key = (i, entropy_mode)
        if key not in self._records:
            h = entropy_function(entropy_mode)
            e, step = self.edges[i], self._steps[i]
            if i not in self._d_kl:
                self._d_kl[i] = step_distortion(e.reconstruction, step)
            self._records[key] = StepMetrics(
                h(step.input), h(self.nodes[e.dst]), self._d_kl[i], e.transform.cost,
                entropy_mode)
        return self._records[key]

    def edge_metrics(self, entropy_mode: str = "actual") -> dict:
        """Transform name -> StepMetrics, in edge order. Benefit is defined
        on every edge; a ratio on a zero-entropy input raises when read."""
        out = {}
        for i, e in enumerate(self.edges):
            _check_scored(e)
            out[e.transform.name] = self._record(i, entropy_mode)
        return out

    def total_cost(self, merge: str = "sum") -> CostRecord:
        amount = self.cost_amounts(merge)  # checks that the edges share one kind
        return replace(self.edges[0].transform.cost, amount=amount)

    def cost_amounts(self, merge: str = "sum", amounts: Optional[dict] = None):
        """Total cost amount under ``merge``.

        ``amounts`` maps a transform name to candidate amounts (a numpy
        array) that replace its own; the totals then broadcast over them,
        one per combination, each equal to the total for that combination.
        """
        if merge not in MERGES:
            raise ValueError(f"unknown cost merge {merge!r}")
        kinds = {(e.transform.cost.kind, e.transform.cost.unit) for e in self.edges}
        if len(kinds) != 1:
            raise ValueError("incommensurable costs")
        amounts = amounts or {}

        def amount(e):
            return amounts.get(e.transform.name, e.transform.cost.amount)

        if merge == "sum":
            # plain adds in edge order, so floats and arrays round alike (the
            # built-in sum of floats is compensated from Python 3.12 on);
            # integer amounts keep an integer total, as the built-in sum does
            total = 0
            for e in self.edges:
                total = total + amount(e)
            return total
        # time semantics: critical-path accumulation, maximum at each joint
        acc = {n: 0.0 for n in self.nodes}
        for n in self._order:
            incoming = self._in[n]
            if incoming:
                acc[n] = functools.reduce(
                    np.maximum, [acc[e.src] + amount(e) for e in incoming]
                )
        total = acc[self.decisional]
        return total if np.ndim(total) else float(total)  # np.maximum gives numpy scalars

    def total_benefit(self, entropy_mode: str = "actual") -> Interval:
        """Benefit interval accumulated from sources to the decisional sink."""
        h = entropy_function(entropy_mode)
        per_edge = self.edge_metrics(entropy_mode)
        acc: dict = {}
        for n in self._order:
            incoming = self._in[n]
            if not incoming:
                acc[n] = Interval(0.0, 0.0)
            elif len(incoming) == 1:
                e = incoming[0]
                acc[n] = acc[e.src] + per_edge[e.transform.name].benefit_bits
            else:
                fork, branch_kinds = self._joints[n]
                base = acc[fork]
                # each branch less the fork, bound by bound: plain floats, as
                # a branch narrower than a joint fork's interval inverts them
                totals = [acc[e.src] + per_edge[e.transform.name].benefit_bits for e in incoming]
                lo = max(t.lo - base.lo for t in totals)
                hi = sum(t.hi - base.hi for t in totals)
                if branch_kinds <= {"M"}:
                    hi = min(hi, h(self.nodes[fork]))
                acc[n] = base + Interval(min(lo, hi), hi)
        return acc[self.decisional]

    def overall_cbr(self, merge: str = "sum", entropy_mode: str = "actual") -> Interval:
        cost = self.total_cost(merge)
        return self.total_benefit(entropy_mode).scale(1.0 / cost.amount)

    def analyze(self, entropy_mode: str = "actual", merge: str = "sum") -> MetricsReport:
        per_edge = self.edge_metrics(entropy_mode)
        cost = self.total_cost(merge)
        ben = self.total_benefit(entropy_mode)
        overall = OverallMetrics(cost, ben, ben.scale(1.0 / cost.amount))
        notes = []
        if entropy_mode == "maximal":
            notes.append("entropies reported are maximal (uniform-distribution) values")
        return MetricsReport(entropy_mode, per_edge, overall, notes)

    def path_metrics(self, node_path: list, entropy_mode: str = "actual") -> tuple:
        """(benefit, cost) summed along a given node path."""
        b = c = 0.0
        for e, m in self._hops(node_path, entropy_mode):
            b += m.benefit_bits
            c += e.transform.cost.amount
        return b, c

    def _hops(self, node_path: list, entropy_mode: str):
        """Yield (edge, StepMetrics) for each hop of a node path; a hop with
        no edge, or with parallel edges, which a node path cannot tell
        apart, raises when it is reached."""
        entropy_function(entropy_mode)  # an unknown mode raises on a path of no hops too
        for src, dst in zip(node_path, node_path[1:]):
            hop = [e for e in self._out.get(src, ()) if e.dst == dst]
            if not hop:
                raise ValueError(f"no edge {src}->{dst}")
            if len(hop) > 1:
                names = ", ".join(sorted(e.transform.name for e in hop))
                raise ValueError(f"hop {src}->{dst} has parallel edges {names}: "
                                 "a node path does not choose one")
            # list.index finds hop[0] itself: an equal edge would share its hop
            yield hop[0], self._record(self.edges.index(hop[0]), entropy_mode)

    # -- export -----------------------------------------------------------

    def to_dot(self, entropy_mode: str = "actual") -> str:
        h = entropy_function(entropy_mode)
        lines = ["digraph workflow {", "  rankdir=LR;"]
        for name, a in self.nodes.items():
            label = f"{name}\\nH={h(a):.4g} bits"
            shape = "doubleoctagon" if name == self.decisional else "box"
            lines.append(f'  "{name}" [label="{label}", shape={shape}];')
        labels = [f"{e.transform.name} [{e.transform.node_kind}]" for e in self.edges]
        try:
            # every label is formatted before any is emitted: an undefined
            # ratio on one edge leaves every edge without metrics
            labels = [
                f"{label}\\nACR={m.acr:.4g} PDR={m.pdr:.4g}\\n"
                f"B={m.benefit_bits:.4g} bits CBR={m.incremental_cbr:.4g}"
                for label, m in zip(labels, self.edge_metrics(entropy_mode).values())
            ]
        except ValueError:
            pass
        for e, label in zip(self.edges, labels):
            lines.append(f'  "{e.src}" -> "{e.dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)
