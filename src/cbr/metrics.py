"""Per-step cost-benefit measures, and the table of every reported metric.

ACR, PDR and ECR are unitless ratios against the input entropy; benefit is
in bits and may be negative; incremental CBR divides benefit by the step's
cost. The machine-centric CBR variant uses mutual information in place of
an explicit reconstruction.
"""

import operator
from dataclasses import dataclass
from typing import Optional

from .alphabet import Alphabet, entropy, max_entropy
from .transform import CostRecord, Grouping, Transform, compiled, mutual_information
from .reconstruction import Reconstruction, distortion_bits

ENTROPY_MODES = ("actual", "maximal")


def entropy_function(entropy_mode: str):
    """The entropy of ``entropy_mode``: ``entropy``, or ``max_entropy``
    (the uniform-distribution value) for "maximal"."""
    if entropy_mode not in ENTROPY_MODES:
        raise ValueError(f"unknown entropy mode {entropy_mode!r}")
    return entropy if entropy_mode == "actual" else max_entropy


@dataclass(frozen=True)
class StepMetrics:
    """One step's H(in), H(out) and D_KL in bits, its cost, and the entropy
    mode of the two entropies. Every measure is derived from these when it
    is read, so an undefined ratio raises then, not when the record is built."""

    h_in: float
    h_out: float
    d_kl: float
    cost: CostRecord
    entropy_mode: str

    def __post_init__(self):
        entropy_function(self.entropy_mode)  # an unknown mode raises

    @property
    def acr(self) -> float:
        return alphabet_compression_ratio(self.h_in, self.h_out)

    @property
    def pdr(self) -> float:
        return potential_distortion_ratio(self.d_kl, self.h_in)

    @property
    def ecr(self) -> float:
        return effectual_compression_ratio(self.h_in, self.h_out, self.d_kl)

    @property
    def benefit_bits(self) -> float:
        return benefit(self.h_in, self.h_out, self.d_kl)

    @property
    def incremental_cbr(self) -> float:
        return incremental_cbr(self.benefit_bits, self.cost)


def alphabet_compression_ratio(h_in: float, h_out: float) -> float:
    """H(out)/H(in); not clamped, since human steps can raise entropy."""
    if h_in <= 0.0:
        raise ValueError("transformation unnecessary: input entropy is zero")
    return h_out / h_in


def potential_distortion_ratio(d_kl: float, h_in: float) -> float:
    if h_in <= 0.0:
        raise ValueError("transformation unnecessary: input entropy is zero")
    if d_kl < 0.0:
        raise ValueError("distortion must be non-negative")
    return d_kl / h_in


def effectual_compression_ratio(h_in: float, h_out: float, d_kl: float) -> float:
    return alphabet_compression_ratio(h_in, h_out) + potential_distortion_ratio(d_kl, h_in)


def benefit(h_in: float, h_out: float, d_kl: float) -> float:
    """H(in) - H(out) - D_KL, in bits; negative means added uncertainty."""
    if d_kl < 0.0:
        raise ValueError("distortion must be non-negative")
    return h_in - h_out - d_kl


def incremental_cbr(benefit_bits: float, cost: CostRecord) -> float:
    return benefit_bits / cost.amount


def machine_cbr(i_bits: float, h_out: float, cost: CostRecord) -> float:
    """(I(in;out) - H(out)) / cost: the perfect-inverse benefit per cost."""
    return (i_bits - h_out) / cost.amount


def step_metrics(
    t: Transform,
    g: Optional[Reconstruction],
    input: Alphabet,
    output: Alphabet,
    entropy_mode: str = "actual",
    machine_centric: bool = False,
) -> StepMetrics:
    """The per-step record of one edge of a workflow. ``machine_centric``
    takes D_KL as H(input) - I(input; output), the perfect-inverse bound
    available for machine steps on enumerated alphabets, in place of the
    distortion of ``g``."""
    h = entropy_function(entropy_mode)
    if machine_centric:
        d = entropy(input) - mutual_information(t, input)
    else:
        d = distortion_bits(g, t, input)
    return StepMetrics(h(input), h(output), d, t.cost, entropy_mode)


def grouping_check(input: Alphabet, grouping: Transform) -> float:
    """Residual of the grouping identity H(X) = H(Y) + sum_k q(y_k) H_k
    (``Step.grouping_residual``)."""
    if not isinstance(grouping.kind, Grouping):
        raise ValueError("mode mismatch: grouping_check requires a grouping")
    if not input.is_enumerated:
        raise ValueError("mode mismatch: alphabet is not enumerated")
    return compiled(grouping, input).grouping_residual()


def _path(graph, name: str, entropy_mode: str) -> tuple:
    nodes = name.split(",")  # two or more nodes: one alone has no cost to divide by
    if len(nodes) < 2 or not set(nodes) <= graph.nodes.keys():
        raise KeyError(name)
    return graph, nodes, entropy_mode


def _as_printed(graph, nodes: list, entropy_mode: str) -> float:
    """The case studies' literal per-branch sum of (H_out + D_KL)/C. It
    disagrees with benefit/cost, and is reported as printed, not reconciled."""
    total = 0.0
    for _, m in graph._hops(nodes, entropy_mode):
        total += (m.h_out + m.d_kl) / m.cost.amount
    return total


# A metric path ``<scope>:<name>:<metric>`` reads METRICS[scope, metric] of
# SCOPES[scope](graph, name, entropy mode), the arguments of the scope's
# readers; a KeyError there is a name the graph lacks
SCOPES = {
    "node": lambda graph, name, mode: (graph.nodes[name],),
    "edge": lambda graph, name, mode: (graph.edge_metrics(mode)[name],),
    "path": _path,
    "graph": lambda graph, name, mode: (graph, mode),
}

# (scope, metric) -> reader. An edge's readers take its StepMetrics alone, as
# the CLI's columns do, and read only their metric: another may be undefined
METRICS = {
    ("node", "entropy"): entropy,
    ("node", "max_entropy"): max_entropy,
    ("edge", "h_in"): lambda m: m.h_in,
    ("edge", "h_out"): lambda m: m.h_out,
    ("edge", "d_kl"): lambda m: m.d_kl,
    ("edge", "acr"): lambda m: m.acr,
    ("edge", "pdr"): lambda m: m.pdr,
    ("edge", "ecr"): lambda m: m.ecr,
    ("edge", "benefit"): lambda m: m.benefit_bits,
    ("edge", "cbr"): lambda m: m.incremental_cbr,
    ("edge", "cost"): lambda m: m.cost.amount,
    ("path", "benefit"): lambda graph, nodes, mode: graph.path_metrics(nodes, mode)[0],
    ("path", "cost"): lambda graph, nodes, mode: graph.path_metrics(nodes, mode)[1],
    ("path", "cbr"): lambda graph, nodes, mode: operator.truediv(*graph.path_metrics(nodes, mode)),
    ("path", "as_printed"): _as_printed,
    ("graph", "benefit_lo"): lambda graph, mode: graph.total_benefit(mode).lo,
    ("graph", "benefit_hi"): lambda graph, mode: graph.total_benefit(mode).hi,
    ("graph", "cost"): lambda graph, mode: graph.total_cost().amount,
    ("graph", "cbr_lo"): lambda graph, mode: graph.overall_cbr(entropy_mode=mode).lo,
    ("graph", "cbr_hi"): lambda graph, mode: graph.overall_cbr(entropy_mode=mode).hi,
}
