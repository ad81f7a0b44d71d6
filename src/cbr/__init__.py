"""Information-theoretic cost-benefit analysis of analysis/visualization workflows."""

from .alphabet import (
    Alphabet,
    Pmf,
    enumerated,
    entropy,
    max_entropy,
    product,
    symbolic,
    uniform,
)
from .transform import (
    Aggregator,
    Channel,
    CostRecord,
    DeclaredHuman,
    Grouping,
    Quantizer,
    Transform,
    compose,
    mutual_information,
    pushforward,
)
from .reconstruction import (
    DeclaredDivergence,
    ExactConditional,
    Impression,
    PriorWeighted,
    Reconstruction,
    UniformPreimage,
    distortion_bits,
    impression,
    kl_divergence,
)
from .metrics import (
    StepMetrics,
    alphabet_compression_ratio,
    benefit,
    effectual_compression_ratio,
    grouping_check,
    incremental_cbr,
    machine_cbr,
    potential_distortion_ratio,
    step_metrics,
)
from .workflow import Edge, Interval, MetricsReport, OverallMetrics, WorkflowGraph
from .optimize import (
    Dimension,
    OptimizeResult,
    ParamSpace,
    exhaustive_search,
    greedy_search,
)
from .specio import (
    Expectation,
    Fixture,
    WorkflowSpec,
    check_fixture,
    emit_spec,
    load_fixture,
    parse_spec,
)

__version__ = "0.1.0"
