"""Irregular edge weightings of d-regular graphs.

A three-stage randomized construction (class partition, fine tuning on
an ordered majority part, coarse distinguishing on the control part)
plus the tooling around it: verifier, exact small-graph solver, random
regular generation, and a Monte Carlo concentration lab.
"""

from .distinguish import (
    DistinguishDiagnostics,
    PairSet,
    pair_of,
    run_distinguishing,
    separation_checks,
)
from .errors import (
    InputFormatError,
    IrrStrengthError,
    ParameterError,
    RetryExhausted,
    StageFailure,
)
from .graphs import (
    ComponentOrder,
    Graph,
    components_with_order,
    generate_random_regular,
    induced_subgraph,
    read_edge_list,
    read_graph6,
    write_edge_list,
    write_graph6,
)
from .lab import (
    RateTable,
    TailEstimate,
    binomial_tail_estimate,
    chernoff_bounds,
    condition_failure_rates,
)
from .labeling import (
    Budgets,
    FeasibilityReport,
    WeightingState,
    XAssignment,
    assign_omega_prime,
    check_x_conditions,
    compute_budgets,
    find_x,
    initial_weighting,
    read_weights_csv,
    sample_x,
    write_weights_csv,
)
from .partition import (
    MODE_EMPIRICAL,
    MODE_STRICT,
    PipelineParams,
    VertexPartition,
    check_partition,
    find_partition,
    membership_probability,
    sample_partition,
)
from .pipeline import FAILURE_KINDS, PipelineResult, run_pipeline, strict_degree_window
from .report import ConditionCheck, ConditionReport
from .verify import (
    ExactStrengthResult,
    VerificationResult,
    exact_strength,
    finalize_and_check,
    is_irregular,
    regular_lower_bound,
    weighted_degrees,
)

__version__ = "0.1.0"

__all__ = [
    "Budgets",
    "ComponentOrder",
    "ConditionCheck",
    "ConditionReport",
    "DistinguishDiagnostics",
    "ExactStrengthResult",
    "FAILURE_KINDS",
    "FeasibilityReport",
    "Graph",
    "InputFormatError",
    "IrrStrengthError",
    "MODE_EMPIRICAL",
    "MODE_STRICT",
    "PairSet",
    "ParameterError",
    "PipelineParams",
    "PipelineResult",
    "RateTable",
    "RetryExhausted",
    "StageFailure",
    "TailEstimate",
    "VerificationResult",
    "VertexPartition",
    "WeightingState",
    "XAssignment",
    "assign_omega_prime",
    "binomial_tail_estimate",
    "check_partition",
    "check_x_conditions",
    "chernoff_bounds",
    "components_with_order",
    "compute_budgets",
    "condition_failure_rates",
    "exact_strength",
    "finalize_and_check",
    "find_partition",
    "find_x",
    "generate_random_regular",
    "induced_subgraph",
    "initial_weighting",
    "is_irregular",
    "membership_probability",
    "pair_of",
    "read_edge_list",
    "read_graph6",
    "read_weights_csv",
    "regular_lower_bound",
    "run_distinguishing",
    "run_pipeline",
    "sample_partition",
    "sample_x",
    "separation_checks",
    "strict_degree_window",
    "weighted_degrees",
    "write_edge_list",
    "write_graph6",
    "write_weights_csv",
]
