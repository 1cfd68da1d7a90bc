"""Irregular edge weightings of d-regular graphs.

A three-stage randomized construction (class partition, fine tuning on
an ordered majority part, coarse distinguishing on the control part)
plus the tooling around it: verifier, exact small-graph solver, random
regular generation, and a Monte Carlo concentration lab.

The package exports the entry points; result and diagnostic types stay
in their modules (``irrstrength.pipeline.PipelineResult``, ...).
"""

from .distinguish import run_distinguishing, separation_checks
from .errors import InputFormatError, IrrStrengthError, ParameterError, RetryExhausted, StageFailure
from .graphs import (
    Graph,
    components_with_order,
    generate_random_regular,
    induced_subgraph,
    read_edge_list,
    read_graph6,
    write_edge_list,
    write_graph6,
)
from .lab import binomial_tail_estimate, chernoff_bounds, condition_failure_rates
from .labeling import (
    WeightingState,
    assign_omega_prime,
    compute_budgets,
    find_x,
    initial_weighting,
    read_weights_csv,
    write_weights_csv,
)
from .partition import PipelineParams, find_partition
from .pipeline import run_pipeline, strict_degree_window
from .verify import exact_strength, finalize_and_check, is_irregular, regular_lower_bound, weighted_degrees

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "InputFormatError",
    "IrrStrengthError",
    "ParameterError",
    "PipelineParams",
    "RetryExhausted",
    "StageFailure",
    "WeightingState",
    "assign_omega_prime",
    "binomial_tail_estimate",
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
    "read_edge_list",
    "read_graph6",
    "read_weights_csv",
    "regular_lower_bound",
    "run_distinguishing",
    "run_pipeline",
    "separation_checks",
    "strict_degree_window",
    "weighted_degrees",
    "write_edge_list",
    "write_graph6",
    "write_weights_csv",
]
