"""End-to-end orchestration: partition, x sampling, the three weight
stages, separation checks, and final verification, with a deterministic
flat-text report. Stage timings stay on the result, never in reports."""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from .distinguish import DistinguishDiagnostics, run_distinguishing, separation_checks
from .errors import ParameterError, StageFailure
from .graphs import Graph
from .labeling import (
    Budgets,
    FeasibilityReport,
    WeightingState,
    assign_omega_prime,
    compute_budgets,
    find_x,
    initial_sigma,
    initial_weighting,
    tuning_deltas,
)
from .partition import PipelineParams, VertexPartition, find_partition, log_power, membership_probability
from .report import ConditionReport
from .verify import VerificationResult, finalize_and_check

FAILURE_KINDS = (
    "parameter",
    "partition_conditions",
    "x_conditions",
    "delta_infeasible",
    "kkp_no_option",
    "kkp_threshold",
    "separation",
    "verification",
    "bound",
)


def strict_degree_window(n: int, b: float, eps: float) -> tuple[float, float]:
    """Degree range the asymptotic guarantee covers:
    ln^(1+6b+12eps) n <= d <= n / ln^(2b+5eps) n."""
    if n < 3:
        raise ParameterError(f"need n >= 3, got {n}")
    return log_power(n, 1.0 + 6.0 * b + 12.0 * eps), n / log_power(n, 2.0 * b + 5.0 * eps)


@dataclass
class PipelineResult:
    """Everything one run produced, success or not.

    Failed runs carry the failing stage, its kind from FAILURE_KINDS,
    and a message naming the witness; all reports gathered before the
    failure stay available. ``state`` is None until the tuning stage
    accepts every increment, so a delta_infeasible run has none.
    """

    n: int
    d: int | None
    params: PipelineParams
    seed: int
    success: bool = False
    membership_prob: float | None = None
    window_low: float | None = None
    window_high: float | None = None
    window_contains_d: bool | None = None
    budgets: Budgets | None = None
    partition: VertexPartition | None = None
    partition_report: ConditionReport | None = None
    partition_attempts: int = 0
    x_report: ConditionReport | None = None
    x_attempts: int = 0
    feasibility: FeasibilityReport | None = None
    diagnostics: DistinguishDiagnostics | None = None
    separation: ConditionReport | None = None
    verification: VerificationResult | None = None
    state: WeightingState | None = None
    failure_stage: str | None = None
    failure_kind: str | None = None
    failure_message: str | None = None
    timings: list[tuple[str, float]] = field(default_factory=list)

    def failed(self, stage: str, kind: str, message: str) -> PipelineResult:
        """Record the failure and return this result."""
        self.failure_stage = stage
        self.failure_kind = kind
        self.failure_message = message
        return self

    def to_text(self) -> str:
        p = self.params
        lines = [
            f"n={self.n}",
            f"d={'' if self.d is None else self.d}",
            f"b={p.b!r}",
            f"eps={p.eps!r}",
            f"slack={p.slack!r}",
            f"mode={p.mode}",
            f"seed={self.seed}",
            f"success={str(self.success).lower()}",
        ]
        if self.failure_kind is not None:
            lines.append(f"failure.stage={self.failure_stage}")
            lines.append(f"failure.kind={self.failure_kind}")
            lines.append(f"failure.message={self.failure_message}")
        if self.membership_prob is not None:
            lines.append(f"membership_prob={self.membership_prob!r}")
        if self.window_low is not None:
            lines.append(f"window.low={self.window_low!r}")
            lines.append(f"window.high={self.window_high!r}")
            lines.append(f"window.contains_d={str(self.window_contains_d).lower()}")
        if self.budgets is not None:
            bg = self.budgets
            lines.extend(bg.lines())
            lines.append(f"budgets.near_integer={','.join(bg.near_integer_fields)}")
        if self.partition_report is not None:
            lines.append(f"partition.attempts={self.partition_attempts}")
            lines.extend(_prefixed("partition.", self.partition_report.to_text()))
        if self.x_report is not None:
            lines.append(f"x.attempts={self.x_attempts}")
            lines.extend(_prefixed("x.", self.x_report.to_text()))
        if self.feasibility is not None:
            fz = self.feasibility
            # the stage raises unless every increment fits its window
            lines.append("tuning.feasible=true")
            lines.append(f"tuning.sandwich_rate={fz.sandwich_rate!r}")
            lines.append(f"tuning.separation_ok={str(fz.separation_ok).lower()}")
            lines.append(f"tuning.max_v0_sigma={fz.max_v0_sigma}")
            lines.append(f"tuning.min_u_sigma={fz.min_u_sigma}")
        if self.diagnostics is not None:
            dg = self.diagnostics
            lines.append(f"distinguish.components={dg.components}")
            lines.append(f"distinguish.endgame_vertices={len(dg.endgame_vertices)}")
            lines.append(f"distinguish.multi_pairs={dg.multi_pair_count}")
            lines.append(f"distinguish.per_class_injective={str(dg.per_class_injective).lower()}")
            lines.append(f"distinguish.u_injective={str(dg.u_injective).lower()}")
            lines.append(f"distinguish.min_increment={dg.min_increment}")
            lines.append(f"distinguish.max_increment={dg.max_increment}")
        if self.separation is not None:
            lines.extend(_prefixed("separation.", self.separation.to_text()))
        if self.verification is not None:
            lines.extend(_prefixed("verification.", self.verification.to_text()))
        return "\n".join(lines) + "\n"


def _prefixed(prefix: str, block: str) -> list[str]:
    return [prefix + line for line in block.rstrip("\n").split("\n")]


def check_entry(n: int, d: int, params: PipelineParams, seed: int) -> PipelineResult:
    """The entry checks of a run on an n-vertex d-regular graph, which
    need no graph: budgets, tuning span and degree window.

    The result is filled up to the window; when a check fails it is the
    failed run, with stage "entry" and kind "parameter".
    """
    result = PipelineResult(n=n, d=d, params=params, seed=seed)
    try:
        budgets = compute_budgets(n, d, params.b, params.eps)
        result.budgets = budgets
        result.membership_prob = membership_probability(n, params.b, params.eps)
        if budgets.delta_span < 1:
            raise ParameterError(
                f"tuning span N={budgets.delta_span} is not positive at n={n}; "
                "the fine-tuning targets cannot fit"
            )
        lo, hi = strict_degree_window(n, params.b, params.eps)
        result.window_low, result.window_high = lo, hi
        result.window_contains_d = lo <= d <= hi
        if params.strict and not result.window_contains_d:
            raise ParameterError(
                f"d={d} outside the guaranteed degree window [{lo!r}, {hi!r}] "
                "and mode is strict"
            )
    except ParameterError as exc:
        result.failed("entry", "parameter", str(exc))
    return result


def run_pipeline(g: Graph, params: PipelineParams, seed: int) -> PipelineResult:
    """Run every stage in order; never raises on stage failure.

    The returned result always exists: entry validation problems appear
    as kind "parameter", stage aborts under their own kind, and a
    weighting that survives every stage but fails verification or the
    label bound is reported as "verification" or "bound".
    """
    try:
        d = g.regular_degree()
    except ParameterError as exc:
        return PipelineResult(n=g.n, d=None, params=params, seed=seed).failed("entry", "parameter", str(exc))
    result = check_entry(g.n, d, params, seed)
    if result.failure_kind is not None:
        return result
    budgets = result.budgets

    try:
        with _timed(result.timings, "partition"):
            part, prep, attempts = find_partition(g, params, seed)
        result.partition = part
        result.partition_report = prep
        result.partition_attempts = attempts

        with _timed(result.timings, "x"):
            xa, xrep, xattempts = find_x(g, part, params, seed)
        result.x_report = xrep
        result.x_attempts = xattempts

        with _timed(result.timings, "tuning"):
            # the increments depend on sigma alone, so an infeasible run is
            # refused before the O(m) weight vector exists. Testing first
            # cannot pre-empt initial_weighting's int64 refusal: a weight is
            # at most base + 7 * class_step <= 8 * ceil(n/d), so a weighted
            # degree stays below 8(n + d) < 2^35 for 32-bit vertex ids
            tuning_deltas(part, xa, budgets, initial_sigma(part, xa, budgets))
            state = initial_weighting(g, part, xa, budgets)
            result.state = state
            result.feasibility = assign_omega_prime(g, part, xa, budgets, state, params)

        with _timed(result.timings, "distinguish"):
            result.diagnostics = run_distinguishing(g, part, budgets, state, params)

        with _timed(result.timings, "separation"):
            sep = separation_checks(g, part, state, budgets)
        result.separation = sep
        if not sep.passed:
            return result.failed("separation", "separation", f"ordering violated: {sep.worst().line()}")

        with _timed(result.timings, "verify"):
            ver = finalize_and_check(g, state, budgets)
        result.verification = ver
        if not ver.irregular:
            w = ver.witness
            return result.failed(
                "verification",
                "verification",
                f"weighted degrees collide at pair ({w[0]},{w[1]})",
            )
        if not ver.bound_ok:
            return result.failed(
                "verification",
                "bound",
                f"max label {ver.max_label} exceeds the cap {budgets.label_cap()}",
            )
    except StageFailure as exc:
        return result.failed(exc.stage, exc.kind, str(exc))
    except ParameterError as exc:
        return result.failed("stage", "parameter", str(exc))

    result.success = True
    return result


@contextmanager
def _timed(clock: list[tuple[str, float]], stage: str) -> Iterator[None]:
    """Append the stage's wall time to ``clock``, also when it raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        clock.append((stage, time.perf_counter() - t0))
