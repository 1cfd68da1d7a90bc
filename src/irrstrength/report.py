"""Structured pass/fail reports for the randomized-stage condition checks.

Checks never raise; they return a report so a Las Vegas driver can decide
whether to resample and so failures always carry a concrete witness
(the violated inequality instantiated with numbers).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

from .errors import StageFailure
from .seeds import derive_seed

T = TypeVar("T")


@dataclass
class ConditionCheck:
    """One condition evaluated over all its instances.

    ``measured`` and ``bound`` describe the worst instance: the largest
    deviation seen against the allowed bound (slack already applied).
    """

    cond: str
    label: str
    passed: bool
    measured: float
    bound: float
    witness: str = ""
    violations: int = 0

    def line(self) -> str:
        state = "pass" if self.passed else "FAIL"
        text = (
            f"{self.cond} {self.label}: {state} "
            f"measured={self.measured!r} bound={self.bound!r}"
        )
        if self.witness:
            text += f" witness[{self.witness}]"
        return text


@dataclass
class ConditionReport:
    """Outcome of one full check pass (a set of conditions)."""

    checks: list[ConditionCheck] = field(default_factory=list)
    slack: float = 1.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> ConditionCheck | None:
        """The failed check with the largest relative overshoot."""
        bad = [c for c in self.checks if not c.passed]
        if not bad:
            return None

        def overshoot(c: ConditionCheck) -> float:
            if c.bound > 0:
                return c.measured / c.bound
            return float("inf") if c.measured > 0 else 1.0

        return max(bad, key=overshoot)

    def to_text(self) -> str:
        """Flat key-value block, one line per field, deterministic."""
        lines = [f"slack={self.slack!r}"]
        for c in self.checks:
            key = c.cond
            lines.append(f"{key}.passed={str(c.passed).lower()}")
            lines.append(f"{key}.label={c.label}")
            lines.append(f"{key}.measured={c.measured!r}")
            lines.append(f"{key}.bound={c.bound!r}")
            lines.append(f"{key}.violations={c.violations}")
            lines.append(f"{key}.witness={c.witness}")
        return "\n".join(lines) + "\n"


def worst_instance(
    cond: str, label: str, measured: np.ndarray, bound: np.ndarray | float, witness: Callable[[int], str]
) -> ConditionCheck:
    """Check ``measured <= bound`` over every instance of a condition.

    Reports the instance with the largest ``measured - bound``, the first
    on ties, and formats it with ``witness(flat index)`` only when some
    instance violates. An empty instance set passes with measured = bound
    = 0. Under a single bound the largest measured value is taken directly,
    since subtracting a constant can round distinct values together.
    """
    measured = np.ravel(measured)
    if measured.size == 0:
        return ConditionCheck(cond=cond, label=label, passed=True, measured=0.0, bound=0.0)
    bounds = np.broadcast_to(bound, measured.shape)
    worst = int(np.argmax(measured if np.ndim(bound) == 0 else measured - bounds))
    violations = int(np.count_nonzero(measured > bounds))
    return ConditionCheck(
        cond=cond,
        label=label,
        passed=violations == 0,
        measured=float(measured[worst]),
        bound=float(bounds[worst]),
        witness=witness(worst) if violations else "",
        violations=violations,
    )


def las_vegas(
    stage: str, goal: str, sample: Callable[[int], T], check: Callable[[T], ConditionReport],
    seed: int, max_retries: int,
) -> tuple[T, ConditionReport, int]:
    """Resample with ``derive_seed(seed, stage, attempt)`` until ``check``
    passes; returns (sample, report, attempts used). Raises StageFailure
    naming the last attempt's tightest check when retries run out."""
    for attempt in range(max_retries + 1):
        drawn = sample(derive_seed(seed, stage, attempt))
        report = check(drawn)
        if report.passed:
            return drawn, report, attempt + 1
    raise StageFailure(
        stage=stage,
        kind=f"{stage}_conditions",
        message=f"no {goal} in {max_retries + 1} attempts; tightest: {report.worst().line()}",
    )
