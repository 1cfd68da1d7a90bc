"""Monte Carlo side: the two exponential tail bounds, literal binomial
sampling against them, and measured failure rates of the sampling
conditions across parameter settings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graphs import generate_random_regular
from .labeling import check_x_conditions, sample_x
from .partition import PipelineParams, check_partition, sample_partition
from .seeds import derive_seed

# fixed chunk budget (entries per draw block); part of the stream
# contract, so results never depend on available memory
_CHUNK_TARGET = 1 << 22


def chernoff_bounds(n: int, p: float, t: float) -> tuple[float, float]:
    """Upper and lower tail bounds e^(-t^2/(3np)) and e^(-t^2/(2np))
    for BIN(n, p), valid for 0 <= t <= np."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie strictly between 0 and 1, got {p!r}")
    mean = n * p
    if not 0 <= t <= mean:
        raise ParameterError(
            f"t={t!r} outside [0, np]={mean!r}; the bound hypothesis fails there"
        )
    return math.exp(-(t * t) / (3.0 * mean)), math.exp(-(t * t) / (2.0 * mean))


@dataclass(frozen=True)
class TailEstimate:
    p_above: float
    p_below: float
    se_above: float
    se_below: float
    trials: int


def _stderr(phat: float, trials: int) -> float:
    return math.sqrt(phat * (1.0 - phat) / trials)


def binomial_tail_estimate(
    n: int, p: float, t: float, trials: int, seed: int
) -> TailEstimate:
    """Frequencies of {BIN(n,p) > np+t} and {BIN(n,p) < np-t} from
    ``trials`` sums of n literal Bernoulli draws.

    p = 1/2 uses raw random bytes (eight coin flips per byte); other p
    compare uniform draws against p. Chunk sizes are fixed functions of
    n, so estimates are reproducible bit-for-bit per seed.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if 8 * n > np.iinfo(np.intp).max:
        raise ParameterError(f"n={n} is too large: numpy cannot size a row of {n} float64 draws")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie strictly between 0 and 1, got {p!r}")
    rng = np.random.default_rng(derive_seed(seed, "binomial-tail", n, repr(p)))
    hi = n * p + t
    lo = n * p - t
    nbytes = (n + 7) // 8
    chunk = max(1, _CHUNK_TARGET // (nbytes if p == 0.5 else n))
    above = 0
    below = 0
    done = 0
    while done < trials:
        take = min(chunk, trials - done)
        if p == 0.5:
            raw = rng.integers(0, 256, size=(take, nbytes), dtype=np.uint8)
            counts = np.unpackbits(raw, axis=1, count=n).sum(axis=1, dtype=np.int64)
        else:
            counts = (rng.random((take, n)) < p).sum(axis=1, dtype=np.int64)
        above += int(np.count_nonzero(counts > hi))
        below += int(np.count_nonzero(counts < lo))
        done += take
    p_above = above / trials
    p_below = below / trials
    return TailEstimate(
        p_above=p_above,
        p_below=p_below,
        se_above=_stderr(p_above, trials),
        se_below=_stderr(p_below, trials),
        trials=trials,
    )


@dataclass(frozen=True)
class RateRow:
    condition: str
    rate: float
    stderr: float
    mean_violation: float


@dataclass(frozen=True)
class RateTable:
    """Per-condition rates of one run; the run's constants are held once
    and repeated on every CSV row."""

    n: int
    d: int
    b: float
    eps: float
    slack: float
    trials: int
    rows: list[RateRow]

    CSV_HEADER = "condition,n,d,b,eps,slack,trials,rate,stderr,mean_violation"

    def to_csv(self) -> str:
        run = f"{self.n},{self.d},{self.b!r},{self.eps!r},{self.slack!r},{self.trials}"
        lines = [f"{r.condition},{run},{r.rate!r},{r.stderr!r},{r.mean_violation!r}" for r in self.rows]
        return "\n".join([self.CSV_HEADER] + lines) + "\n"


def condition_failure_rates(
    n: int,
    d: int,
    params: PipelineParams,
    trials: int,
    seed: int,
) -> RateTable:
    """Fraction of independent trials violating each sampling condition.

    Each trial draws a fresh d-regular graph, one partition, and one x
    assignment; no retry loops, this measures the raw per-sample failure
    rate. Rows follow the order of the stages' checks. Trial seeds never
    involve slack, so sweeping slack on a fixed seed reuses identical
    samples and the rates are exactly monotone in slack.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    # condition -> [violating trials, summed excess over the bound]
    tallies: dict[str, list] = {}
    for trial in range(trials):
        g = generate_random_regular(n, d, derive_seed(seed, "graph", trial))
        part = sample_partition(g, params, derive_seed(seed, "partition", trial))
        xa = sample_x(g, part, derive_seed(seed, "x", trial))
        for check in check_partition(g, part, params).checks + check_x_conditions(g, part, xa, params).checks:
            tally = tallies.setdefault(check.cond, [0, 0.0])
            if not check.passed:
                tally[0] += 1
                tally[1] += max(0.0, check.measured - check.bound)
    rows = []
    for cond, (fails, excess) in tallies.items():
        rate = fails / trials
        rows.append(RateRow(cond, rate, _stderr(rate, trials), excess / fails if fails else 0.0))
    return RateTable(
        n=n, d=d, b=params.b, eps=params.eps, slack=params.slack, trials=trials, rows=rows
    )
