"""Random vertex partition into a control set U (seven classes) and V0.

Every vertex joins U independently with probability 1/ln^{b+eps} n and
U-vertices get a uniform class in {1..7}. The partition is accepted when
the class sizes and the per-vertex per-class degrees all sit inside
their concentration windows; otherwise the driver resamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StageFailure
from .graphs import Graph
from .report import ConditionCheck, ConditionReport
from .seeds import derive_seed

MODE_STRICT = "strict"
MODE_EMPIRICAL = "empirical"


@dataclass(frozen=True)
class PipelineParams:
    """Analysis parameters shared by every randomized stage.

    slack scales the right-hand sides of the acceptance windows; the
    strict mode pins it to 1 (the inequalities verbatim), the empirical
    mode allows widening them for sizes where the asymptotic windows
    are unreachable.
    """

    b: float
    eps: float
    slack: float = 1.0
    max_retries: int = 100
    mode: str = MODE_STRICT

    def __post_init__(self) -> None:
        if self.b <= 0:
            raise ParameterError(f"b must be positive, got {self.b}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if self.mode not in (MODE_STRICT, MODE_EMPIRICAL):
            raise ParameterError(f"mode must be strict or empirical, got {self.mode!r}")
        if self.mode == MODE_STRICT and self.slack != 1.0:
            raise ParameterError("strict mode requires slack = 1")
        if self.mode == MODE_EMPIRICAL and self.slack < 1.0:
            raise ParameterError(f"slack must be >= 1, got {self.slack}")
        if self.max_retries < 0:
            raise ParameterError(f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def strict(self) -> bool:
        return self.mode == MODE_STRICT


def membership_probability(n: int, b: float, eps: float) -> float:
    """P(v in U) = 1/ln^{b+eps} n; must land in (0,1)."""
    if n < 3:
        raise ParameterError(f"need n >= 3, got {n}")
    prob = 1.0 / math.log(n) ** (b + eps)
    if not 0.0 < prob < 1.0:
        raise ParameterError(
            f"membership probability {prob} outside (0,1) for n={n}, b={b}, eps={eps}"
        )
    return prob


@dataclass
class VertexPartition:
    """Partition tags plus cached degree statistics.

    klass is 0 on V0 and 1..7 on U. The caches satisfy, for every v,
    d0[v] + du[v] = deg(v) and dui[v].sum() = du[v]; they are filled
    once at sampling time and treated as immutable afterwards.
    """

    in_u: np.ndarray
    klass: np.ndarray
    du: np.ndarray
    d0: np.ndarray
    dui: np.ndarray

    @property
    def n(self) -> int:
        return int(self.klass.shape[0])

    @property
    def u_size(self) -> int:
        return int(np.count_nonzero(self.in_u))

    @property
    def n0(self) -> int:
        return self.n - self.u_size

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.klass, minlength=8)[1:8]

    def u_vertices(self) -> np.ndarray:
        return np.nonzero(self.in_u)[0]

    def v0_vertices(self) -> np.ndarray:
        return np.nonzero(~self.in_u)[0]


def sample_partition(g: Graph, p: PipelineParams, seed: int) -> VertexPartition:
    d = g.regular_degree()
    prob = membership_probability(g.n, p.b, p.eps)
    rng = np.random.default_rng(seed)
    in_u = rng.random(g.n) < prob
    # a class label is drawn for every vertex; only U-vertices keep theirs
    draw = rng.integers(1, 8, size=g.n, dtype=np.int8)
    klass = np.where(in_u, draw, np.int8(0)).astype(np.int8)

    # the graph is d-regular, so row v of the CSR holds exactly d classes
    nbr_class = klass[g.indices].reshape(g.n, d)
    dui = np.stack([np.count_nonzero(nbr_class == c, axis=1) for c in range(1, 8)], axis=1).astype(np.int32)
    du = dui.sum(axis=1, dtype=np.int32)
    return VertexPartition(in_u=in_u, klass=klass, du=du, d0=d - du, dui=dui)


def check_partition(g: Graph, part: VertexPartition, p: PipelineParams) -> ConditionReport:
    """Evaluate the class-size window (1) and the per-vertex per-class
    degree window (2), right-hand sides scaled by slack."""
    n, d = g.n, g.regular_degree()
    logn = math.log(n)
    center_sizes = n / (7.0 * logn ** (p.b + p.eps))
    half_sizes = p.slack * n / (7.0 * logn ** (2 * p.b + 4 * p.eps))
    center_deg = d / (7.0 * logn ** (p.b + p.eps))
    half_deg = p.slack * d / (7.0 * logn ** (2 * p.b + 4 * p.eps))

    report = ConditionReport(slack=p.slack)

    sizes = part.class_sizes()
    dev_sizes = np.abs(sizes - center_sizes)
    worst_i = int(np.argmax(dev_sizes))
    n_viol = int(np.count_nonzero(dev_sizes > half_sizes))
    witness = ""
    if n_viol:
        witness = (
            f"i={worst_i + 1} |{sizes[worst_i]} - {center_sizes!r}| = "
            f"{dev_sizes[worst_i]!r} > {half_sizes!r}"
        )
    report.checks.append(
        ConditionCheck(
            cond="(1°)",
            label="class size window",
            passed=n_viol == 0,
            measured=float(dev_sizes[worst_i]),
            bound=float(half_sizes),
            witness=witness,
            violations=n_viol,
        )
    )

    dev_deg = np.abs(part.dui - center_deg)
    flat = int(np.argmax(dev_deg))
    worst_v, worst_c = divmod(flat, 7)
    n_viol = int(np.count_nonzero(dev_deg > half_deg))
    witness = ""
    if n_viol:
        witness = (
            f"v={worst_v} i={worst_c + 1} |{part.dui[worst_v, worst_c]} - "
            f"{center_deg!r}| = {dev_deg[worst_v, worst_c]!r} > {half_deg!r}"
        )
    report.checks.append(
        ConditionCheck(
            cond="(2°)",
            label="per-class degree window",
            passed=n_viol == 0,
            measured=float(dev_deg[worst_v, worst_c]),
            bound=float(half_deg),
            witness=witness,
            violations=n_viol,
        )
    )
    return report


def find_partition(
    g: Graph, p: PipelineParams, seed: int
) -> tuple[VertexPartition, ConditionReport, int]:
    """Resample until check_partition passes; returns (partition, report,
    attempts used). Raises StageFailure when retries are exhausted."""
    last: ConditionReport | None = None
    for attempt in range(p.max_retries + 1):
        part = sample_partition(g, p, derive_seed(seed, "partition", attempt))
        rep = check_partition(g, part, p)
        if rep.passed:
            return part, rep, attempt + 1
        last = rep
    worst = last.worst() if last is not None else None
    detail = worst.line() if worst is not None else "no report"
    raise StageFailure(
        stage="partition",
        kind="partition_conditions",
        message=(
            f"no partition met conditions (1°)-(2°) in {p.max_retries + 1} attempts; "
            f"tightest: {detail}"
        ),
        witness=last,
    )
