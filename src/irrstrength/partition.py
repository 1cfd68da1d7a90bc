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

from .errors import ParameterError
from .graphs import Graph
from .report import ConditionReport, las_vegas, worst_instance

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
        for name in ("b", "eps", "slack"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and positive, got {getattr(self, name)}")
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


def log_power(n: int, p: float) -> float:
    """(ln n)^p as a float; an exponent so large that the power overflows
    is refused, where the float power itself would raise OverflowError."""
    try:
        return math.log(n) ** p
    except OverflowError:
        raise ParameterError(f"(ln n)^p overflows a float at n={n}, p={p!r}") from None


def membership_probability(n: int, b: float, eps: float) -> float:
    """P(v in U) = 1/ln^{b+eps} n; must land in (0,1)."""
    if n < 3:
        raise ParameterError(f"need n >= 3, got {n}")
    prob = 1.0 / log_power(n, b + eps)
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

    def u_edges(self, g: Graph, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbors of v inside U and the edges to them, both as int64
        in ascending neighbor order."""
        nbrs = g.neighbors(v)
        # positions, then take: cheaper than compressing two rows by a boolean mask
        keep = self.in_u.take(nbrs).nonzero()[0]
        return nbrs.take(keep).astype(np.int64), g.incident_edges(v).take(keep).astype(np.int64)


def sample_partition(g: Graph, p: PipelineParams, seed: int) -> VertexPartition:
    d = g.regular_degree()
    prob = membership_probability(g.n, p.b, p.eps)
    rng = np.random.default_rng(seed)
    in_u = rng.random(g.n) < prob
    # a class label is drawn for every vertex; only U-vertices keep theirs
    draw = rng.integers(1, 8, size=g.n, dtype=np.int8)
    klass = np.where(in_u, draw, np.int8(0)).astype(np.int8)

    # adjacency is symmetric, so v has as many class-c neighbours as it has
    # occurrences in the rows of the class-c vertices; the graph is d-regular,
    # so those rows are whole d-entry slices of the CSR
    rows = g.indices.reshape(g.n, d)
    dui = np.stack(
        [np.bincount(rows[klass == c].ravel(), minlength=g.n) for c in range(1, 8)], axis=1
    ).astype(np.int32)
    du = dui.sum(axis=1, dtype=np.int32)
    return VertexPartition(in_u=in_u, klass=klass, du=du, d0=d - du, dui=dui)


def check_partition(g: Graph, part: VertexPartition, p: PipelineParams) -> ConditionReport:
    """Evaluate the class-size window (1) and the per-vertex per-class
    degree window (2), right-hand sides scaled by slack."""
    n, d = g.n, g.regular_degree()
    center_sizes = n / (7.0 * log_power(n, p.b + p.eps))
    half_sizes = p.slack * n / (7.0 * log_power(n, 2 * p.b + 4 * p.eps))
    center_deg = d / (7.0 * log_power(n, p.b + p.eps))
    half_deg = p.slack * d / (7.0 * log_power(n, 2 * p.b + 4 * p.eps))

    sizes = part.class_sizes()
    dev_sizes = np.abs(sizes - center_sizes)
    dev_deg = np.abs(part.dui - center_deg)

    def size_witness(i: int) -> str:
        return f"i={i + 1} |{sizes[i]} - {center_sizes!r}| = {float(dev_sizes[i])!r} > {half_sizes!r}"

    def degree_witness(flat: int) -> str:
        v, c = divmod(flat, 7)
        return f"v={v} i={c + 1} |{part.dui[v, c]} - {center_deg!r}| = {float(dev_deg[v, c])!r} > {half_deg!r}"

    return ConditionReport(
        checks=[
            worst_instance("(1°)", "class size window", dev_sizes, half_sizes, size_witness),
            worst_instance("(2°)", "per-class degree window", dev_deg, half_deg, degree_witness),
        ],
        slack=p.slack,
    )


def find_partition(
    g: Graph, p: PipelineParams, seed: int
) -> tuple[VertexPartition, ConditionReport, int]:
    """Resample until check_partition passes; returns (partition, report,
    attempts used). Raises StageFailure when retries are exhausted."""
    return las_vegas(
        "partition", "partition met conditions (1°)-(2°)",
        lambda draw: sample_partition(g, p, draw), lambda part: check_partition(g, part, p),
        seed, p.max_retries,
    )
