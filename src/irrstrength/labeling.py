"""Second stage: x-values on V0, integer budgets, and the fine tuning
that pins the V0 weighted degrees to a consecutive run of targets.

The x-values order V0; conditions (3)-(6) certify the order statistics
and the heavy-neighbor counts are concentrated. The weight budgets are
the only place real arithmetic meets integer rounding, so every ceiling
of a log expression goes through a guarded helper.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal, localcontext
from itertools import chain

import numpy as np

from .errors import InputFormatError, ParameterError, StageFailure
from .graphs import Graph, _read_lines, edge_lookup, edge_weights, format_rows, require_int64_sums, weighted_degrees
from .partition import PipelineParams, VertexPartition, log_power
from .report import ConditionReport, las_vegas, worst_instance

# stage tags in pipeline order
STAGE_INITIAL = "initial"
STAGE_TUNED = "tuned"
STAGE_DISTINGUISHED = "distinguished"
STAGE_FINAL = "final"
_STAGE_ORDER = (STAGE_INITIAL, STAGE_TUNED, STAGE_DISTINGUISHED, STAGE_FINAL)
# stage ordinals as stored in WeightingState.last_mod_stage
TUNED_ORD = _STAGE_ORDER.index(STAGE_TUNED)
DISTINGUISHED_ORD = _STAGE_ORDER.index(STAGE_DISTINGUISHED)

# the near-integer band is the larger of an absolute 1e-9 and 1e-12 of
# the quotient: the float error of n/(k ln^p n) grows with the quotient,
# about (p + 4) units in the last place, and 1e-12 is thousands of them
_NEAR_INTEGER_TOL = 1e-9
_NEAR_INTEGER_REL = 1e-12
_EDGE_BLOCK = 1 << 16  # edges per block of the heavy test
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


# ---------------------------------------------------------------------------
# budgets


@dataclass(frozen=True)
class Budgets:
    """Integer weight budgets derived from (n, d, b, eps).

    base: weight unit on heavy inner V0 edges, ceil(n/d).
    class_step: class increment on V0-U edges, ceil(n/(d ln^b n)).
    fine_cap: per-edge cap of the fine-tuning increments, ceil(n/(d ln^{b+eps} n)).
    coarse_step: step of the distinguishing stage, floor(n/(3d)).
    target_base: offset of the V0 target run, so targets are target_base + j.
    delta_span: width the tuning increments are expected to need
        asymptotically; may be nonpositive at small n, which the
        pipeline (not this function) rejects.
    near_integer_fields: fields whose real-valued quotient fell within
        max(1e-9, 1e-12 * quotient) of an integer and were re-evaluated
        in high precision.
    """

    base: int
    class_step: int
    fine_cap: int
    coarse_step: int
    target_base: int
    delta_span: int
    near_integer_fields: tuple[str, ...] = ()

    def label_cap(self) -> int:
        """Largest final edge label the construction may produce."""
        return self.base + 7 * self.class_step + self.fine_cap + 1

    def lines(self) -> list[str]:
        """``budgets.<field>=<value>`` report lines, base through label_cap."""
        names = ("base", "class_step", "fine_cap", "coarse_step", "target_base", "delta_span")
        lines = [f"budgets.{name}={getattr(self, name)}" for name in names]
        return lines + [f"budgets.label_cap={self.label_cap()}"]


def _ceil_log_term(n: int, k: int, power: float) -> tuple[int, bool]:
    """ceil(n / (k * ln(n)^power)) with a near-integer guard.

    Within max(1e-9, 1e-12 * q) of an integer the float result is
    untrustworthy, so the quotient is recomputed at 60 significant
    digits and flagged.
    """
    q = n / (k * log_power(n, power))
    frac = q - math.floor(q)
    if min(frac, 1.0 - frac) < max(_NEAR_INTEGER_TOL, _NEAR_INTEGER_REL * q):
        with localcontext() as ctx:
            ctx.prec = 60
            hq = Decimal(n) / (Decimal(k) * Decimal(n).ln() ** Decimal(power))
            return int(hq.to_integral_value(rounding=ROUND_CEILING)), True
    return math.ceil(q), False


def compute_budgets(n: int, d: int, b: float, eps: float) -> Budgets:
    if n < 3:
        raise ParameterError(f"need n >= 3, got {n}")
    if not 1 <= d < n:
        raise ParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    if not (0 < b < math.inf and 0 < eps < math.inf):
        raise ParameterError(f"b and eps must be finite and positive, got b={b}, eps={eps}")
    coarse_step = n // (3 * d)
    if coarse_step == 0:
        raise ParameterError(
            f"d too large for the distinguishing stage: floor(n/(3d)) = 0 for n={n}, d={d}"
        )
    flags: list[str] = []

    def term(name: str, k: int, power: float) -> int:
        value, flagged = _ceil_log_term(n, k, power)
        if flagged:
            flags.append(name)
        return value

    base = -(-n // d)
    class_step = term("class_step", d, b)
    fine_cap = term("fine_cap", d, b + eps)
    target_base = (
        term("target_base", 1, b + eps)
        + 4 * term("target_base", 1, 2 * b + eps)
        + 2 * term("target_base", 1, 2 * b + 3 * eps)
    )
    delta_span = term("delta_span", 1, 2 * b + 2 * eps) - 2 * term(
        "delta_span", 1, 3 * b + 5 * eps
    )
    return Budgets(
        base=base,
        class_step=class_step,
        fine_cap=fine_cap,
        coarse_step=coarse_step,
        target_base=target_base,
        delta_span=delta_span,
        near_integer_fields=tuple(dict.fromkeys(flags)),
    )


# ---------------------------------------------------------------------------
# x-values


@dataclass
class XAssignment:
    """Uniform x-values on V0 with the induced total order.

    The order sorts by (x, vertex id); the id tiebreak makes the order
    total even under float ties, so position j in ``order`` always has
    exactly j earlier vertices (its |L| count). ``heavy`` holds the
    ascending ids of the heavy edges, the inner V0 edges with
    x_u + x_v >= 1, and r_size[v] counts those at v (its |R| count; 0 on U).
    """

    x: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    r_size: np.ndarray
    heavy: np.ndarray


def sample_x(g: Graph, part: VertexPartition, seed: int) -> XAssignment:
    v0 = part.v0_vertices()
    rng = np.random.default_rng(seed)
    draws = rng.random(v0.size)
    x = np.full(g.n, np.nan)
    x[v0] = draws
    order = v0[np.lexsort((v0, draws))]
    rank = np.full(g.n, -1, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)

    # x is NaN on U, so only inner V0 edges can pass the heavy test; blocks
    # of edges keep its float temporaries small (650 MB at n=20000 unblocked)
    eu, ev = g.edges[:, 0], g.edges[:, 1]
    heavy = np.concatenate([
        np.flatnonzero(x.take(eu[i : i + _EDGE_BLOCK]) + x.take(ev[i : i + _EDGE_BLOCK]) >= 1.0) + i
        for i in range(0, max(g.num_edges, 1), _EDGE_BLOCK)
    ])
    r_size = np.bincount(eu[heavy], minlength=g.n) + np.bincount(ev[heavy], minlength=g.n)
    return XAssignment(x=x, order=order, rank=rank, r_size=r_size, heavy=heavy)


def check_x_conditions(
    g: Graph, part: VertexPartition, xa: XAssignment, p: PipelineParams
) -> ConditionReport:
    """Conditions (3)-(6): order-position and heavy-count concentration,
    split by whether x_v clears the threshold 1/ln^{2b+3eps} n."""
    n = g.n
    tau = 1.0 / log_power(n, 2 * p.b + 3 * p.eps)
    rel = 1.0 / log_power(n, 2 * p.b + 4 * p.eps)
    low2 = 1.0 / log_power(n, 4 * p.b + 7 * p.eps)

    v0 = part.v0_vertices()
    n0 = v0.size
    x = xa.x[v0]
    l_sz = xa.rank[v0].astype(np.float64)
    r_sz = xa.r_size[v0].astype(np.float64)
    d0 = part.d0[v0].astype(np.float64)
    above = x >= tau

    checks = []
    for cond, label, mask, dev, bound in (
        ("(3°)", "order position vs x", above, np.abs(l_sz - x * (n0 - 1)), x * (n0 - 1) * rel),
        ("(4°)", "order position, small x", ~above, l_sz, np.full(n0, (n0 - 1) * (tau + low2))),
        ("(5°)", "heavy count vs x", above, np.abs(r_sz - x * d0), x * d0 * rel),
        ("(6°)", "heavy count, small x", ~above, r_sz, d0 * (tau + low2)),
    ):
        ids, dv, bd = v0[mask], dev[mask], bound[mask] * p.slack
        checks.append(worst_instance(
            cond, label, dv, bd,
            lambda i: f"v={ids[i]} x={float(xa.x[ids[i]])!r} deviation {float(dv[i])!r} > {float(bd[i])!r}",
        ))
    return ConditionReport(checks=checks, slack=p.slack)


def find_x(
    g: Graph, part: VertexPartition, p: PipelineParams, seed: int
) -> tuple[XAssignment, ConditionReport, int]:
    """Las Vegas loop over x samples until conditions (3)-(6) pass."""
    return las_vegas(
        "x", "x assignment met conditions (3°)-(6°)",
        lambda draw: sample_x(g, part, draw), lambda xa: check_x_conditions(g, part, xa, p),
        seed, p.max_retries,
    )


# ---------------------------------------------------------------------------
# weighting state


@dataclass
class WeightingState:
    """Edge weights with cached weighted degrees and stage bookkeeping.

    mod_count tracks modifications made by the distinguishing pass only
    (its initialization excluded); the final uniform +1 shift does not
    count either. last_mod_stage holds the stage ordinal of each edge's
    most recent weight change, giving unchanged-since-tuned witnesses.
    """

    stage: str
    weights: np.ndarray
    sigma: np.ndarray
    mod_count: np.ndarray
    last_mod_stage: np.ndarray
    v0_sigma_at_tuned: np.ndarray | None = None

    def require_stage(self, expected: str) -> None:
        if self.stage != expected:
            raise ParameterError(f"operation requires stage {expected!r}, state is at {self.stage!r}")


def initial_sigma(part: VertexPartition, xa: XAssignment, budgets: Budgets) -> np.ndarray:
    """Weighted degrees of the base weighting, in O(n) without its edges.

    With c_k = base + k * class_step, they follow from the partition
    caches and r_size:
        sigma(u) = d0(u) * c_klass(u)  on U,
        sigma(v) = base * (r_size(v) + du(v)) + class_step * sum_k k * dui(v, k)  on V0.
    Wrapping int64 arithmetic gives the true sums whenever they fit.
    """
    coef = np.multiply(np.arange(8, dtype=np.int64), budgets.class_step) + budgets.base
    sigma = np.where(part.in_u, part.d0 * coef[part.klass], part.dui @ coef[1:])
    sigma += xa.r_size * budgets.base
    return sigma


def initial_weighting(
    g: Graph, part: VertexPartition, xa: XAssignment, budgets: Budgets
) -> WeightingState:
    """Base weighting: heavy inner V0 edges get base, V0-U edges get
    base + class * class_step, U-edges start at zero.

    Weights whose sums might leave int64 are refused as weighted_degrees
    refuses them; sigma is ``initial_sigma``.
    """
    ends = part.klass[g.edges]
    ku, kv = ends[:, 0], ends[:, 1]
    # the class is int8, so the product is taken in int64
    w = np.multiply(np.maximum(ku, kv), budgets.class_step, dtype=np.int64)
    w += budgets.base
    w *= (ku == 0) != (kv == 0)
    w[xa.heavy] = budgets.base
    require_int64_sums(g, w)
    return WeightingState(
        stage=STAGE_INITIAL,
        weights=w,
        sigma=initial_sigma(part, xa, budgets),
        mod_count=np.zeros(g.num_edges, dtype=np.int16),
        last_mod_stage=np.zeros(g.num_edges, dtype=np.int8),
    )


@dataclass
class FeasibilityReport:
    """Diagnostics of the fine-tuning stage.

    sandwich_rate is the fraction of the sorted V0 vertices whose needed
    increment lands in [1, delta_span], the window the asymptotic analysis
    predicts; separation_ok compares the largest V0 weighted degree
    against the smallest one on U, and holds vacuously when either side
    is empty.
    """

    sandwich_rate: float
    separation_ok: bool
    max_v0_sigma: int
    min_u_sigma: int


def tuning_deltas(
    part: VertexPartition, xa: XAssignment, budgets: Budgets, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Targets and needed increments of the sorted V0 vertices, given
    their weighted degrees ``sigma`` before tuning.

    Raises the delta_infeasible StageFailure unless every increment fits
    [0, du(v) * fine_cap]. Only sigma enters, so the test can run on
    ``initial_sigma`` before any weight vector exists.
    """
    order = xa.order
    n0 = order.size
    targets = budgets.target_base + 1 + np.arange(n0, dtype=np.int64)
    deltas = targets - sigma[order]
    capacities = part.du[order].astype(np.int64) * budgets.fine_cap

    bad = (deltas < 0) | (deltas > capacities)
    if np.any(bad):
        j = int(np.nonzero(bad)[0][0])
        v = int(order[j])
        raise StageFailure(
            stage="omega_prime",
            kind="delta_infeasible",
            message=(
                f"tuning increment infeasible at position j={j + 1} (vertex {v}): "
                f"needed {int(deltas[j])}, capacity window [0, {int(capacities[j])}] "
                f"({int(np.count_nonzero(bad))} positions violate in total)"
            ),
        )
    return targets, deltas


def assign_omega_prime(
    g: Graph,
    part: VertexPartition,
    xa: XAssignment,
    budgets: Budgets,
    state: WeightingState,
    params: PipelineParams,
) -> FeasibilityReport:
    """Raise each sorted-V0 vertex to its target weighted degree.

    All-or-nothing: every needed increment must fit [0, du(v) * fine_cap]
    before any edge is touched. Increments spread greedily over the
    vertex's U-edges in ascending neighbor order, each edge capped at
    fine_cap, so the per-edge window holds by construction.
    """
    state.require_stage(STAGE_INITIAL)
    order = xa.order
    n0 = order.size
    targets, deltas = tuning_deltas(part, xa, budgets, state.sigma)

    cap = budgets.fine_cap
    w = state.weights
    for idx in range(n0):
        delta = int(deltas[idx])
        if delta == 0:
            continue
        _, u_eids = part.u_edges(g, int(order[idx]))
        full, rem = divmod(delta, cap)
        w[u_eids[:full]] += cap
        w[u_eids[full : full + 1]] += rem
        state.last_mod_stage[u_eids[: full + (rem > 0)]] = TUNED_ORD

    state.sigma = weighted_degrees(g, w)
    if not np.array_equal(state.sigma[order], targets):
        raise RuntimeError("tuning stage failed to hit its targets; internal invariant broken")
    state.stage = STAGE_TUNED
    state.v0_sigma_at_tuned = state.sigma[part.v0_vertices()]

    u_verts = part.u_vertices()
    max_v0 = int(targets[-1]) if n0 else 0
    min_u = int(state.sigma[u_verts].min()) if u_verts.size else 0
    separation_ok = bool(n0 == 0 or u_verts.size == 0 or max_v0 < min_u)
    span = budgets.delta_span
    sandwich = float(np.count_nonzero((deltas >= 1) & (deltas <= span)) / max(n0, 1))
    report = FeasibilityReport(
        sandwich_rate=sandwich,
        separation_ok=separation_ok,
        max_v0_sigma=max_v0,
        min_u_sigma=min_u,
    )
    if params.strict and not separation_ok:
        raise StageFailure(
            stage="omega_prime",
            kind="separation",
            message=(
                f"V0 weighted degrees reach {max_v0}, not below the U minimum {min_u}; "
                "the asymptotic ordering between V0 and U does not hold at this size"
            ),
        )
    return report


# ---------------------------------------------------------------------------
# CSV weight serialization


def weight_rows(g: Graph, weights: np.ndarray) -> Iterator[str]:
    """The ``u,v,weight`` header, then one row per edge in edge-id order;
    a vector that is not one integer per edge is refused at the call."""
    weights = edge_weights(g, weights)
    return chain(["u,v,weight\n"], format_rows(",", g.edges[:, 0], g.edges[:, 1], weights))


def write_weights_csv(
    g: Graph,
    state: WeightingState,
    path: str,
    n: int,
    d: int,
    b: float,
    eps: float,
    seed: int,
) -> None:
    rows = weight_rows(g, state.weights)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# stage={state.stage} n={n} d={d} b={b!r} eps={eps!r} seed={seed}\n")
        fh.writelines(rows)


def read_weights_csv(path: str, g: Graph) -> np.ndarray:
    """Load a weight vector aligned with g's edge ids.

    Each run of rows is resolved to edge ids as soon as it is read, so
    the first faulty line is the one reported: one that does not parse,
    names no edge, or repeats an edge."""
    n, lookup = g.n, edge_lookup(g)
    weights = np.empty(g.num_edges, dtype=np.int64)
    given = np.zeros(g.num_edges + 1, dtype=bool)  # given[-1], read for a non-edge, stays False
    for lineno, rows in _read_lines(path, b",", 3, signed=True):
        if not isinstance(rows, np.ndarray):
            text = rows.strip()
            if not text or text.startswith("#") or text == "u,v,weight":
                continue
            parts = text.split(",")
            if len(parts) != 3:
                raise InputFormatError(f"line {lineno}: expected u,v,weight, got {text!r}")
            try:
                u, v, wt = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise InputFormatError(f"line {lineno}: non-integer field in {text!r}") from None
            if not _INT64_MIN <= wt <= _INT64_MAX:
                raise InputFormatError(f"line {lineno}: weight {wt} outside the 64-bit integer range")
            if not (0 <= u < n and 0 <= v < n):
                raise InputFormatError(f"line {lineno}: edge ({u},{v}) not in graph")
            rows = np.array([[u, v, wt]], dtype=np.int64)
        eids = lookup(rows[:, 0], rows[:, 1])
        repeat = np.ones(eids.size, dtype=bool)
        repeat[np.unique(eids, return_index=True)[1]] = False
        bad = np.flatnonzero((eids < 0) | given[eids] | repeat)
        if bad.size:
            row = int(bad[0])
            u, v, _ = rows[row].tolist()
            if eids[row] < 0:
                raise InputFormatError(f"line {lineno + row}: edge ({u},{v}) not in graph")
            raise InputFormatError(f"line {lineno + row}: duplicate weight for edge ({u},{v})")
        given[eids] = True
        weights[eids] = rows[:, 2]
    if not given[:-1].all():
        u, v = g.edges[np.argmin(given[:-1])]
        raise InputFormatError(f"no weight given for edge ({u},{v})")
    return weights
