"""The distinguishing pass as it stood before a pair was named by its low
end and an analyzed degree was looked up through the pair's holders, kept
verbatim as the reference that ``run_distinguishing`` must reproduce: the
same weights, sigma, modification counts, diagnostics and failures for
every tuned state.

Third stage: distinguish weighted degrees inside the control set U.

The pass reads G[U] off the parent graph under the U mask: a vertex
sees only its edges to other U-vertices, and every id is a parent id.
Each component of G[U] is processed along a reversed BFS order. A
processed vertex's weighted degree is confined to a two-element set from
the family that partitions the integers into pairs
{2*lam*m + a, (2*lam+1)*m + a}; later coarse moves may only toggle it
between the two elements. The final two vertices of every
component run a joint endgame that additionally avoids every pair set
assigned more than once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from irrstrength.errors import ParameterError, StageFailure
from irrstrength.graphs import Graph, components_with_order, edge_lookup
from irrstrength.labeling import (
    DISTINGUISHED_ORD,
    STAGE_DISTINGUISHED,
    STAGE_TUNED,
    TUNED_ORD,
    Budgets,
    WeightingState,
)
from irrstrength.partition import PipelineParams, VertexPartition
from irrstrength.report import ConditionCheck, ConditionReport

# strict-mode thresholds quoted by the asymptotic argument
_MIN_OPTIONS_LAST_BUT_ONE = 45
_MIN_OPTIONS_LAST = 47
_MAX_CONGRUENT_MULTI_PAIRS = 20


@dataclass(frozen=True)
class PairSet:
    """One member of the integer-pair family: {low, low + m}."""

    low: int
    m: int

    @property
    def high(self) -> int:
        return self.low + self.m

    @property
    def offset(self) -> int:
        """Residue a shared by both elements, in [0, m-1]."""
        return self.low % self.m

    @property
    def parity_index(self) -> int:
        """The lambda with low = 2*lambda*m + offset."""
        return (self.low - self.offset) // (2 * self.m)

    def __contains__(self, value: int) -> bool:
        return value == self.low or value == self.high

    def as_tuple(self) -> tuple[int, int]:
        return (self.low, self.high)


def pair_of(value: int, m: int) -> PairSet:
    """The unique family member containing ``value``."""
    if m < 1:
        raise ParameterError(f"pair step must be >= 1, got {m}")
    low = value if (value // m) % 2 == 0 else value - m
    return PairSet(low=low, m=m)


@dataclass
class _AlgoState:
    """Mutable bookkeeping shared across components."""

    analyzed: np.ndarray
    anchor_low: np.ndarray
    class_values: list[set[int]]
    pair_mult: dict[int, int]
    sigma_counts: Counter
    endgame: list[int] = field(default_factory=list)

    def register(self, v: int, klass: int, pair: PairSet, sigma_v: int) -> None:
        self.analyzed[v] = True
        self.anchor_low[v] = pair.low
        self.class_values[klass - 1].update(pair.as_tuple())
        self.pair_mult[pair.low] = self.pair_mult.get(pair.low, 0) + 1
        self.sigma_counts[sigma_v] += 1

    def multi_pair_lows(self) -> set[int]:
        return {low for low, cnt in self.pair_mult.items() if cnt >= 2}


@dataclass
class ComponentRecord:
    """Endgame summary of one component for the run report."""

    root: int
    size: int
    endgame_edge_value: int | None
    last_two_sigmas: tuple[int, int] | None


@dataclass
class DistinguishDiagnostics:
    components: int
    endgame_vertices: list[int]
    multi_pair_count: int
    per_class_injective: bool
    u_injective: bool
    min_increment: int
    max_increment: int
    records: list[ComponentRecord]


@dataclass
class _Ctx:
    """Shared read-only handles for one run."""

    g: Graph
    part: VertexPartition
    state: WeightingState
    params: PipelineParams
    m: int
    class_sizes: np.ndarray


def _apply_edge_deltas(
    ctx: _Ctx, st: _AlgoState, v: int, nbrs: np.ndarray | int, eids: np.ndarray | int, delta: int
) -> None:
    """Add delta to every edge eids[i] = (v, nbrs[i]), maintaining sigma
    caches and the analyzed-degree multiset for any analyzed endpoint.
    The neighbors are distinct and differ from v."""
    nbrs, eids = np.atleast_1d(nbrs), np.atleast_1d(eids)
    if delta == 0 or eids.size == 0:
        return
    state = ctx.state
    state.weights[eids] += delta
    state.mod_count[eids] += 1
    state.last_mod_stage[eids] = DISTINGUISHED_ORD
    ends = np.append(nbrs, v)
    shift = np.full(ends.size, delta, dtype=np.int64)
    shift[-1] = delta * eids.size
    old = state.sigma[ends]
    new = old + shift
    state.sigma[ends] = new
    watched = st.analyzed[ends]
    if watched.any():
        # readers only ask whether a count is positive, so zero counts may stay
        st.sigma_counts.subtract(old[watched].tolist())
        st.sigma_counts.update(new[watched].tolist())


def _vertex_edges(ctx: _Ctx, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbors of v inside U and the edges to them, both in ascending
    neighbor order."""
    nbrs, eids = ctx.g.neighbors(v), ctx.g.incident_edges(v)
    keep = ctx.part.in_u[nbrs]
    return nbrs[keep].astype(np.int64), eids[keep].astype(np.int64)


_Edges = tuple[np.ndarray, np.ndarray]


def _split_backward(
    ctx: _Ctx, st: _AlgoState, nbrs: np.ndarray, eids: np.ndarray, skip_eids: Iterable[int] = ()
) -> tuple[_Edges, _Edges]:
    """Analyzed neighbors split by allowed coarse direction.

    Returns (plus, minus), each as (neighbors, edges) arrays in ascending
    neighbor order: plus edges may gain m (their endpoint sits at the low
    element of its pair), minus edges may lose m. Edges in skip_eids are
    left out entirely.
    """
    keep = st.analyzed[nbrs]
    for eid in skip_eids:
        keep &= eids != eid
    nbrs, eids = nbrs[keep], eids[keep]
    up = ctx.state.sigma[nbrs] == st.anchor_low[nbrs]
    return (nbrs[up], eids[up]), (nbrs[~up], eids[~up])


def _realize_coarse(
    ctx: _Ctx,
    st: _AlgoState,
    v: int,
    moves: int,
    plus: _Edges,
    minus: _Edges,
    avoid_eid: int | None,
) -> None:
    """Apply |moves| coarse steps (sign of ``moves`` chooses direction)
    on backward edges in descending neighbor order, skipping avoid_eid."""
    if moves == 0:
        return
    nbrs, eids = plus if moves > 0 else minus
    if avoid_eid is not None:
        keep = eids != avoid_eid
        nbrs, eids = nbrs[keep], eids[keep]
    need = abs(moves)
    if eids.size < need:
        raise RuntimeError("coarse realization short of edges; selection logic broken")
    # neighbors ascend, so the highest ``need`` of them are the last ones
    top = eids.size - need
    _apply_edge_deltas(ctx, st, v, nbrs[top:], eids[top:], ctx.m if moves > 0 else -ctx.m)


def _process_vertex(ctx: _Ctx, st: _AlgoState, v: int) -> None:
    """Confine one ordinary (non-endgame) vertex to a fresh pair set."""
    klass = int(ctx.part.klass[v])
    m = ctx.m
    nbrs, eids = _vertex_edges(ctx, v)
    plus, minus = _split_backward(ctx, st, nbrs, eids)
    fwd = ~st.analyzed[nbrs]
    fwd_nbrs, fwd_eids = nbrs[fwd], eids[fwd]

    b_plus, b_minus, f = plus[1].size, minus[1].size, int(fwd_nbrs.size)
    d_u = b_plus + b_minus + f
    sigma_cur = int(ctx.state.sigma[v])
    lo = sigma_cur - b_minus * m
    hi = sigma_cur + (b_plus + f) * m

    size_i = int(ctx.class_sizes[klass - 1])
    if ctx.params.strict and not d_u * m + 1 > 2 * size_i:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_threshold",
            message=(
                f"vertex {v}: achievable range size {d_u * m + 1} does not exceed "
                f"2|class| = {2 * size_i}, so collision-free choice is not guaranteed"
            ),
        )

    forbidden = st.class_values[klass - 1]
    target = lo
    while target <= hi and target in forbidden:
        target += 1
    if target > hi:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_no_option",
            message=(
                f"vertex {v}: every value in [{lo}, {hi}] collides with a pair set "
                f"already assigned in its class ({len(forbidden)} blocked values)"
            ),
        )

    off = target - sigma_cur
    coarse = min(b_plus, off // m) if off >= 0 else off // m
    _realize_coarse(ctx, st, v, coarse, plus, minus, avoid_eid=None)
    rem = off - coarse * m
    pos = 0
    while rem > 0:
        t = min(rem, m)
        _apply_edge_deltas(ctx, st, v, fwd_nbrs[pos], fwd_eids[pos], t)
        rem -= t
        pos += 1
    if int(ctx.state.sigma[v]) != target:
        raise RuntimeError("vertex landed off target; realization logic broken")
    st.register(v, klass, pair_of(target, m), target)


def _settle_endgame_vertex(
    ctx: _Ctx,
    st: _AlgoState,
    v: int,
    excluded_eids: set[int],
    forbidden_lows: set[int],
) -> PairSet:
    """Choose and realize the final degree of one endgame vertex.

    Candidates run over the coarse progression of the usable backward
    edges. A candidate is kept if its value avoids the forbidden pair
    sets and every analyzed vertex's current degree, and it stays
    realizable after excluding the single edge to a holder of its own
    pair (strict mode instead demands an interior progression point,
    which implies that).
    """
    m = ctx.m
    nbrs, eids = _vertex_edges(ctx, v)
    plus, minus = _split_backward(ctx, st, nbrs, eids, skip_eids=excluded_eids)
    b_plus, b_minus = plus[1].size, minus[1].size
    sigma_cur = int(ctx.state.sigma[v])
    back_eids = np.concatenate([plus[1], minus[1]])
    # position in back_eids of the first edge (plus before minus) to a holder of each pair
    holder: dict[int, int] = {}
    for pos, low in enumerate(st.anchor_low[np.concatenate([plus[0], minus[0]])].tolist()):
        holder.setdefault(low, pos)

    chosen_k: int | None = None
    chosen_avoid: int | None = None
    for k in range(-b_minus, b_plus + 1):
        value = sigma_cur + k * m
        pair = pair_of(value, m)
        if pair.low in forbidden_lows:
            continue
        if st.sigma_counts.get(value, 0) > 0:
            continue
        pos = holder.get(pair.low)
        avoid_eid = None if pos is None else int(back_eids[pos])
        eff_plus = b_plus - (pos is not None and pos < b_plus)
        eff_minus = b_minus - (pos is not None and pos >= b_plus)
        realizable = -eff_minus <= k <= eff_plus
        if ctx.params.strict:
            if -b_minus < k < b_plus and realizable:
                chosen_k, chosen_avoid = k, avoid_eid
                break
        elif realizable:
            chosen_k, chosen_avoid = k, avoid_eid
            break
    if chosen_k is None:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_no_option",
            message=(
                f"endgame vertex {v}: no admissible value in its progression of "
                f"{b_plus + b_minus + 1} options avoids the blocked sets"
            ),
        )

    _realize_coarse(ctx, st, v, chosen_k, plus, minus, avoid_eid=chosen_avoid)
    value = sigma_cur + chosen_k * m
    if int(ctx.state.sigma[v]) != value:
        raise RuntimeError("endgame vertex landed off target; realization logic broken")
    pair = pair_of(value, m)
    st.register(v, int(ctx.part.klass[v]), pair, value)
    return pair


def _endgame_edge_candidates(
    st: _AlgoState, m: int, sigma1: int, sigma0: int
) -> list[tuple[tuple[int, int, int], int]]:
    """Endgame-edge values ranked by how badly the resulting degrees
    land on residues of multiply-assigned pairs: minimize the larger
    congruence count, then the total, then the value itself."""
    res_count = Counter(low % m for low in st.multi_pair_lows())
    ranked = []
    for wv in range(m + 1):
        s1 = sigma1 + wv - m
        s0 = sigma0 + wv - m
        c1 = res_count.get(s1 % m, 0)
        c0 = res_count.get(s0 % m, 0)
        ranked.append(((max(c1, c0), c1 + c0, wv), wv))
    ranked.sort(key=lambda t: t[0])
    return ranked


def _check_endgame_thresholds(ctx: _Ctx, u1: int, u0: int, d_u1: int, d_u0: int) -> None:
    if not ctx.params.strict:
        return
    if d_u1 < _MIN_OPTIONS_LAST_BUT_ONE or d_u0 - 1 < _MIN_OPTIONS_LAST:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_threshold",
            message=(
                f"endgame of component with last vertices ({u1}, {u0}): option counts "
                f"{d_u1} and {d_u0 - 1} fall below the required {_MIN_OPTIONS_LAST_BUT_ONE} "
                f"and {_MIN_OPTIONS_LAST}"
            ),
        )


def _endgame_general(ctx: _Ctx, st: _AlgoState, u1: int, u0: int, size: int) -> ComponentRecord:
    m = ctx.m
    # part.du holds the degrees inside U
    d_u1 = int(ctx.part.du[u1])
    d_u0 = int(ctx.part.du[u0])
    _check_endgame_thresholds(ctx, u1, u0, d_u1, d_u0)

    e_star = next((int(e) for e in edge_lookup(ctx.g)([u1], [u0]) if e >= 0), None)
    if e_star is None:
        raise RuntimeError("endgame vertices are not adjacent; ordering logic broken")

    ranked = _endgame_edge_candidates(st, m, int(ctx.state.sigma[u1]), int(ctx.state.sigma[u0]))
    (c_max, _c_sum, _), wv = ranked[0]
    if ctx.params.strict and c_max > _MAX_CONGRUENT_MULTI_PAIRS:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_threshold",
            message=(
                f"endgame edge ({u1},{u0}): best value still meets {c_max} multiply-assigned "
                f"pair sets per residue, above the allowed {_MAX_CONGRUENT_MULTI_PAIRS}"
            ),
        )
    _apply_edge_deltas(ctx, st, u1, u0, e_star, wv - m)

    s_t = st.multi_pair_lows()
    pair1 = _settle_endgame_vertex(ctx, st, u1, excluded_eids={e_star}, forbidden_lows=s_t)

    # a single edge from the root to a holder of pair1 leaves the progression
    nbrs0, eids0 = _vertex_edges(ctx, u0)
    extra_excluded: set[int] = {e_star}
    hit = np.flatnonzero((eids0 != e_star) & st.analyzed[nbrs0] & (st.anchor_low[nbrs0] == pair1.low))
    if hit.size:
        extra_excluded.add(int(eids0[hit[0]]))
    _settle_endgame_vertex(ctx, st, u0, excluded_eids=extra_excluded, forbidden_lows=s_t | {pair1.low})
    st.endgame.extend([u1, u0])
    return ComponentRecord(
        root=u0,
        size=size,
        endgame_edge_value=wv,
        last_two_sigmas=(int(ctx.state.sigma[u1]), int(ctx.state.sigma[u0])),
    )


def _endgame_two_vertex(ctx: _Ctx, st: _AlgoState, u1: int, u0: int) -> ComponentRecord:
    """Joint search for a component that is a single edge: both degrees
    are functions of the one edge value, so candidates are tried whole."""
    m = ctx.m
    _check_endgame_thresholds(ctx, u1, u0, 1, 1)

    e_star = next((int(e) for e in edge_lookup(ctx.g)([u1], [u0]) if e >= 0), None)
    s_t = st.multi_pair_lows()
    sigma1 = int(ctx.state.sigma[u1])
    sigma0 = int(ctx.state.sigma[u0])
    for _key, wv in _endgame_edge_candidates(st, m, sigma1, sigma0):
        s1 = sigma1 + wv - m
        s0 = sigma0 + wv - m
        p1 = pair_of(s1, m)
        p0 = pair_of(s0, m)
        if p1.low in s_t or st.sigma_counts.get(s1, 0) > 0:
            continue
        if p0.low in s_t or p0.low == p1.low or st.sigma_counts.get(s0, 0) > 0:
            continue
        _apply_edge_deltas(ctx, st, u1, u0, e_star, wv - m)
        st.register(u1, int(ctx.part.klass[u1]), p1, s1)
        st.register(u0, int(ctx.part.klass[u0]), p0, s0)
        st.endgame.extend([u1, u0])
        return ComponentRecord(
            root=u0, size=2, endgame_edge_value=wv, last_two_sigmas=(s1, s0)
        )
    raise StageFailure(
        stage="distinguish",
        kind="kkp_no_option",
        message=(
            f"two-vertex component ({u1},{u0}): none of the {m + 1} edge values "
            "avoids all blocked sets for both endpoints"
        ),
    )


def _process_isolated(ctx: _Ctx, st: _AlgoState, v: int) -> ComponentRecord:
    """A vertex with no edges inside U keeps its degree; it only needs
    that degree (and its pair) to be free."""
    sigma_v = int(ctx.state.sigma[v])
    klass = int(ctx.part.klass[v])
    pair = pair_of(sigma_v, ctx.m)
    if st.sigma_counts.get(sigma_v, 0) > 0 or pair.low in st.class_values[klass - 1]:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_no_option",
            message=(
                f"isolated control vertex {v} carries degree {sigma_v}, which is "
                "already taken and has no edges to adjust"
            ),
        )
    st.register(v, klass, pair, sigma_v)
    st.endgame.append(v)
    return ComponentRecord(root=v, size=1, endgame_edge_value=None, last_two_sigmas=None)


def run_distinguishing(
    g: Graph,
    part: VertexPartition,
    budgets: Budgets,
    state: WeightingState,
    params: PipelineParams,
) -> DistinguishDiagnostics:
    """Run the full pass over G[U], read from ``g`` under the U mask;
    mutates ``state`` to the distinguished stage and returns diagnostics."""
    state.require_stage(STAGE_TUNED)
    m = budgets.coarse_step
    u_verts = part.u_vertices()

    # every control edge starts one coarse step up; this initialization
    # is not a modification in the at-most-twice contract
    peids = np.flatnonzero(part.in_u[g.edges[:, 0]] & part.in_u[g.edges[:, 1]])
    if peids.size:
        state.weights[peids] += m
        state.last_mod_stage[peids] = DISTINGUISHED_ORD
        # du counts the control edges at each vertex of U
        state.sigma[u_verts] += np.multiply(part.du[u_verts], m, dtype=np.int64)

    ctx = _Ctx(
        g=g,
        part=part,
        state=state,
        params=params,
        m=m,
        class_sizes=part.class_sizes(),
    )
    st = _AlgoState(
        analyzed=np.zeros(g.n, dtype=bool),
        anchor_low=np.zeros(g.n, dtype=np.int64),
        class_values=[set() for _ in range(7)],
        pair_mult={},
        sigma_counts=Counter(),
    )

    records: list[ComponentRecord] = []
    for order in components_with_order(g, within=part.in_u):
        size = int(order.size)
        if size == 1:
            records.append(_process_isolated(ctx, st, int(order[0])))
        elif size == 2:
            records.append(_endgame_two_vertex(ctx, st, int(order[0]), int(order[1])))
        else:
            for pos in range(size - 2):
                _process_vertex(ctx, st, int(order[pos]))
            records.append(_endgame_general(ctx, st, int(order[-2]), int(order[-1]), size))

    state.stage = STAGE_DISTINGUISHED

    sigma_u = state.sigma[u_verts]
    u_injective = np.unique(sigma_u).size == sigma_u.size
    per_class = True
    for i in range(1, 8):
        cl = u_verts[part.klass[u_verts] == i]
        if cl.size and np.unique(state.sigma[cl]).size != cl.size:
            per_class = False
    incr = state.weights[peids] if peids.size else np.zeros(1, dtype=np.int64)
    return DistinguishDiagnostics(
        components=len(records),
        endgame_vertices=list(st.endgame),
        multi_pair_count=len(st.multi_pair_lows()),
        per_class_injective=bool(per_class),
        u_injective=bool(u_injective),
        min_increment=int(incr.min()),
        max_increment=int(incr.max()),
        records=records,
    )


def separation_checks(
    g: Graph, part: VertexPartition, state: WeightingState, budgets: Budgets
) -> ConditionReport:
    """Post-pass ordering checks: (a) V0 degrees all below U degrees,
    (b) class bands in ascending order, (c) V0 degrees untouched since
    the tuning stage."""
    report = ConditionReport(slack=1.0)
    v0 = part.v0_vertices()
    uu = part.u_vertices()

    if v0.size and uu.size:
        max_v0 = int(state.sigma[v0].max())
        min_u = int(state.sigma[uu].min())
        passed = max_v0 < min_u
        witness = ""
        if not passed:
            worst_v = int(v0[np.argmax(state.sigma[v0])])
            worst_u = int(uu[np.argmin(state.sigma[uu])])
            witness = f"sigma({worst_v})={max_v0} >= sigma({worst_u})={min_u}"
        report.checks.append(
            ConditionCheck(
                cond="(a)",
                label="V0 below U",
                passed=passed,
                measured=float(max_v0),
                bound=float(min_u),
                witness=witness,
                violations=0 if passed else 1,
            )
        )
    else:
        report.checks.append(
            ConditionCheck(cond="(a)", label="V0 below U", passed=True, measured=0.0, bound=0.0)
        )

    band_fail = None
    for i in range(1, 7):
        lo_side = uu[part.klass[uu] == i]
        hi_side = uu[part.klass[uu] == i + 1]
        if lo_side.size == 0 or hi_side.size == 0:
            continue
        mx = int(state.sigma[lo_side].max())
        mn = int(state.sigma[hi_side].min())
        if mx >= mn and band_fail is None:
            band_fail = (i, mx, mn)
    report.checks.append(
        ConditionCheck(
            cond="(b)",
            label="class bands ascending",
            passed=band_fail is None,
            measured=float(band_fail[1]) if band_fail else 0.0,
            bound=float(band_fail[2]) if band_fail else 0.0,
            witness=(
                f"classes {band_fail[0]} and {band_fail[0] + 1}: max {band_fail[1]} >= min {band_fail[2]}"
                if band_fail
                else ""
            ),
            violations=0 if band_fail is None else 1,
        )
    )

    snap = state.v0_sigma_at_tuned
    changed_witness = ""
    n_changed = 0
    if snap is not None and v0.size:
        now = state.sigma[v0]
        moved = now != snap
        n_changed = int(np.count_nonzero(moved))
        if n_changed:
            vbad = int(v0[np.nonzero(moved)[0][0]])
            edge_note = ""
            eids = g.incident_edges(vbad)
            late = eids[state.last_mod_stage[eids] > TUNED_ORD]
            if late.size:
                u, w = g.edges[int(late[0])]
                edge_note = f" via edge ({u},{w})"
            changed_witness = f"sigma({vbad}) moved after tuning{edge_note}"
    report.checks.append(
        ConditionCheck(
            cond="(c)",
            label="V0 degrees frozen",
            passed=n_changed == 0,
            measured=float(n_changed),
            bound=0.0,
            witness=changed_witness,
            violations=n_changed,
        )
    )
    return report
