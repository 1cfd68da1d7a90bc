"""Third stage: distinguish weighted degrees inside the control set U.

The pass reads G[U] off the parent graph under the U mask: a vertex
sees only its edges to other U-vertices, and every id is a parent id.
Each component of G[U] is processed along a reversed BFS order. A
processed vertex's weighted degree is confined to a pair from the family
that partitions the integers into {2*lam*m + a, (2*lam+1)*m + a}, with
0 <= a < m; a pair is named by its low end (``pair_low``). Later coarse
moves may only toggle the vertex between the two elements. The final
two vertices of every component run a joint endgame that additionally
avoids every pair assigned more than once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StageFailure
from .graphs import Graph, components_with_order
from .labeling import (
    DISTINGUISHED_ORD,
    STAGE_DISTINGUISHED,
    STAGE_TUNED,
    TUNED_ORD,
    Budgets,
    WeightingState,
)
from .partition import PipelineParams, VertexPartition
from .report import ConditionCheck, ConditionReport

# strict-mode thresholds quoted by the asymptotic argument
_MIN_OPTIONS_LAST_BUT_ONE = 45
_MIN_OPTIONS_LAST = 47
_MAX_CONGRUENT_MULTI_PAIRS = 20


def pair_low(value: int, m: int) -> int:
    """Low end of the unique family member {low, low + m} containing ``value``."""
    if m < 1:
        raise ParameterError(f"pair step must be >= 1, got {m}")
    return value if (value // m) % 2 == 0 else value - m


@dataclass
class _Pass:
    """One run of the pass: the graph, partition and weighting it moves,
    its mode and pair step m, and what it has settled so far.

    A registered (analyzed) vertex v is anchored at the pair named by
    anchor_low[v] and listed among that pair's holders; class_lows holds
    the pairs registered in each class. From then on v's weighted degree
    never leaves {anchor_low[v], anchor_low[v] + m}: coarse moves toggle
    backward neighbors by +-m as ``_split_row`` directs, fine moves
    touch only forward (unanalyzed) neighbors, and the endgame edge is
    excluded once its first endpoint is registered. So an analyzed
    vertex has degree ``value`` exactly when a holder of
    ``pair_low(value)`` does. An unanalyzed vertex has anchor_low -1,
    which names no pair: a low end's quotient by m is even, -1 // m is -1.
    """

    g: Graph
    part: VertexPartition
    state: WeightingState
    strict: bool
    m: int

    def __post_init__(self) -> None:
        self.class_sizes = self.part.class_sizes()
        self.anchor_low = np.full(self.g.n, -1, dtype=np.int64)
        self.class_lows: list[set[int]] = [set() for _ in range(7)]
        self.holders: dict[int, list[int]] = {}

    def register(self, v: int, low: int) -> None:
        self.anchor_low[v] = low
        self.class_lows[int(self.part.klass[v]) - 1].add(low)
        self.holders.setdefault(low, []).append(v)

    def multi_pair_lows(self) -> set[int]:
        return {low for low, vs in self.holders.items() if len(vs) >= 2}

    def degree_taken(self, low: int, value: int) -> bool:
        """Whether an analyzed vertex has degree ``value``, whose pair is ``low``."""
        sigma = self.state.sigma
        return any(sigma[v] == value for v in self.holders.get(low, ()))


@dataclass
class DistinguishDiagnostics:
    components: int
    endgame_vertices: list[int]
    multi_pair_count: int
    per_class_injective: bool
    u_injective: bool
    min_increment: int
    max_increment: int


def _apply_edge_deltas(
    ps: _Pass, v: int, nbrs: np.ndarray, eids: np.ndarray, delta: int
) -> None:
    """Add delta to every edge eids[i] = (v, nbrs[i]) and to the cached
    sigma of both its ends. The neighbors are distinct and differ from v."""
    if delta == 0 or eids.size == 0:
        return
    state = ps.state
    state.weights[eids] += delta
    state.mod_count[eids] += 1
    state.last_mod_stage[eids] = DISTINGUISHED_ORD
    state.sigma[nbrs] += delta
    state.sigma[v] += delta * eids.size


def _split_row(
    ps: _Pass, v: int, skip_eids: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """v's U-row as (neighbors, edges, b_plus, b_minus), regrouped as
    plus | minus | forward, each group in ascending neighbor order.

    Plus edges lead to analyzed neighbors at the low element of their
    pair, so they may gain m; minus edges lead to analyzed neighbors at
    the high element and may lose m. Forward edges lead to unanalyzed
    neighbors; edges in skip_eids count as forward, so coarse moves
    never take them.
    """
    nbrs, eids = ps.part.u_edges(ps.g, v)
    anchors = ps.anchor_low.take(nbrs)
    back = anchors != -1
    for eid in skip_eids:
        back &= eids != eid
    low = ps.state.sigma.take(nbrs) == anchors
    plus, minus = (back & low).nonzero()[0], (back > low).nonzero()[0]
    pos = np.concatenate([plus, minus, (~back).nonzero()[0]])
    return nbrs.take(pos), eids.take(pos), plus.size, minus.size


def _realize_coarse(
    ps: _Pass, v: int, moves: int, nbrs: np.ndarray, eids: np.ndarray, b_plus: int, b_minus: int
) -> None:
    """Apply |moves| coarse steps (sign of ``moves`` chooses direction) on
    the highest neighbors of the row's plus or minus group."""
    need = abs(moves)
    if need > (b_plus if moves > 0 else b_minus):
        raise RuntimeError("coarse realization short of edges; selection logic broken")
    # each group ascends, so its highest ``need`` neighbors end it
    end = b_plus if moves > 0 else b_plus + b_minus
    _apply_edge_deltas(ps, v, nbrs[end - need : end], eids[end - need : end], ps.m if moves > 0 else -ps.m)


def _process_vertex(ps: _Pass, v: int) -> None:
    """Confine one ordinary (non-endgame) vertex to a fresh pair."""
    klass = int(ps.part.klass[v])
    m = ps.m
    nbrs, eids, b_plus, b_minus = _split_row(ps, v, ())
    fwd_nbrs, fwd_eids = nbrs[b_plus + b_minus :], eids[b_plus + b_minus :]

    d_u = int(nbrs.size)
    sigma_cur = int(ps.state.sigma[v])
    lo = sigma_cur - b_minus * m
    hi = sigma_cur + (d_u - b_minus) * m

    size_i = int(ps.class_sizes[klass - 1])
    if ps.strict and not d_u * m + 1 > 2 * size_i:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_threshold",
            message=(
                f"vertex {v}: achievable range size {d_u * m + 1} does not exceed "
                f"2|class| = {2 * size_i}, so collision-free choice is not guaranteed"
            ),
        )

    # the pairs partition the integers, so a value is blocked exactly when its pair is
    forbidden = ps.class_lows[klass - 1]
    target = lo
    while target <= hi and pair_low(target, m) in forbidden:
        target += 1
    if target > hi:
        blocked = 2 * len(forbidden)
        raise StageFailure(
            stage="distinguish",
            kind="kkp_no_option",
            message=(
                f"vertex {v}: every value in [{lo}, {hi}] collides with a pair set "
                f"already assigned in its class ({blocked} blocked values)"
            ),
        )

    off = target - sigma_cur
    coarse = min(b_plus, off // m) if off >= 0 else off // m
    _realize_coarse(ps, v, coarse, nbrs, eids, b_plus, b_minus)
    # fine moves: m on each of the first ``full`` forward edges, the rest on the next one
    full, rem = divmod(off - coarse * m, m)
    _apply_edge_deltas(ps, v, fwd_nbrs[:full], fwd_eids[:full], m)
    _apply_edge_deltas(ps, v, fwd_nbrs[full : full + 1], fwd_eids[full : full + 1], rem)
    if int(ps.state.sigma[v]) != target:
        raise RuntimeError("vertex landed off target; realization logic broken")
    ps.register(v, pair_low(target, m))


def _settle_endgame_vertex(
    ps: _Pass,
    v: int,
    excluded_eids: set[int],
    forbidden_lows: set[int],
) -> int:
    """Choose and realize the final degree of one endgame vertex; returns
    the low end of the pair it settles in.

    Candidates run over the coarse progression of the usable backward
    edges. A candidate is kept if its value avoids the forbidden pairs
    and every analyzed vertex's current degree, and it stays realizable
    after excluding the single edge to a holder of its own pair (strict
    mode instead demands an interior progression point, which implies
    that).
    """
    m = ps.m
    nbrs, eids, b_plus, b_minus = _split_row(ps, v, excluded_eids)
    sigma_cur = int(ps.state.sigma[v])
    # row position of the first backward edge (plus before minus) to a holder of each pair
    first_edge: dict[int, int] = {}
    for pos, low in enumerate(ps.anchor_low[nbrs[: b_plus + b_minus]].tolist()):
        first_edge.setdefault(low, pos)

    for k in range(-b_minus, b_plus + 1):
        value = sigma_cur + k * m
        low = pair_low(value, m)
        if low in forbidden_lows or ps.degree_taken(low, value):
            continue
        pos = first_edge.get(low)
        eff_plus = b_plus - (pos is not None and pos < b_plus)
        eff_minus = b_minus - (pos is not None and pos >= b_plus)
        realizable = -eff_minus <= k <= eff_plus
        if realizable and (not ps.strict or -b_minus < k < b_plus):
            break
    else:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_no_option",
            message=(
                f"endgame vertex {v}: no admissible value in its progression of "
                f"{b_plus + b_minus + 1} options avoids the blocked sets"
            ),
        )

    # the edge to a holder of the chosen pair leaves the row; eff_plus/eff_minus count the rest
    if pos is not None:
        nbrs, eids = np.delete(nbrs, pos), np.delete(eids, pos)
    _realize_coarse(ps, v, k, nbrs, eids, eff_plus, eff_minus)
    if int(ps.state.sigma[v]) != value:
        raise RuntimeError("endgame vertex landed off target; realization logic broken")
    ps.register(v, low)
    return low


def _endgame_edge_candidates(m: int, multi: set[int], sigma1: int, sigma0: int) -> list[tuple[int, int]]:
    """Endgame-edge values wv, as (larger congruence count, wv) pairs,
    ranked by how badly the resulting degrees sigma + wv - m land on
    residues of the multiply-assigned pairs ``multi``: minimize the larger
    count, then the total, then the value itself."""
    res_count = Counter(low % m for low in multi)
    ranked = []
    for wv in range(m + 1):
        c1 = res_count[(sigma1 + wv) % m]
        c0 = res_count[(sigma0 + wv) % m]
        ranked.append((max(c1, c0), c1 + c0, wv))
    ranked.sort()
    return [(c_max, wv) for c_max, _c_sum, wv in ranked]


def _check_endgame_thresholds(ps: _Pass, u1: int, u0: int, d_u1: int, d_u0: int) -> None:
    if not ps.strict:
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


def _root_row(ps: _Pass, u1: int, u0: int) -> tuple[np.ndarray, np.ndarray, slice]:
    """The root u0's U-row and the slice of it that holds the endgame edge
    to u1, the root's first-visited child."""
    nbrs0, eids0 = ps.part.u_edges(ps.g, u0)
    pos = int(np.searchsorted(nbrs0, u1))
    if pos == nbrs0.size or nbrs0[pos] != u1:
        raise RuntimeError("endgame vertices are not adjacent; ordering logic broken")
    return nbrs0, eids0, slice(pos, pos + 1)


def _endgame_general(ps: _Pass, u1: int, u0: int) -> None:
    m = ps.m
    # part.du holds the degrees inside U
    _check_endgame_thresholds(ps, u1, u0, int(ps.part.du[u1]), int(ps.part.du[u0]))

    nbrs0, eids0, star = _root_row(ps, u1, u0)
    s_t = ps.multi_pair_lows()
    c_max, wv = _endgame_edge_candidates(m, s_t, int(ps.state.sigma[u1]), int(ps.state.sigma[u0]))[0]
    if ps.strict and c_max > _MAX_CONGRUENT_MULTI_PAIRS:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_threshold",
            message=(
                f"endgame edge ({u1},{u0}): best value still meets {c_max} multiply-assigned "
                f"pair sets per residue, above the allowed {_MAX_CONGRUENT_MULTI_PAIRS}"
            ),
        )
    _apply_edge_deltas(ps, u0, nbrs0[star], eids0[star], wv - m)

    # u0 is still unanalyzed, so the endgame edge is already a forward edge of u1's row
    low1 = _settle_endgame_vertex(ps, u1, excluded_eids=set(), forbidden_lows=s_t)

    # the endgame edge and a single edge from the root to another holder
    # of u1's pair leave the progression
    hit = np.flatnonzero((nbrs0 != u1) & (ps.anchor_low[nbrs0] == low1))[:1]
    excluded = set(eids0[star].tolist() + eids0[hit].tolist())
    _settle_endgame_vertex(ps, u0, excluded_eids=excluded, forbidden_lows=s_t | {low1})


def _endgame_two_vertex(ps: _Pass, u1: int, u0: int) -> None:
    """Joint search for a component that is a single edge: both degrees
    are functions of the one edge value, so candidates are tried whole."""
    m = ps.m
    _check_endgame_thresholds(ps, u1, u0, 1, 1)

    nbrs0, eids0, star = _root_row(ps, u1, u0)
    s_t = ps.multi_pair_lows()
    sigma1 = int(ps.state.sigma[u1])
    sigma0 = int(ps.state.sigma[u0])
    for _c_max, wv in _endgame_edge_candidates(m, s_t, sigma1, sigma0):
        s1 = sigma1 + wv - m
        s0 = sigma0 + wv - m
        low1 = pair_low(s1, m)
        low0 = pair_low(s0, m)
        if low1 in s_t or ps.degree_taken(low1, s1):
            continue
        if low0 in s_t or low0 == low1 or ps.degree_taken(low0, s0):
            continue
        _apply_edge_deltas(ps, u0, nbrs0[star], eids0[star], wv - m)
        ps.register(u1, low1)
        ps.register(u0, low0)
        return
    raise StageFailure(
        stage="distinguish",
        kind="kkp_no_option",
        message=(
            f"two-vertex component ({u1},{u0}): none of the {m + 1} edge values "
            "avoids all blocked sets for both endpoints"
        ),
    )


def _process_isolated(ps: _Pass, v: int) -> None:
    """A vertex with no edges inside U keeps its degree; it only needs
    that degree (and its pair) to be free."""
    sigma_v = int(ps.state.sigma[v])
    low = pair_low(sigma_v, ps.m)
    if ps.degree_taken(low, sigma_v) or low in ps.class_lows[int(ps.part.klass[v]) - 1]:
        raise StageFailure(
            stage="distinguish",
            kind="kkp_no_option",
            message=(
                f"isolated control vertex {v} carries degree {sigma_v}, which is "
                "already taken and has no edges to adjust"
            ),
        )
    ps.register(v, low)


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
    state.weights[peids] += m
    state.last_mod_stage[peids] = DISTINGUISHED_ORD
    # du counts the control edges at each vertex of U
    state.sigma[u_verts] += np.multiply(part.du[u_verts], m, dtype=np.int64)

    ps = _Pass(g, part, state, params.strict, m)

    orders = components_with_order(g, within=part.in_u)
    endgame: list[int] = []
    for order in orders:
        size = int(order.size)
        if size == 1:
            _process_isolated(ps, int(order[0]))
        elif size == 2:
            _endgame_two_vertex(ps, int(order[0]), int(order[1]))
        else:
            for pos in range(size - 2):
                _process_vertex(ps, int(order[pos]))
            _endgame_general(ps, int(order[-2]), int(order[-1]))
        # the last one or two vertices of each component settle in its endgame
        endgame.extend(order[-2:].tolist())

    state.stage = STAGE_DISTINGUISHED

    sigma_u = state.sigma[u_verts]
    u_injective = np.unique(sigma_u).size == sigma_u.size
    per_class = all((band[1:] != band[:-1]).all() for band in _class_bands(part, u_verts, state.sigma))
    incr = state.weights[peids] if peids.size else np.zeros(1, dtype=np.int64)
    return DistinguishDiagnostics(
        components=len(orders),
        endgame_vertices=endgame,
        multi_pair_count=len(ps.multi_pair_lows()),
        per_class_injective=bool(per_class),
        u_injective=bool(u_injective),
        min_increment=int(incr.min()),
        max_increment=int(incr.max()),
    )


def _class_bands(part: VertexPartition, u_verts: np.ndarray, sigma: np.ndarray) -> list[np.ndarray]:
    """The weighted degrees of U's classes 1..7, each sorted ascending."""
    by_class = sigma[u_verts[np.argsort(part.klass[u_verts], kind="stable")]]
    return [np.sort(band) for band in np.split(by_class, np.cumsum(part.class_sizes())[:-1])]


def separation_checks(
    g: Graph, part: VertexPartition, state: WeightingState, budgets: Budgets
) -> ConditionReport:
    """Post-pass ordering checks: (a) V0 degrees all below U degrees,
    (b) class bands in ascending order, (c) V0 degrees untouched since
    the tuning stage."""
    report = ConditionReport(slack=1.0)

    def check(cond: str, label: str, measured: int, bound: int, witness: str, violations: int) -> None:
        report.checks.append(ConditionCheck(
            cond=cond, label=label, passed=violations == 0, measured=float(measured), bound=float(bound),
            witness=witness if violations else "", violations=violations,
        ))

    sigma = state.sigma
    v0 = part.v0_vertices()
    uu = part.u_vertices()

    if v0.size and uu.size:
        top_v0 = int(v0[np.argmax(sigma[v0])])
        low_u = int(uu[np.argmin(sigma[uu])])
        max_v0, min_u = int(sigma[top_v0]), int(sigma[low_u])
        witness = f"sigma({top_v0})={max_v0} >= sigma({low_u})={min_u}"
        check("(a)", "V0 below U", max_v0, min_u, witness, int(max_v0 >= min_u))
    else:
        check("(a)", "V0 below U", 0, 0, "", 0)

    # the first pair of adjacent classes, both occupied, whose bands overlap
    bands = _class_bands(part, uu, sigma)
    overlaps = [
        (i, int(lo[-1]), int(hi[0]))
        for i, (lo, hi) in enumerate(zip(bands, bands[1:]), 1)
        if lo.size and hi.size and lo[-1] >= hi[0]
    ]
    i, mx, mn = overlaps[0] if overlaps else (0, 0, 0)
    witness = f"classes {i} and {i + 1}: max {mx} >= min {mn}"
    check("(b)", "class bands ascending", mx, mn, witness, int(bool(overlaps)))

    snap = state.v0_sigma_at_tuned
    moved = np.flatnonzero(sigma[v0] != snap) if snap is not None and v0.size else v0[:0]
    witness = ""
    if moved.size:
        vbad = int(v0[moved[0]])
        edge_note = ""
        eids = g.incident_edges(vbad)
        late = eids[state.last_mod_stage[eids] > TUNED_ORD]
        if late.size:
            u, w = g.edges[int(late[0])]
            edge_note = f" via edge ({u},{w})"
        witness = f"sigma({vbad}) moved after tuning{edge_note}"
    check("(c)", "V0 degrees frozen", moved.size, 0, witness, moved.size)
    return report
