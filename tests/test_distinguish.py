from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrstrength import (
    Graph,
    ParameterError,
    PipelineParams,
    StageFailure,
    WeightingState,
    run_distinguishing,
    separation_checks,
    weighted_degrees,
)
from irrstrength.distinguish import (
    _endgame_edge_candidates,
    _endgame_general,
    _Pass,
    _settle_endgame_vertex,
    _split_row,
    pair_low,
)
from irrstrength.labeling import Budgets
from tests import distinguish_reference
from tests.test_graphs import edge_id
from tests.test_labeling import make_partition


def empirical() -> PipelineParams:
    return PipelineParams(b=1.0, eps=1 / 12, mode="empirical")


def budgets_with_m(m: int) -> Budgets:
    return Budgets(
        base=10, class_step=3, fine_cap=4, coarse_step=m, target_base=20, delta_span=3
    )


def tuned_state(g: Graph, part, weight_map: dict[tuple[int, int], int]) -> WeightingState:
    w = np.zeros(g.num_edges, dtype=np.int64)
    for (u, v), wt in weight_map.items():
        w[edge_id(g, u, v)] = wt
    sigma = weighted_degrees(g, w)
    return WeightingState(
        stage="tuned",
        weights=w,
        sigma=sigma,
        mod_count=np.zeros(g.num_edges, dtype=np.int16),
        last_mod_stage=np.zeros(g.num_edges, dtype=np.int8),
        v0_sigma_at_tuned=sigma[part.v0_vertices()].copy(),
    )


class TestPairOf:
    def test_known_values(self):
        assert pair_low(-3, 5) == pair_low(-8, 5) == -8
        assert pair_low(12, 5) == pair_low(17, 5) == 12
        assert pair_low(0, 1) == pair_low(1, 1) == 0

    def test_membership_and_indices(self):
        low = pair_low(12, 5)
        # the pair {12, 17}: both members name it, 14 lies in another one
        assert low == 12 and pair_low(17, 5) == low and pair_low(14, 5) != low
        assert low + 5 == 17
        # offset 2 and parity index 1: 12 = 2 * 1 * 5 + 2
        assert low % 5 == 2
        assert (low - low % 5) // (2 * 5) == 1

    def test_bad_step(self):
        with pytest.raises(ParameterError):
            pair_low(3, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**6, 10**6), st.integers(1, 50))
    def test_low_end_is_never_the_unsettled_mark(self, value, m):
        low = pair_low(value, m)
        assert value in (low, low + m)
        assert (low // m) % 2 == 0
        # the pass marks an unsettled vertex by anchor_low -1
        assert low != -1


class TestRunDistinguishingTriangle:
    """One triangle component inside U, small enough to trace by hand."""

    def build(self):
        g = Graph(6, [(0, 1), (0, 3), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
        part = make_partition(g, [0, 0, 0, 1, 1, 1])
        state = tuned_state(g, part, {(0, 1): 10, (0, 3): 30, (1, 4): 40, (2, 5): 50})
        return g, part, state

    def test_hand_traced_outcome(self):
        g, part, state = self.build()
        diag = run_distinguishing(g, part, budgets_with_m(2), state, empirical())
        # worked trace: init lifts sigma(U) to 34/44/54; vertex 5 keeps 54
        # (pair {52,54}); the endgame edge (3,4) drops to 0, vertex 4
        # settles at 40 via edge (4,5) (toggling 5 down to 52), vertex 3
        # stays at 32
        assert state.sigma.tolist() == [40, 50, 50, 32, 40, 52]
        assert state.stage == "distinguished"
        assert diag.components == 1
        assert diag.endgame_vertices == [4, 3]
        assert diag.per_class_injective and diag.u_injective
        assert diag.multi_pair_count == 0
        # the endgame edge keeps the value it was given: its later
        # moves all skip it
        assert state.weights[edge_id(g, 3, 4)] == 0

    def test_control_edge_weight_window(self):
        g, part, state = self.build()
        m = 2
        diag = run_distinguishing(g, part, budgets_with_m(m), state, empirical())
        u_eids = [edge_id(g, *e) for e in [(3, 4), (3, 5), (4, 5)]]
        w = state.weights[u_eids]
        assert w.min() >= 0 and w.max() <= 3 * m
        assert diag.min_increment == int(w.min())
        assert diag.max_increment == int(w.max())

    def test_modification_budget(self):
        g, part, state = self.build()
        run_distinguishing(g, part, budgets_with_m(2), state, empirical())
        assert int(state.mod_count.max()) <= 2
        # cross and inner edges are never touched by this stage
        for e in [(0, 1), (0, 3), (1, 4), (2, 5)]:
            assert state.mod_count[edge_id(g, *e)] == 0

    def test_v0_degrees_frozen(self):
        g, part, state = self.build()
        before = state.sigma[part.v0_vertices()].copy()
        run_distinguishing(g, part, budgets_with_m(2), state, empirical())
        assert np.array_equal(state.sigma[part.v0_vertices()], before)
        rep = separation_checks(g, part, state, budgets_with_m(2))
        by = {c.cond: c for c in rep.checks}
        assert by["(c)"].passed

    def test_sigma_cache_consistent(self):
        g, part, state = self.build()
        run_distinguishing(g, part, budgets_with_m(2), state, empirical())
        assert np.array_equal(state.sigma, weighted_degrees(g, state.weights))

    def test_requires_tuned_stage(self):
        g, part, state = self.build()
        state.stage = "initial"
        with pytest.raises(ParameterError, match="stage"):
            run_distinguishing(g, part, budgets_with_m(2), state, empirical())


class TestSmallComponents:
    def test_isolated_vertices_distinct_degrees(self):
        g = Graph(4, [(0, 2), (1, 3)])
        part = make_partition(g, [0, 0, 1, 1])
        state = tuned_state(g, part, {(0, 2): 30, (1, 3): 32})
        diag = run_distinguishing(g, part, budgets_with_m(2), state, empirical())
        assert diag.components == 2
        assert diag.endgame_vertices == [2, 3]
        assert state.sigma[2] == 30 and state.sigma[3] == 32

    def test_isolated_collision_has_no_option(self):
        # equal degrees, same class, no control edges to adjust
        g = Graph(4, [(0, 2), (1, 3)])
        part = make_partition(g, [0, 0, 1, 1])
        state = tuned_state(g, part, {(0, 2): 30, (1, 3): 30})
        with pytest.raises(StageFailure) as exc:
            run_distinguishing(g, part, budgets_with_m(2), state, empirical())
        assert exc.value.kind == "kkp_no_option"
        assert "isolated control vertex 3" in str(exc.value)

    def test_two_vertex_component_empirical(self):
        g = Graph(4, [(0, 2), (1, 3), (2, 3)])
        part = make_partition(g, [0, 0, 1, 1])
        state = tuned_state(g, part, {(0, 2): 30, (1, 3): 40})
        diag = run_distinguishing(g, part, budgets_with_m(2), state, empirical())
        assert diag.components == 1
        # the later-ordered vertex (here 3) settles first in the endgame
        assert diag.endgame_vertices == [3, 2]
        # the edge's endgame value lies in [0, m] and is the only weight
        # either endpoint gains inside U
        w = int(state.weights[edge_id(g, 2, 3)])
        assert w in (0, 1, 2)
        s2, s3 = int(state.sigma[2]), int(state.sigma[3])
        assert (s2, s3) == (30 + w, 40 + w)
        assert s2 != s3
        assert diag.per_class_injective

    def test_two_vertex_component_strict_threshold(self):
        g = Graph(4, [(0, 2), (1, 3), (2, 3)])
        part = make_partition(g, [0, 0, 1, 1])
        state = tuned_state(g, part, {(0, 2): 30, (1, 3): 40})
        with pytest.raises(StageFailure) as exc:
            run_distinguishing(g, part, budgets_with_m(2), state, PipelineParams(b=1.0, eps=1 / 12))
        assert exc.value.stage == "distinguish"
        assert exc.value.kind == "kkp_threshold"

    def test_general_endgame_strict_threshold_counts_u_degrees(self):
        # a triangle in U whose vertices each have 50 V0 neighbors: the
        # endgame's option counts are the degrees inside U (2 and 2 - 1),
        # not the full degrees, so the strict thresholds refuse it
        edges = [(0, 1), (0, 2), (1, 2)] + [(u, 3 + 50 * u + j) for u in range(3) for j in range(50)]
        g = Graph(153, edges)
        part = make_partition(g, [1, 1, 1] + [0] * 150)
        state = tuned_state(g, part, {(u, v): 1 for u, v in edges[3:]})
        with pytest.raises(StageFailure) as exc:
            run_distinguishing(g, part, budgets_with_m(3), state, PipelineParams(b=1.0, eps=1 / 12))
        assert exc.value.kind == "kkp_threshold"
        assert str(exc.value) == (
            "endgame of component with last vertices (1, 0): option counts 2 and 1 "
            "fall below the required 45 and 47"
        )

    def test_empty_control_set(self):
        g = Graph(3, [(0, 1), (1, 2)])
        part = make_partition(g, [0, 0, 0])
        state = tuned_state(g, part, {(0, 1): 5, (1, 2): 7})
        diag = run_distinguishing(g, part, budgets_with_m(2), state, empirical())
        assert diag.components == 0
        assert state.stage == "distinguished"


class TestExhaustedInterval:
    def test_blocked_window_reports_no_option(self):
        # two isolated control vertices occupy pairs {10,11} and {12,13};
        # the triangle's first vertex then sees its whole window [10,12]
        # blocked (m=1, no backward edges, two forward edges)
        g = Graph(
            8,
            [(0, 3), (1, 4), (2, 7), (5, 6), (5, 7), (6, 7)],
        )
        part = make_partition(g, [0, 0, 0, 1, 1, 1, 1, 1])
        state = tuned_state(g, part, {(0, 3): 10, (1, 4): 12, (2, 7): 8})
        with pytest.raises(StageFailure) as exc:
            run_distinguishing(g, part, budgets_with_m(1), state, empirical())
        err = exc.value
        assert err.kind == "kkp_no_option"
        assert str(err) == (
            "vertex 7: every value in [10, 12] collides with a pair set already "
            "assigned in its class (4 blocked values)"
        )

    def test_fine_step_takes_a_u_edge(self):
        # an isolated control vertex holds pair {12,14}, so vertex 7 (at
        # 12, m=2) must step to 13 by a fine move on a forward edge; its
        # lowest neighbor 2 is in V0, so the move must skip edge (2,7)
        g = Graph(8, [(0, 3), (1, 4), (2, 7), (5, 6), (5, 7), (6, 7)])
        part = make_partition(g, [0, 0, 0, 1, 1, 1, 1, 1])
        state = tuned_state(g, part, {(0, 3): 12, (1, 4): 20, (2, 7): 8})
        run_distinguishing(g, part, budgets_with_m(2), state, empirical())
        assert state.weights[edge_id(g, 5, 7)] == 3
        assert state.mod_count[edge_id(g, 2, 7)] == 0
        assert state.sigma.tolist() == [12, 20, 8, 12, 20, 3, 2, 13]


def hand_pass(g: Graph, part, state: WeightingState, strict: bool, m: int, anchors: dict[int, int]) -> _Pass:
    """A pass over ``state`` whose analyzed vertices are the keys of
    ``anchors``, each registered at the pair its value names."""
    ps = _Pass(g, part, state, strict, m)
    for v, low in anchors.items():
        ps.register(v, low)
    return ps


class TestEndgameBranches:
    """Endgame choices that the small random cases of TestMatchesReference
    do not reach."""

    def test_edge_candidates_break_ties_on_the_total_count(self):
        # pairs 0, 1 and 2 (m=4) each have two holders, so residues 0, 1, 2
        # count once; with sigma1=0, sigma0=1 every wv has a larger count of
        # 1, and wv=2, 3 hit one residue in total where the others hit two
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        part = make_partition(g, [1] * 6)
        state = tuned_state(g, part, {})
        ps = hand_pass(g, part, state, False, 4, {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
        assert _endgame_edge_candidates(4, ps.multi_pair_lows(), 0, 1) == [(1, 2), (1, 3), (1, 0), (1, 1), (1, 4)]

    def test_neighbor_settled_at_pair_zero_is_a_plus_edge(self):
        # neighbor 1 is settled at pair 0 (sigma 0, m=2), the value an
        # unsettled mark of 0 would alias; neighbor 2 is unsettled, so its
        # edge is forward
        g = Graph(3, [(0, 1), (0, 2)])
        part = make_partition(g, [1, 1, 1])
        state = tuned_state(g, part, {})
        ps = hand_pass(g, part, state, False, 2, {1: 0})
        nbrs, eids, b_plus, b_minus = _split_row(ps, 0, ())
        assert (b_plus, b_minus) == (1, 0)
        assert nbrs.tolist() == [1, 2]
        assert eids.tolist() == [edge_id(g, 0, 1), edge_id(g, 0, 2)]

    def build_boundary(self, strict: bool):
        # control vertex 0 has analyzed neighbors 1 (sigma 100, the low end
        # of its pair, so a plus edge) and 2 (sigma 202, the high end of
        # pair 200, a minus edge); at sigma 40 and m=2 its candidates are
        # k=-1 (38), k=0 (40) and k=1 (42), none taken or forbidden
        g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (0, 5)])
        part = make_partition(g, [1, 1, 1, 0, 0, 0])
        state = tuned_state(g, part, {(0, 1): 10, (0, 2): 10, (1, 3): 90, (2, 4): 192, (0, 5): 20})
        assert state.sigma[:3].tolist() == [40, 100, 202]
        return g, state, hand_pass(g, part, state, strict, 2, {1: 100, 2: 200})

    def test_boundary_candidate_taken_in_empirical_mode(self):
        g, state, ps = self.build_boundary(strict=False)
        assert _settle_endgame_vertex(ps, 0, set(), set()) == 36
        assert state.sigma[:3].tolist() == [38, 100, 200]
        assert state.weights[edge_id(g, 0, 2)] == 8

    def test_boundary_candidate_refused_in_strict_mode(self):
        # k = -b_minus is not an interior progression point
        g, state, ps = self.build_boundary(strict=True)
        before = state.weights.copy()
        assert _settle_endgame_vertex(ps, 0, set(), set()) == 40
        assert state.sigma[:3].tolist() == [40, 100, 202]
        assert np.array_equal(state.weights, before)

    def build_congruent(self, pairs: int):
        # u1 = 1 and u0 = 0 are adjacent and share the control neighbors
        # 2..49, so both have U-degree 49 and pass the 45/47 gate. With m=1
        # every pair has residue 0; vertices 2 + 2i and 3 + 2i hold pair 2i
        # (i < pairs) and sit at its low end
        g = Graph(50, [(0, 1)] + [(u, j) for u in (0, 1) for j in range(2, 50)])
        part = make_partition(g, [1] * 50)
        anchors = {j: j - 2 - j % 2 for j in range(2, 2 + 2 * pairs)}
        state = tuned_state(g, part, {(0, 1): 100} | {(0, j): low for j, low in anchors.items()})
        return g, state, hand_pass(g, part, state, True, 1, anchors)

    def test_endgame_edge_refused_above_twenty_congruent_multi_pairs(self):
        g, state, ps = self.build_congruent(21)
        before = state.weights.copy()
        with pytest.raises(StageFailure) as exc:
            _endgame_general(ps, 1, 0)
        err = exc.value
        assert err.kind == "kkp_threshold"
        assert str(err) == (
            "endgame edge (1,0): best value still meets 21 multiply-assigned pair sets "
            "per residue, above the allowed 20"
        )
        assert np.array_equal(state.weights, before)

    def test_endgame_edge_taken_at_twenty_congruent_multi_pairs(self):
        # wv=0 lowers the endgame edge to 99; u1 then steps up to 100 on its
        # highest plus edge (to 41), and u0 keeps its degree
        g, state, ps = self.build_congruent(20)
        _endgame_general(ps, 1, 0)
        assert state.weights[edge_id(g, 0, 1)] == 99
        assert state.weights[edge_id(g, 1, 41)] == 1
        assert state.sigma[[0, 1, 41]].tolist() == [859, 100, 39]
        assert ps.anchor_low[[0, 1]].tolist() == [858, 100]


class TestSeparationChecks:
    def build(self, sigma_by_vertex: dict[int, int]):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        part = make_partition(g, [0, 0, 1, 2])
        state = tuned_state(g, part, {})
        for v, s in sigma_by_vertex.items():
            state.sigma[v] = s
        state.v0_sigma_at_tuned = state.sigma[part.v0_vertices()].copy()
        return g, part, state

    def test_all_pass(self):
        g, part, state = self.build({0: 5, 1: 6, 2: 10, 3: 20})
        rep = separation_checks(g, part, state, budgets_with_m(2))
        assert rep.passed
        assert [c.cond for c in rep.checks] == ["(a)", "(b)", "(c)"]

    def test_a_fails_with_witness(self):
        g, part, state = self.build({0: 5, 1: 50, 2: 10, 3: 20})
        rep = separation_checks(g, part, state, budgets_with_m(2))
        a = rep.checks[0]
        assert not a.passed
        assert a.witness == "sigma(1)=50 >= sigma(2)=10"

    def test_b_fails_with_witness(self):
        g, part, state = self.build({0: 5, 1: 6, 2: 30, 3: 20})
        rep = separation_checks(g, part, state, budgets_with_m(2))
        b = rep.checks[1]
        assert not b.passed
        assert b.witness == "classes 1 and 2: max 30 >= min 20"

    def test_b_skips_empty_side(self):
        g = Graph(3, [(0, 1), (1, 2)])
        part = make_partition(g, [0, 0, 3])  # only class 3 occupied
        state = tuned_state(g, part, {(1, 2): 9})
        rep = separation_checks(g, part, state, budgets_with_m(2))
        assert rep.checks[1].passed

    def test_c_detects_moved_degree(self):
        g, part, state = self.build({0: 5, 1: 6, 2: 10, 3: 20})
        eid = edge_id(g, 1, 2)
        state.weights[eid] += 3
        state.sigma[1] += 3
        state.sigma[2] += 3
        state.last_mod_stage[eid] = 2
        rep = separation_checks(g, part, state, budgets_with_m(2))
        c = rep.checks[2]
        assert not c.passed
        assert c.witness == "sigma(1) moved after tuning via edge (1,2)"
        assert c.violations == 1


@st.composite
def tuned_cases(draw):
    """A random graph on up to 14 vertices (each pair an edge with
    probability about 1/2, so few vertices end up isolated), random class
    labels (0 is V0), a pair step m in 1..5 and random tuned weights on the
    edges that are not U-edges; U-edges (both ends in a class >= 1) start
    at 0."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    g = Graph(n, edges)
    klass = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    weight_map = {
        (u, v): draw(st.integers(1, 60)) for u, v in edges if not (klass[u] and klass[v])
    }
    return g, klass, weight_map, draw(st.integers(1, 5))


class TestDistinguishingContract:
    @settings(max_examples=300, deadline=None)
    @given(tuned_cases())
    def test_contract_holds_or_no_option(self, case):
        g, klass, weight_map, m = case
        part = make_partition(g, klass)
        state = tuned_state(g, part, weight_map)
        before = state.weights.copy()
        u_edge = part.in_u[g.edges[:, 0]] & part.in_u[g.edges[:, 1]]
        try:
            run_distinguishing(g, part, budgets_with_m(m), state, empirical())
        except StageFailure as exc:
            assert exc.kind == "kkp_no_option"
            return
        assert int(state.mod_count.max(initial=0)) <= 2
        increments = state.weights[u_edge] - before[u_edge]
        assert increments.min(initial=0) >= 0 and increments.max(initial=0) <= 3 * m
        assert np.array_equal(state.weights[~u_edge], before[~u_edge])
        for i in range(1, 8):
            sigma_i = state.sigma[part.klass == i]
            assert np.unique(sigma_i).size == sigma_i.size, f"class {i}"
        v0 = part.v0_vertices()
        assert np.array_equal(state.sigma[v0], state.v0_sigma_at_tuned)
        assert np.array_equal(state.sigma, weighted_degrees(g, state.weights))


def _outcome(run, case, params: PipelineParams):
    """Everything one pass leaves behind: its diagnostics or failure, and
    the weighting state, failed runs included."""
    g, klass, weight_map, m = case
    part = make_partition(g, klass)
    state = tuned_state(g, part, weight_map)
    try:
        diag = run(g, part, budgets_with_m(m), state, params)
    except StageFailure as exc:
        result = ("failure", exc.stage, exc.kind, str(exc))
    else:
        result = ("diagnostics", {k: v for k, v in vars(diag).items() if k != "records"})
    arrays = (state.weights, state.sigma, state.mod_count, state.last_mod_stage)
    return result, state.stage, [a.tolist() for a in arrays]


class TestSeparationChecksMatchReference:
    """The post-pass checks against their verbatim earlier version in
    ``tests/distinguish_reference.py``, on the state a pass leaves (failed
    passes included) after the sigma of one or two vertices and the
    modification marks of their edges are edited, so that (a), (b) and (c)
    each both pass and fail."""

    @settings(max_examples=300, deadline=None)
    @given(case=tuned_cases(), data=st.data())
    def test_same_checks(self, case, data):
        g, klass, weight_map, m = case
        part = make_partition(g, klass)
        state = tuned_state(g, part, weight_map)
        budgets = budgets_with_m(m)
        try:
            run_distinguishing(g, part, budgets, state, empirical())
        except StageFailure:
            pass
        # move one or two vertices, from V0 half the time, and remark their
        # edges: (c) names the first late-marked edge at the first moved V0 vertex
        v0 = part.v0_vertices().tolist()
        pool = st.sampled_from(v0) if v0 and data.draw(st.booleans()) else st.integers(0, g.n - 1)
        for v in data.draw(st.lists(pool, min_size=1, max_size=2)):
            state.sigma[v] += data.draw(st.integers(-60, 60))
            eids = g.incident_edges(v)
            state.last_mod_stage[eids] = data.draw(st.lists(st.integers(0, 3), min_size=eids.size, max_size=eids.size))
        if data.draw(st.booleans()):
            state.v0_sigma_at_tuned = None
        got = separation_checks(g, part, state, budgets)
        want = distinguish_reference.separation_checks(g, part, state, budgets)
        assert got.checks == want.checks
        assert got.to_text() == want.to_text()


class TestMatchesReference:
    """The pass against its verbatim earlier version in
    ``tests/distinguish_reference.py``: the same diagnostics (the earlier
    per-component records aside), the same failure kind, message and
    witness, and the same weights, sigma and modification marks."""

    @pytest.mark.parametrize(
        "params", [empirical(), PipelineParams(b=1.0, eps=1 / 12)], ids=["empirical", "strict"]
    )
    @settings(max_examples=300, deadline=None)
    @given(case=tuned_cases())
    def test_same_outcome(self, params, case):
        assert _outcome(run_distinguishing, case, params) == _outcome(
            distinguish_reference.run_distinguishing, case, params
        )
