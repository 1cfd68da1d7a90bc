from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from irrstrength import (
    Graph,
    InputFormatError,
    ParameterError,
    PipelineParams,
    StageFailure,
    assign_omega_prime,
    compute_budgets,
    find_x,
    generate_random_regular,
    initial_weighting,
    read_weights_csv,
    weighted_degrees,
    write_weights_csv,
)
from irrstrength import graphs, labeling
from irrstrength.labeling import (
    Budgets,
    XAssignment,
    _ceil_log_term,
    check_x_conditions,
    initial_sigma,
    sample_x,
    tuning_deltas,
    weight_rows,
)
from irrstrength.partition import VertexPartition, sample_partition
from tests import reader_reference
from tests.test_graphs import assert_reads_like_reference, edge_id, ids, row_texts, simple_graphs, text_files
from tests.test_partition import regular_graphs


def empirical(slack: float = 1.0, retries: int = 100) -> PipelineParams:
    return PipelineParams(b=1.0, eps=1 / 12, slack=slack, max_retries=retries, mode="empirical")


def make_partition(g: Graph, klass_list: list[int]) -> VertexPartition:
    """Partition with caches rebuilt by brute force from the labels."""
    klass = np.array(klass_list, dtype=np.int8)
    in_u = klass > 0
    du = np.zeros(g.n, dtype=np.int32)
    d0 = np.zeros(g.n, dtype=np.int32)
    dui = np.zeros((g.n, 7), dtype=np.int32)
    for v in range(g.n):
        for u in g.neighbors(v):
            k = int(klass[u])
            if k:
                du[v] += 1
                dui[v, k - 1] += 1
            else:
                d0[v] += 1
    return VertexPartition(in_u=in_u, klass=klass, du=du, d0=d0, dui=dui)


def make_x(g: Graph, part: VertexPartition, values: dict[int, float]) -> XAssignment:
    """XAssignment with the order and heavy-edge caches rebuilt from
    explicit x values."""
    x = np.full(g.n, np.nan)
    for v, xv in values.items():
        x[v] = xv
    v0 = part.v0_vertices()
    order = np.array(sorted(v0, key=lambda v: (x[v], v)), dtype=np.int64)
    rank = np.full(g.n, -1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    heavy = brute_heavy_edges(g, part, x)
    r_size = np.zeros(g.n, dtype=np.int64)
    for eid in heavy:
        r_size[g.edges[eid]] += 1
    return XAssignment(x=x, order=order, rank=rank, r_size=r_size, heavy=np.array(heavy, dtype=np.int64))


def brute_heavy_edges(g: Graph, part: VertexPartition, x: np.ndarray) -> list[int]:
    """Ids of the inner V0 edges with x_u + x_v >= 1, one edge at a time."""
    heavy = []
    for eid in range(g.num_edges):
        u, v = int(g.edges[eid, 0]), int(g.edges[eid, 1])
        if not part.in_u[u] and not part.in_u[v] and x[u] + x[v] >= 1.0:
            heavy.append(eid)
    return heavy


def ceil_oracle(n: int, k: int, power: float) -> int:
    """ceil(n / (k ln^power n)) at 60 significant digits, through mpmath."""
    with mp.workdps(60):
        return int(mp.ceil(mp.mpf(n) / (mp.mpf(k) * mp.log(n) ** mp.mpf(power))))


@st.composite
def near_integer_terms(draw) -> tuple[int, int, float]:
    """(n, k, power) with n / (k ln^power n) equal to an integer up to
    the float error of the power."""
    n = draw(st.integers(3, 2**31 - 1))
    k = draw(st.integers(1, min(7, n // 3)) | st.integers(1, n // 3))  # a small k, a large quotient
    target = draw(st.integers(1, n // k - 1))
    return n, k, math.log(n / (k * target)) / math.log(math.log(n))


class TestComputeBudgets:
    def test_frozen_reference_point(self):
        # values re-derived independently at 40 digits before freezing
        bud = compute_budgets(20000, 1000, 0.2, 0.05)
        assert (bud.base, bud.class_step, bud.fine_cap, bud.coarse_step) == (20, 13, 12, 6)
        assert bud.target_base == 51121
        assert bud.delta_span == 658
        assert bud.label_cap() == 124
        assert bud.near_integer_fields == ()

    def test_frozen_small_points(self):
        bud = compute_budgets(5000, 1000, 0.2, 0.05)
        assert (bud.base, bud.class_step, bud.fine_cap, bud.coarse_step) == (5, 4, 3, 1)
        assert (bud.target_base, bud.delta_span, bud.label_cap()) == (13635, 94, 37)

    def test_nonpositive_span_is_returned_not_raised(self):
        bud = compute_budgets(30, 3, 1.0, 1.0)
        assert (bud.base, bud.class_step, bud.fine_cap, bud.coarse_step) == (10, 3, 1, 3)
        assert bud.target_base == 9
        assert bud.delta_span == -1  # rejecting this is the pipeline's job
        assert bud.label_cap() == 33

    def test_zero_coarse_step_rejected(self):
        with pytest.raises(ParameterError, match="floor"):
            compute_budgets(10, 4, 1.0, 1.0)

    def test_domain(self):
        with pytest.raises(ParameterError):
            compute_budgets(2, 1, 1.0, 1.0)
        with pytest.raises(ParameterError):
            compute_budgets(100, 0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            compute_budgets(100, 100, 1.0, 1.0)
        with pytest.raises(ParameterError):
            compute_budgets(100, 3, 0.0, 1.0)
        for b, eps in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ParameterError, match="finite"):
                compute_budgets(100, 3, b, eps)

    def test_near_integer_guard_fires(self):
        # power chosen so n / ln(n)^power lands on an integer up to float
        # error, which is far inside the 1e-9 guard band
        power = math.log(1000 / 200) / math.log(math.log(1000))
        value, flagged = _ceil_log_term(1000, 1, power)
        assert flagged is True
        assert value == ceil_oracle(1000, 1, power) == 201

    @given(near_integer_terms())
    @example((1675971720, 1, 0.25695214295285834))  # 764281385.0000000125, one float ulp off
    @settings(max_examples=200, deadline=None)
    def test_near_integer_terms_match_oracle(self, term):
        # the float error of the quotient grows with it, so a fixed band
        # misses near-integers above about 10^7
        assert _ceil_log_term(*term) == (ceil_oracle(*term), True)

    def test_plain_value_not_flagged(self):
        value, flagged = _ceil_log_term(1000, 7, 1.5)
        assert flagged is False
        assert value == math.ceil(1000 / (7 * math.log(1000) ** 1.5))


@pytest.fixture(scope="module")
def setup():
    g = generate_random_regular(200, 8, seed=21)
    part = sample_partition(g, empirical(), seed=2)
    xa = sample_x(g, part, seed=3)
    return g, part, xa


class TestSampleX:
    def test_values_only_on_v0(self, setup):
        g, part, xa = setup
        assert np.all(np.isfinite(xa.x[part.v0_vertices()]))
        assert np.all(np.isnan(xa.x[part.u_vertices()]))
        v0x = xa.x[part.v0_vertices()]
        assert v0x.min() >= 0.0 and v0x.max() < 1.0

    def test_order_is_sorted_and_rank_inverts(self, setup):
        g, part, xa = setup
        xs = xa.x[xa.order]
        assert np.all(np.diff(xs) >= 0)
        for j, v in enumerate(xa.order):
            assert xa.rank[v] == j
        assert np.all(xa.rank[part.u_vertices()] == -1)

    def test_r_size_matches_brute_force(self, setup):
        g, part, xa = setup
        brute = np.zeros(g.n, dtype=np.int64)
        for eid in range(g.num_edges):
            u, v = int(g.edges[eid, 0]), int(g.edges[eid, 1])
            if not part.in_u[u] and not part.in_u[v] and xa.x[u] + xa.x[v] >= 1.0:
                brute[u] += 1
                brute[v] += 1
        assert np.array_equal(xa.r_size, brute)

    @pytest.mark.parametrize("block", [None, 1, 7, 800])
    def test_heavy_matches_brute_force(self, setup, monkeypatch, block):
        # the graph has 800 edges: one block by default, or blocks of 1, of 7
        # with a short last block, or of exactly the edge count
        g, part, _ = setup
        if block is not None:
            monkeypatch.setattr(labeling, "_EDGE_BLOCK", block)
        xa = sample_x(g, part, seed=3)
        want = brute_heavy_edges(g, part, xa.x)
        assert want and xa.heavy.tolist() == want
        assert xa.heavy.dtype == np.int64

    def test_deterministic(self, setup):
        g, part, _ = setup
        a = sample_x(g, part, seed=3)
        c = sample_x(g, part, seed=3)
        assert np.array_equal(a.order, c.order)

    def test_empty_v0_gives_the_empty_assignment(self, setup):
        # an all-U partition is a legal draw, and (3°)-(6°) quantify over
        # V0, so they hold vacuously on it
        g, _, _ = setup
        allu = make_partition(g, [1] * g.n)
        xa = sample_x(g, allu, seed=0)
        assert xa.order.size == 0 and xa.heavy.size == 0
        assert np.all(np.isnan(xa.x))
        assert np.all(xa.rank == -1) and not np.any(xa.r_size)
        rep = check_x_conditions(g, allu, xa, empirical())
        assert [c.cond for c in rep.checks] == ["(3°)", "(4°)", "(5°)", "(6°)"]
        assert rep.passed
        assert all(c.measured == c.bound == 0.0 for c in rep.checks)


class TestCheckXConditions:
    def test_condition_names_in_order(self):
        g = generate_random_regular(200, 8, seed=21)
        part = sample_partition(g, empirical(), seed=2)
        xa = sample_x(g, part, seed=3)
        rep = check_x_conditions(g, part, xa, empirical())
        assert [c.cond for c in rep.checks] == ["(3°)", "(4°)", "(5°)", "(6°)"]

    def test_empty_mask_passes_vacuously(self):
        # all x above the threshold leaves (4) and (6) without instances
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        part = make_partition(g, [0, 0, 0, 0])
        xa = make_x(g, part, {0: 0.9, 1: 0.8, 2: 0.7, 3: 0.6})
        rep = check_x_conditions(g, part, xa, empirical())
        by = {c.cond: c for c in rep.checks}
        assert by["(4°)"].passed and by["(4°)"].bound == 0.0
        assert by["(6°)"].passed and by["(6°)"].bound == 0.0

    def test_slack_widens_monotonically(self):
        g = generate_random_regular(300, 10, seed=22)
        part = sample_partition(g, empirical(), seed=4)
        xa = sample_x(g, part, seed=5)
        reports = [check_x_conditions(g, part, xa, empirical(slack=s)) for s in (1.0, 2.0, 8.0)]
        for cond in range(4):
            viols = [r.checks[cond].violations for r in reports]
            assert viols == sorted(viols, reverse=True)


class TestFindX:
    def test_huge_slack_first_attempt(self):
        g = generate_random_regular(200, 8, seed=21)
        part = sample_partition(g, empirical(), seed=2)
        xa, rep, attempts = find_x(g, part, empirical(slack=1e9), seed=6)
        assert attempts == 1 and rep.passed

    def test_exhaustion_kind_and_stage(self):
        # integer order positions cannot meet sub-unit windows at n=100
        g = generate_random_regular(100, 10, seed=3)
        part = sample_partition(g, empirical(), seed=2)
        with pytest.raises(StageFailure) as exc:
            find_x(g, part, empirical(slack=1.0, retries=2), seed=6)
        assert exc.value.stage == "x"
        assert exc.value.kind == "x_conditions"
        assert str(exc.value) == (
            "no x assignment met conditions (3°)-(6°) in 3 attempts; tightest: "
            "(5°) heavy count vs x: FAIL measured=4.4910222608956065 bound=0.12779234150630897 "
            "witness[v=52 x=0.5009975265671548 deviation 4.4910222608956065 > 0.12779234150630897]"
        )


def tiny_instance():
    """Six vertices, V0 = {0,1,2}, U = {3,4,5} with classes (1,1,2).

    Every initial weight below is hand computed; tests compare against
    these numbers, not against the code under test.
    """
    g = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (0, 1), (3, 4)])
    part = make_partition(g, [0, 0, 0, 1, 1, 2])
    xa = make_x(g, part, {0: 0.7, 1: 0.4, 2: 0.5})
    budgets = Budgets(
        base=10, class_step=3, fine_cap=12, coarse_step=2, target_base=40, delta_span=3
    )
    return g, part, xa, budgets


class TestInitialWeighting:
    def test_hand_oracle(self):
        g, part, xa, budgets = tiny_instance()
        state = initial_weighting(g, part, xa, budgets)
        # canonical edge order: (0,1) (0,3) (0,4) (1,4) (1,5) (2,3) (2,5) (3,4)
        assert state.weights.tolist() == [10, 13, 13, 13, 16, 13, 16, 0]
        assert state.sigma.tolist() == [36, 39, 29, 26, 26, 32]
        assert state.stage == "initial"
        assert np.all(state.mod_count == 0)
        assert np.all(state.last_mod_stage == 0)
        assert state.v0_sigma_at_tuned is None

    def test_light_inner_edge_zero(self):
        g, part, xa, budgets = tiny_instance()
        xa2 = make_x(g, part, {0: 0.2, 1: 0.4, 2: 0.5})  # 0.2+0.4 < 1
        state = initial_weighting(g, part, xa2, budgets)
        eid = edge_id(g, 0, 1)
        assert state.weights[eid] == 0

    def test_sigma_cache_matches_recompute(self):
        g, part, xa, budgets = tiny_instance()
        state = initial_weighting(g, part, xa, budgets)
        assert np.array_equal(state.sigma, weighted_degrees(g, state.weights))

    @pytest.mark.parametrize(
        "base, class_step, error, match",
        [
            (2**62, 3, InputFormatError, r"^weighted degrees may exceed the 64-bit integer range$"),
            (10, 2**61, InputFormatError, r"^weighted degrees may exceed the 64-bit integer range$"),
            (2**63, 3, OverflowError, "too large to convert"),
            (10, 2**63, OverflowError, "too large to convert"),
        ],
    )
    def test_huge_budgets_refused(self, base, class_step, error, match):
        g, part, xa, _ = tiny_instance()
        budgets = Budgets(
            base=base, class_step=class_step, fine_cap=12, coarse_step=2, target_base=40, delta_span=3
        )
        with pytest.raises(error, match=match):
            initial_weighting(g, part, xa, budgets)


def wrap_int64(value: int) -> int:
    return (value + 2**63) % 2**64 - 2**63


@st.composite
def weighting_instances(draw) -> tuple[Graph, VertexPartition, XAssignment]:
    """A simple graph, not necessarily regular, with a hand-made
    partition and x values that include exact halves and quarters, so
    that x_u + x_v = 1 occurs."""
    n, edges = draw(simple_graphs(max_n=10))
    g = Graph(n, edges)
    classes = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5, 6, 7]), min_size=n, max_size=n))
    part = make_partition(g, classes)
    xs = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.floats(0.0, 1.0, exclude_max=True))
    values = {int(v): draw(xs) for v in part.v0_vertices()}
    return g, part, make_x(g, part, values)


class TestInitialWeightingClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(
        weighting_instances(),
        st.one_of(st.integers(1, 100), st.integers(1, 2**63 - 1)),
        st.one_of(st.integers(1, 100), st.integers(1, 2**63 - 1), st.sampled_from([2**61, 2**62])),
    )
    def test_sigma_matches_weighted_degrees(self, instance, base, class_step):
        g, part, xa = instance
        budgets = Budgets(
            base=base, class_step=class_step, fine_cap=1, coarse_step=1, target_base=0, delta_span=1
        )
        # reference weights edge by edge in Python ints, wrapped as int64 arithmetic wraps
        heavy, want = set(xa.heavy.tolist()), []
        for eid, (u, v) in enumerate(g.edges.tolist()):
            ku, kv = int(part.klass[u]), int(part.klass[v])
            if (ku == 0) != (kv == 0):
                want.append(wrap_int64(base + max(ku, kv) * class_step))
            else:
                want.append(base if eid in heavy else 0)
        want = np.array(want, dtype=np.int64)
        try:
            want_sigma = weighted_degrees(g, want)
        except InputFormatError as exc:
            with pytest.raises(InputFormatError, match=f"^{re.escape(str(exc))}$"):
                initial_weighting(g, part, xa, budgets)
            return
        state = initial_weighting(g, part, xa, budgets)
        assert np.array_equal(state.weights, want)
        assert state.sigma.dtype == np.int64
        assert np.array_equal(state.sigma, want_sigma)


class TestInitialWeightingProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        regular_graphs(),
        st.integers(0, 2**32),
        st.integers(1, 10**6),
        st.integers(1, 10**9),
    )
    def test_matches_int64_copy_formula(self, g, seed, base, class_step):
        part = sample_partition(g, empirical(), seed=seed)
        assume(part.n0 > 0)
        xa = sample_x(g, part, seed=seed + 1)
        budgets = Budgets(
            base=base, class_step=class_step, fine_cap=1, coarse_step=1, target_base=0, delta_span=1
        )
        state = initial_weighting(g, part, xa, budgets)
        # reference: every operand widened to int64 before any arithmetic
        eu, ev = g.edges[:, 0].astype(np.int64), g.edges[:, 1].astype(np.int64)
        ku, kv = part.klass[eu].astype(np.int64), part.klass[ev].astype(np.int64)
        want = np.zeros(g.num_edges, dtype=np.int64)
        inner = (ku == 0) & (kv == 0)
        heavy = xa.x[eu[inner]] + xa.x[ev[inner]] >= 1.0
        want[inner] = np.where(heavy, np.int64(base), np.int64(0))
        cross = (ku == 0) != (kv == 0)
        want[cross] = base + np.maximum(ku, kv)[cross] * class_step
        assert state.weights.dtype == np.int64
        assert np.array_equal(state.weights, want)
        assert np.array_equal(state.sigma, weighted_degrees(g, want))


class TestAssignOmegaPrime:
    def test_feasible_hand_oracle(self):
        g, part, xa, budgets = tiny_instance()
        state = initial_weighting(g, part, xa, budgets)
        rep = assign_omega_prime(g, part, xa, budgets, state, empirical())
        # order is [1, 2, 0], targets 41, 42, 43; worked increments:
        # v1 needs 2 on edge (1,4); v2 needs 13 = 12 on (2,3) + 1 on (2,5);
        # v0 needs 7 on (0,3)
        assert state.weights.tolist() == [10, 20, 13, 15, 16, 25, 17, 0]
        assert state.sigma.tolist() == [43, 41, 42, 45, 28, 33]
        assert state.stage == "tuned"
        assert state.v0_sigma_at_tuned.tolist() == [43, 41, 42]
        touched = [edge_id(g, *e) for e in [(0, 3), (1, 4), (2, 3), (2, 5)]]
        assert sorted(np.nonzero(state.last_mod_stage == 1)[0].tolist()) == sorted(touched)
        assert np.all(state.mod_count == 0)
        assert rep.sandwich_rate == pytest.approx(1 / 3)
        assert rep.max_v0_sigma == 43 and rep.min_u_sigma == 28
        assert rep.separation_ok is False

    def test_per_edge_increments_capped(self):
        g, part, xa, budgets = tiny_instance()
        state = initial_weighting(g, part, xa, budgets)
        before = state.weights.copy()
        assign_omega_prime(g, part, xa, budgets, state, empirical())
        incr = state.weights - before
        assert incr.max() <= budgets.fine_cap
        assert incr.min() >= 0

    def test_strict_separation_failure_raises(self):
        g, part, xa, budgets = tiny_instance()
        state = initial_weighting(g, part, xa, budgets)
        with pytest.raises(StageFailure) as exc:
            assign_omega_prime(g, part, xa, budgets, state, PipelineParams(b=1.0, eps=1 / 12))
        assert exc.value.stage == "omega_prime"
        assert exc.value.kind == "separation"
        # the increments were applied before the separation verdict
        assert state.stage == "tuned"

    def test_empty_v0_separates_vacuously(self):
        # every U degree is 0 here, as is the reported V0 maximum, yet an
        # empty V0 has nothing to hold below U, so strict mode accepts it
        g, _, _, budgets = tiny_instance()
        part = make_partition(g, [1] * g.n)
        xa = sample_x(g, part, seed=0)
        state = initial_weighting(g, part, xa, budgets)
        rep = assign_omega_prime(g, part, xa, budgets, state, PipelineParams(b=1.0, eps=1 / 12))
        assert (rep.max_v0_sigma, rep.min_u_sigma) == (0, 0)
        assert rep.separation_ok is True
        assert state.stage == "tuned" and state.v0_sigma_at_tuned.size == 0

    def test_infeasible_is_all_or_nothing(self):
        g, part, xa, _ = tiny_instance()
        lowcap = Budgets(
            base=10, class_step=3, fine_cap=2, coarse_step=2, target_base=40, delta_span=3
        )
        state = initial_weighting(g, part, xa, lowcap)
        before = state.weights.copy()
        with pytest.raises(StageFailure) as exc:
            assign_omega_prime(g, part, xa, lowcap, state, empirical())
        err = exc.value
        assert err.stage == "omega_prime" and err.kind == "delta_infeasible"
        assert str(err) == (
            "tuning increment infeasible at position j=2 (vertex 2): needed 13, "
            "capacity window [0, 4] (2 positions violate in total)"
        )
        assert np.array_equal(state.weights, before)
        assert state.stage == "initial"

    def test_requires_initial_stage(self):
        g, part, xa, budgets = tiny_instance()
        state = initial_weighting(g, part, xa, budgets)
        assign_omega_prime(g, part, xa, budgets, state, empirical())
        with pytest.raises(ParameterError, match="stage"):
            assign_omega_prime(g, part, xa, budgets, state, empirical())


def tuning_refusal(run) -> tuple | None:
    """(stage, kind, message) of the StageFailure ``run()`` raises, or None."""
    try:
        run()
    except StageFailure as exc:
        return exc.stage, exc.kind, str(exc)
    return None


class TestTuningDeltas:
    @settings(max_examples=300, deadline=None)
    @given(
        weighting_instances(),
        st.integers(1, 20),
        st.integers(1, 20),
        st.integers(1, 30),
        st.integers(-3, 12),
    )
    def test_refuses_exactly_when_assign_omega_prime_does(
        self, instance, base, class_step, fine_cap, shift
    ):
        g, part, xa = instance
        budgets = Budgets(
            base=base, class_step=class_step, fine_cap=fine_cap, coarse_step=1,
            target_base=0, delta_span=1,
        )
        state = initial_weighting(g, part, xa, budgets)
        # targets placed so that the smallest increment is ``shift``: both
        # outcomes are common, and increments below 0 and above the
        # capacity both occur
        start = state.sigma[xa.order] - np.arange(xa.order.size)
        budgets = dataclasses.replace(budgets, target_base=int(start.max(initial=1)) - 1 + shift)
        want = tuning_refusal(lambda: assign_omega_prime(g, part, xa, budgets, state, empirical()))
        got = tuning_refusal(lambda: tuning_deltas(part, xa, budgets, initial_sigma(part, xa, budgets)))
        assert got == want

    def test_hand_oracle(self):
        g, part, xa, budgets = tiny_instance()
        # sigma on V0 is [36, 39, 29] and the order is [1, 2, 0]
        targets, deltas = tuning_deltas(part, xa, budgets, initial_sigma(part, xa, budgets))
        assert targets.tolist() == [41, 42, 43]
        assert deltas.tolist() == [2, 13, 7]


@st.composite
def weights_csv_files(draw) -> tuple[Graph, bytes]:
    """A graph and a weights CSV for it that mixes the writer's plain rows
    with every other line the reader meets: spaced, signed and padded
    fields, headers, comments, blank lines, faulty rows, missing and
    repeated edges, and ids and weights of 18 to 21 digits. In half the
    draws the rows keep the writer's edge-id order, so that those lines
    fall inside runs that go on in order."""
    n, edges = draw(simple_graphs(max_n=8))
    in_order = draw(st.booleans())
    if in_order:
        edges = Graph(n, edges).edges.tolist()
    weights = st.one_of(
        st.integers(-5, 50),
        st.integers(-(2**63), 2**63 - 1),
        st.sampled_from([10**18 - 1, -(10**18) + 1, 10**18, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**19 - 1, 10**20]),
    )

    # each edge once, but now and then missing or twice
    copies = draw(st.lists(st.sampled_from([1] * 8 + [0, 2]), min_size=len(edges), max_size=len(edges)))
    lines = [draw(row_texts((u, v, draw(weights)), [","])) for (u, v), k in zip(edges, copies) for _ in range(k)]
    if not in_order:
        lines = draw(st.permutations(lines))
    others = st.sampled_from(["", "  ", "# stage=final", "u,v,weight", "0,1", "0,1,x", "0,1,2,3", "0;1;2", "0,1,\xe9"])
    for _ in range(draw(st.integers(0, 4))):
        line = draw(st.one_of(others, st.tuples(ids(n), ids(n), weights).flatmap(lambda r: row_texts(r, [","]))))
        lines.insert(draw(st.integers(0, len(lines))), line)
    header = draw(st.sampled_from([[], ["u,v,weight"], ["# stage=final n=8", "u,v,weight"]]))
    return Graph(n, edges), draw(text_files(header + lines))


class TestWeightsCsv:
    @settings(max_examples=300, deadline=None)
    @given(weights_csv_files(), st.integers(1, 64))
    def test_reader_matches_line_loop(self, tmp_path_factory, case, block):
        g, data = case
        assert_reads_like_reference(
            tmp_path_factory.mktemp("csv"), data, block,
            lambda path: read_weights_csv(str(path), g),
            lambda path: reader_reference.read_weights_csv(str(path), g),
        )

    def test_round_trip(self, tmp_path):
        g, part, xa, budgets = tiny_instance()
        state = initial_weighting(g, part, xa, budgets)
        path = str(tmp_path / "w.csv")
        write_weights_csv(g, state, path, n=6, d=2, b=1.0, eps=0.5, seed=99)
        back = read_weights_csv(path, g)
        assert np.array_equal(back, state.weights)
        text = Path(path).read_text()
        assert text.startswith("# stage=initial n=6 d=2 ")
        assert "seed=99" in text.splitlines()[0]
        assert text.splitlines()[1] == "u,v,weight"

    def test_rows_refuse_a_short_vector(self, tmp_path):
        # zip used to stop at the shorter column: two rows for three edges
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        with pytest.raises(InputFormatError, match=r"^weight vector covers \(2,\) entries, graph has 3 edges$"):
            list(weight_rows(g, np.array([1, 2])))
        path = tmp_path / "w.csv"
        with pytest.raises(InputFormatError, match="weight vector covers"):
            write_weights_csv(g, SimpleNamespace(stage="final", weights=np.array([1, 2])), str(path), 4, 1, 1.0, 0.5, 0)
        assert not path.exists()

    def test_rows_refuse_float_weights(self):
        # 1.5 and 2.0 were written as such, which no reader accepts
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        with pytest.raises(InputFormatError, match=r"^weights must be integers, got dtype float64$"):
            list(weight_rows(g, np.array([1.5, 2.0, 3.0])))

    def test_read_errors(self, tmp_path):
        g = Graph(3, [(0, 1), (1, 2)])
        cases = [
            ("0,1\n", "expected u,v,weight"),
            ("0,1,x\n", "non-integer"),
            ("0,2,5\n", "not in graph"),
            ("0,1,5\n0,1,6\n", "duplicate"),
            ("0,1,5\n", "no weight given"),
        ]
        for body, match in cases:
            path = tmp_path / "bad.csv"
            path.write_text("# h\nu,v,weight\n" + body)
            with pytest.raises(InputFormatError, match=match):
                read_weights_csv(str(path), g)

    def test_shuffled_swapped_rows_read_back(self, tmp_path):
        rng = np.random.default_rng(3)
        for seed in range(3):
            g = generate_random_regular(30, 4, seed=seed)
            weights = rng.integers(-(2**62), 2**62, size=g.num_edges)
            rows = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for (u, v), w in zip(g.edges.tolist(), weights.tolist())]
            lines = ["# shuffled", "u,v,weight"] + [f"{u},{v},{w}" for u, v, w in (rows[i] for i in rng.permutation(len(rows)))]
            path = tmp_path / f"w{seed}.csv"
            path.write_text("\n".join(lines) + "\n")
            assert np.array_equal(read_weights_csv(str(path), g), weights)

    def test_in_order_run_onto_given_ids_is_a_duplicate(self, tmp_path):
        # after edges 0-4 the last run goes on in order, onto edges 5 and 6,
        # which the first run already gave
        g = Graph(12, [(i, i + 1) for i in range(11)])
        rows = [f"{i},{i + 1},{i}" for i in range(5, 10)]
        rows += ["# again"] + [f"{i},{i + 1},{i}" for i in range(5)]
        rows += ["# again"] + [f"{i},{i + 1},{i}" for i in range(5, 7)]
        path = tmp_path / "w.csv"
        path.write_text("\n".join(rows) + "\n")
        for read in (read_weights_csv, reader_reference.read_weights_csv):
            with pytest.raises(InputFormatError, match=r"^line 13: duplicate weight for edge \(5,6\)$"):
                read(str(path), g)

    def test_writer_order_needs_no_search(self, tmp_path):
        # every run of a written file goes on in edge-id order, so none is
        # looked up, also when small blocks cut the file into many runs
        g = generate_random_regular(60, 5, seed=0)
        weights = np.random.default_rng(0).integers(-(2**62), 2**62, size=g.num_edges)
        path = str(tmp_path / "w.csv")
        write_weights_csv(g, SimpleNamespace(stage="final", weights=weights), path, 60, 5, 1.0, 0.5, 0)

        def no_search(g):
            def lookup(us, vs):
                raise AssertionError("a writer-order run was looked up")

            return lookup

        with mock.patch.object(labeling, "edge_lookup", no_search), mock.patch.object(graphs, "_READ_BLOCK", 64):
            back = read_weights_csv(path, g)
        assert np.array_equal(back, weights)

    def test_earlier_fault_wins(self, tmp_path):
        # a non-edge on line 3 comes before the unparsable line 4
        g = Graph(3, [(0, 1), (1, 2)])
        path = tmp_path / "w.csv"
        path.write_text("u,v,weight\n0,1,5\n0,2,5\n1,2,x\n")
        with pytest.raises(InputFormatError, match=r"^line 3: edge \(0,2\) not in graph$"):
            read_weights_csv(str(path), g)

    def test_out_of_range_ids_are_not_edges(self, tmp_path):
        # -1 * 5 + 6 is the key of edge (0, 1), which such ids used to alias
        g = Graph(5, [(0, 1)])
        path = tmp_path / "w.csv"
        path.write_text("u,v,weight\n-1,6,7\n")
        with pytest.raises(InputFormatError, match=r"^line 2: edge \(-1,6\) not in graph$"):
            read_weights_csv(str(path), g)

    def test_read_peak_memory_per_edge(self, tmp_path):
        # the reader holds the weights, one flag and one int64 key per
        # edge (17 bytes) and the rows of one block; a buffer of every
        # row alone would add 24 bytes per edge
        g = Graph(1000, np.column_stack(np.triu_indices(1000, 1)))
        state = SimpleNamespace(stage="final", weights=np.arange(g.num_edges) - 7)
        path = str(tmp_path / "w.csv")
        write_weights_csv(g, state, path, 1000, 999, 1.0, 0.5, 0)
        tracemalloc.start()
        try:
            back = read_weights_csv(path, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, state.weights)
        assert peak / g.num_edges < 32
