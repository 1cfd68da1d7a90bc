from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrstrength import (
    Graph,
    ParameterError,
    PipelineParams,
    StageFailure,
    find_partition,
    generate_random_regular,
)
from irrstrength.partition import (
    VertexPartition,
    check_partition,
    log_power,
    membership_probability,
    sample_partition,
)
from irrstrength.seeds import derive_seed
from tests import partition_reference


def empirical(b: float = 1.0, eps: float = 1 / 12, slack: float = 1.0, retries: int = 100) -> PipelineParams:
    return PipelineParams(b=b, eps=eps, slack=slack, max_retries=retries, mode="empirical")


@pytest.fixture(scope="module")
def g300():
    return generate_random_regular(300, 12, seed=17)


@pytest.fixture(scope="module")
def g100():
    return generate_random_regular(100, 10, seed=3)


class TestPipelineParams:
    def test_strict_pins_slack(self):
        p = PipelineParams(b=1.0, eps=0.1)
        assert p.strict and p.slack == 1.0
        with pytest.raises(ParameterError):
            PipelineParams(b=1.0, eps=0.1, slack=2.0)

    def test_empirical_slack_floor(self):
        empirical(slack=1.0)
        empirical(slack=3.5)
        with pytest.raises(ParameterError):
            empirical(slack=0.9)

    def test_positive_exponents(self):
        with pytest.raises(ParameterError):
            PipelineParams(b=0.0, eps=0.1)
        with pytest.raises(ParameterError):
            PipelineParams(b=1.0, eps=-0.2)

    @pytest.mark.parametrize("field", ["b", "eps", "slack"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_refused(self, field, value):
        kwargs = {"b": 1.0, "eps": 0.1, "slack": 1.0, "mode": "empirical", field: value}
        with pytest.raises(ParameterError, match=f"{field} must be finite and positive"):
            PipelineParams(**kwargs)

    def test_mode_names(self):
        with pytest.raises(ParameterError):
            PipelineParams(b=1.0, eps=0.1, mode="fast")
        with pytest.raises(ParameterError):
            PipelineParams(b=1.0, eps=0.1, max_retries=-1)


class TestMembershipProbability:
    def test_frozen_values(self):
        # recomputed independently at 40 digits before freezing
        assert membership_probability(20000, 1.0, 1 / 12) == pytest.approx(
            0.08341218413289109, rel=1e-13
        )
        assert membership_probability(5000, 1.0, 1 / 12) == pytest.approx(
            0.09821521994752462, rel=1e-13
        )
        assert membership_probability(1000, 0.2, 0.05) == pytest.approx(
            0.6168303924918301, rel=1e-13
        )

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            membership_probability(2, 1.0, 0.1)

    def test_monotone_in_exponent(self):
        # larger exponent shrinks the class side
        probs = [membership_probability(5000, b, 0.05) for b in (0.2, 0.5, 1.0, 2.0)]
        assert probs == sorted(probs, reverse=True)

    def test_overflowing_exponent_is_a_parameter_error(self):
        # ln(5000)^400.05 is about 10^372, beyond the float range, where
        # the float power raises OverflowError
        assert log_power(5000, 300.0) == math.log(5000) ** 300.0
        with pytest.raises(ParameterError, match="overflows a float at n=5000"):
            membership_probability(5000, 400.0, 0.05)


class TestSamplePartition:
    def test_deterministic(self, g300):
        a = sample_partition(g300, empirical(), seed=5)
        c = sample_partition(g300, empirical(), seed=5)
        assert np.array_equal(a.in_u, c.in_u)
        assert np.array_equal(a.klass, c.klass)
        assert not np.array_equal(a.in_u, sample_partition(g300, empirical(), seed=6).in_u)

    def test_class_labels(self, g300):
        part = sample_partition(g300, empirical(), seed=5)
        assert np.all(part.klass[~part.in_u] == 0)
        on_u = part.klass[part.in_u]
        assert on_u.size == 0 or (on_u.min() >= 1 and on_u.max() <= 7)
        assert part.u_size + part.n0 == g300.n

    def test_degree_caches(self, g300):
        part = sample_partition(g300, empirical(), seed=9)
        assert np.array_equal(part.du + part.d0, g300.degrees)
        assert np.array_equal(part.dui.sum(axis=1), part.du)
        # spot check the per-class split against direct counting
        for v in [0, 57, 123, 299]:
            nbrs = g300.neighbors(v)
            for i in range(1, 8):
                assert part.dui[v, i - 1] == int(np.sum(part.klass[nbrs] == i))
        assert part.class_sizes().sum() == part.u_size

    def test_peak_memory_per_csr_entry(self):
        # counting from the class rows holds one class's rows and their
        # index cast at a time, about 1.3 bytes per entry here; a gather of
        # every entry's class and a compare mask would hold 2.1
        g = generate_random_regular(2000, 400, seed=5)
        tracemalloc.start()
        try:
            sample_partition(g, empirical(b=0.2, eps=0.05), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.indices.size < 1.75

    def test_membership_rate_sane(self, g300):
        # crude two-sided binomial check, ~15 sigma margin
        p = membership_probability(g300.n, 1.0, 1 / 12)
        hits = sum(sample_partition(g300, empirical(), seed=s).u_size for s in range(30))
        total = 30 * g300.n
        assert abs(hits - total * p) < 15 * np.sqrt(total * p * (1 - p))


class TestCheckPartition:
    def test_report_shape(self, g100):
        part = sample_partition(g100, empirical(), seed=1)
        rep = check_partition(g100, part, empirical())
        assert [c.cond for c in rep.checks] == ["(1°)", "(2°)"]
        for c in rep.checks:
            assert c.bound > 0 and c.measured >= 0

    def test_slack_scales_bounds_only(self, g100):
        part = sample_partition(g100, empirical(), seed=1)
        r1 = check_partition(g100, part, empirical(slack=1.0))
        r5 = check_partition(g100, part, empirical(slack=5.0))
        for a, c in zip(r1.checks, r5.checks):
            assert a.measured == c.measured
            assert c.bound == pytest.approx(5.0 * a.bound)
            assert c.violations <= a.violations

    def test_huge_slack_passes(self, g100):
        part = sample_partition(g100, empirical(), seed=1)
        rep = check_partition(g100, part, empirical(slack=1e6))
        assert rep.passed and rep.worst() is None

    def test_failing_check_carries_witness(self, g100):
        # integer degrees cannot sit in a sub-unit window, so (2 deg) fails
        part = sample_partition(g100, empirical(), seed=1)
        rep = check_partition(g100, part, empirical(slack=1.0))
        deg = rep.checks[1]
        assert not deg.passed
        assert deg.violations > 0 and deg.witness
        assert "v=" in deg.witness


class TestFindPartition:
    def test_first_attempt_counts_as_one(self):
        g = generate_random_regular(100, 10, seed=3)
        part, rep, attempts = find_partition(g, empirical(slack=1e6), seed=11)
        assert attempts == 1 and rep.passed
        direct = sample_partition(g, empirical(slack=1e6), derive_seed(11, "partition", 0))
        assert np.array_equal(part.in_u, direct.in_u)

    def test_exhaustion_names_tightest_condition(self):
        g = generate_random_regular(100, 10, seed=3)
        with pytest.raises(StageFailure) as exc:
            find_partition(g, empirical(slack=1.0, retries=3), seed=11)
        err = exc.value
        assert err.stage == "partition"
        assert err.kind == "partition_conditions"
        assert str(err) == (
            "no partition met conditions (1°)-(2°) in 4 attempts; tightest: "
            "(2°) per-class degree window: FAIL measured=1.7268596875152702 "
            "bound=0.04048822115108007 witness[v=0 i=4 |2 - 0.2731403124847297| = "
            "1.7268596875152702 > 0.04048822115108007]"
        )

    def test_deterministic_resampling(self):
        g = generate_random_regular(200, 10, seed=4)
        p = empirical(slack=80.0, retries=50)
        a = find_partition(g, p, seed=7)
        c = find_partition(g, p, seed=7)
        assert a[2] == c[2] == 6  # takes several resamples at this slack
        assert np.array_equal(a[0].klass, c[0].klass)


@st.composite
def regular_graphs(draw):
    """A random d-regular graph on 3..30 vertices, d in 0..6."""
    n = draw(st.integers(3, 30))
    d = draw(st.integers(0, min(6, n - 1)))
    if (n * d) % 2:
        d -= 1
    return generate_random_regular(n, d, seed=draw(st.integers(0, 2**32)))


class TestSamplePartitionProperty:
    @settings(max_examples=60, deadline=None)
    @given(regular_graphs(), st.integers(0, 2**32))
    def test_counts_match_flat_bincount(self, g, seed):
        part = sample_partition(g, empirical(), seed=seed)
        # reference: one flat bincount over int64 (vertex, class) keys
        src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        keys = src * 8 + part.klass[g.indices].astype(np.int64)
        counts = np.bincount(keys, minlength=8 * g.n).reshape(g.n, 8)
        assert np.array_equal(part.dui, counts[:, 1:8]) and part.dui.dtype == np.int32
        assert np.array_equal(part.du, counts[:, 1:8].sum(axis=1)) and part.du.dtype == np.int32
        assert np.array_equal(part.d0, counts[:, 0]) and part.d0.dtype == np.int32

    # the three ranges give nearly all-U draws (b + eps near 0), no-U draws
    # (b + eps in the hundreds) and, in between, draws with empty classes
    exponents = st.one_of(st.floats(1e-9, 1e-6), st.floats(0.01, 2.0), st.floats(100.0, 200.0))

    @settings(max_examples=100, deadline=None)
    @given(regular_graphs(), exponents, exponents, st.integers(0, 2**32))
    def test_matches_compare_and_sum_reference(self, g, b, eps, seed):
        p = empirical(b=b, eps=eps)
        part = sample_partition(g, p, seed=seed)
        want = partition_reference.sample_partition(g, p, seed=seed)
        for name in ("in_u", "klass", "dui", "du", "d0"):
            got, ref = getattr(part, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name


def mask_u_edges(self, g, v):
    """``VertexPartition.u_edges`` as it was written with boolean masks."""
    nbrs = g.neighbors(v)
    keep = self.in_u[nbrs]
    return nbrs[keep].astype(np.int64), g.incident_edges(v)[keep].astype(np.int64)


@st.composite
def graphs_with_u_masks(draw):
    """A random simple graph on 0..20 vertices, isolated ones included,
    with a U mask that is random, all-U or no-U."""
    n = draw(st.integers(0, 20))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    kind = draw(st.sampled_from(["random", "all", "none"]))
    if kind == "random":
        in_u = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        in_u = [kind == "all"] * n
    return Graph(n, edges), np.array(in_u, dtype=bool)


class TestUEdges:
    @settings(max_examples=200, deadline=None)
    @given(graphs_with_u_masks())
    def test_matches_mask_form(self, g_mask):
        g, in_u = g_mask
        # every U-vertex in class 1; u_edges reads only the mask
        du = np.array([np.count_nonzero(in_u[g.neighbors(v)]) for v in range(g.n)], dtype=np.int32)
        dui = np.zeros((g.n, 7), dtype=np.int32)
        dui[:, 0] = du
        part = VertexPartition(in_u=in_u, klass=in_u.astype(np.int8), du=du, d0=g.degrees - du, dui=dui)
        for v in range(g.n):
            nbrs, eids = part.u_edges(g, v)
            want_nbrs, want_eids = mask_u_edges(part, g, v)
            assert nbrs.dtype == eids.dtype == np.int64
            assert np.array_equal(nbrs, want_nbrs) and np.array_equal(eids, want_eids)
            assert nbrs.size == du[v] and np.all(np.diff(nbrs) > 0)
            assert all(set(g.edges[e].tolist()) == {v, u} for u, e in zip(nbrs.tolist(), eids.tolist()))
