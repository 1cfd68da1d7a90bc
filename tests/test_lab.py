from __future__ import annotations

import hashlib
import math

import pytest

from irrstrength import (
    ParameterError,
    PipelineParams,
    binomial_tail_estimate,
    chernoff_bounds,
    condition_failure_rates,
)
from irrstrength.lab import RateTable, TailEstimate


def empirical(slack: float = 1.0) -> PipelineParams:
    return PipelineParams(b=1.0, eps=1 / 12, slack=slack, mode="empirical")


class TestChernoffBounds:
    def test_reference_point(self):
        upper, lower = chernoff_bounds(1000, 0.5, 100.0)
        assert upper == pytest.approx(math.exp(-20 / 3), rel=1e-15)
        assert lower == pytest.approx(math.exp(-10.0), rel=1e-15)
        assert lower < upper

    def test_zero_deviation(self):
        assert chernoff_bounds(50, 0.3, 0.0) == (1.0, 1.0)

    def test_hypothesis_domain(self):
        with pytest.raises(ParameterError):
            chernoff_bounds(10, 0.5, 6.0)  # t > np = 5
        with pytest.raises(ParameterError):
            chernoff_bounds(10, 0.5, -1.0)
        with pytest.raises(ParameterError):
            chernoff_bounds(10, 0.5, float("nan"))
        with pytest.raises(ParameterError):
            chernoff_bounds(10, 0.0, 1.0)
        with pytest.raises(ParameterError):
            chernoff_bounds(10, 1.0, 1.0)
        with pytest.raises(ParameterError):
            chernoff_bounds(0, 0.5, 0.0)

    def test_monotone_in_t(self):
        uppers = [chernoff_bounds(100, 0.5, t)[0] for t in (0.0, 10.0, 25.0, 50.0)]
        assert uppers == sorted(uppers, reverse=True)


class TestBinomialTailEstimate:
    def test_deterministic(self):
        a = binomial_tail_estimate(100, 0.5, 10.0, trials=2000, seed=7)
        c = binomial_tail_estimate(100, 0.5, 10.0, trials=2000, seed=7)
        assert a == c
        d = binomial_tail_estimate(100, 0.5, 10.0, trials=2000, seed=8)
        assert a != d

    def test_pinned_streams(self):
        # both draw paths, held to their values rather than to themselves
        assert binomial_tail_estimate(100, 0.5, 10.0, trials=2000, seed=7) == TailEstimate(
            p_above=0.014, p_below=0.019,
            se_above=0.002627165773224065, se_below=0.003052785613173647, trials=2000,
        )
        assert binomial_tail_estimate(60, 0.3, 6.0, trials=4000, seed=5) == TailEstimate(
            p_above=0.03975, p_below=0.0295,
            se_above=0.0030890911891687496, se_below=0.002675338763596117, trials=4000,
        )

    def test_boundary_t_equals_np(self):
        # above means strictly more than 2np successes: impossible
        est = binomial_tail_estimate(10, 0.5, 5.0, trials=500, seed=1)
        assert est.p_above == 0.0 and est.p_below == 0.0

    def test_tails_below_bounds_at_comfortable_point(self):
        n, p, t = 100, 0.5, 20.0
        upper, lower = chernoff_bounds(n, p, t)
        est = binomial_tail_estimate(n, p, t, trials=20000, seed=3)
        # true tails here are ~3e-5; the bounds are ~0.07 and ~0.02
        assert est.p_above <= upper
        assert est.p_below <= lower

    def test_general_p_path(self):
        est = binomial_tail_estimate(60, 0.3, 6.0, trials=4000, seed=5)
        assert est == binomial_tail_estimate(60, 0.3, 6.0, trials=4000, seed=5)
        assert 0.0 <= est.p_above <= 1.0 and 0.0 <= est.p_below <= 1.0
        # crude sanity: both tails beyond 6 of a Bin(60,0.3) are < 10%
        assert est.p_above < 0.1 and est.p_below < 0.1

    def test_small_n_bit_path(self):
        # n < 8 exercises the partial-byte unpack
        est = binomial_tail_estimate(5, 0.5, 2.0, trials=3000, seed=9)
        assert est.p_above > 0.0  # P(X > 4.5) = P(X=5) = 1/32
        assert est.p_above == pytest.approx(1 / 32, abs=0.02)

    def test_domain(self):
        with pytest.raises(ParameterError):
            binomial_tail_estimate(10, 0.5, 1.0, trials=0, seed=0)
        with pytest.raises(ParameterError):
            binomial_tail_estimate(0, 0.5, 0.0, trials=10, seed=0)
        with pytest.raises(ParameterError):
            binomial_tail_estimate(10, 1.0, 1.0, trials=10, seed=0)
        # numpy cannot size a row of 8 * 2**60 bytes
        with pytest.raises(ParameterError, match="too large"):
            binomial_tail_estimate(2**60, 0.3, 1.0, trials=1, seed=0)


class TestConditionFailureRates:
    def test_csv_shape_and_order(self):
        table = condition_failure_rates(150, 6, empirical(), trials=3, seed=4)
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == RateTable.CSV_HEADER
        assert lines[0].count(",") == 9  # ten columns
        conds = [ln.split(",")[0] for ln in lines[1:]]
        assert conds == ["(1°)", "(2°)", "(3°)", "(4°)", "(5°)", "(6°)"]
        for ln in lines[1:]:
            assert ln.split(",")[1] == "150" and ln.split(",")[2] == "6"

    def test_huge_slack_never_fails(self):
        table = condition_failure_rates(150, 6, empirical(slack=1e9), trials=4, seed=4)
        assert all(r.rate == 0.0 for r in table.rows)
        assert all(r.mean_violation == 0.0 for r in table.rows)

    def test_rates_exactly_monotone_in_slack(self):
        # trial seeds do not involve slack, so each trial reuses the
        # identical sample and rates can only fall as slack grows
        tables = [
            condition_failure_rates(150, 6, empirical(slack=s), trials=6, seed=11)
            for s in (1.0, 1.5, 2.0)
        ]
        for i in range(6):
            rates = [t.rows[i].rate for t in tables]
            assert rates == sorted(rates, reverse=True)

    def test_deterministic_with_generated_graphs(self):
        p = empirical()
        a = condition_failure_rates(60, 4, p, trials=2, seed=13)
        c = condition_failure_rates(60, 4, p, trials=2, seed=13)
        assert a.to_csv() == c.to_csv()

    def test_pinned_csv(self):
        # conditions (5°) and (6°) read the heavy counts r_size, so this
        # pins the heavy test together with the partition and x draws
        p = PipelineParams(b=0.2, eps=0.05, mode="empirical")
        text = condition_failure_rates(2000, 40, p, trials=5, seed=7).to_csv()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "466217216568a9a78705cce2e6b6d36caf150e4e88377cc8cc0f12794fb4edde"

    def test_trials_domain(self):
        with pytest.raises(ParameterError):
            condition_failure_rates(60, 4, empirical(), trials=0, seed=1)
