from __future__ import annotations

import math

import pytest

from irrstrength import (
    Graph,
    ParameterError,
    PipelineParams,
    generate_random_regular,
    run_pipeline,
    strict_degree_window,
)
from irrstrength import pipeline
from irrstrength.pipeline import FAILURE_KINDS


def empirical(slack: float = 1.0, retries: int = 100) -> PipelineParams:
    return PipelineParams(b=1.0, eps=1 / 12, slack=slack, max_retries=retries, mode="empirical")


class TestStrictDegreeWindow:
    def test_formula(self):
        lo, hi = strict_degree_window(5000, 1.0, 1 / 12)
        logn = math.log(5000)
        assert lo == pytest.approx(logn ** 8.0, rel=1e-12)
        assert hi == pytest.approx(5000 / logn ** (2 + 5 / 12), rel=1e-12)

    def test_empty_at_desk_scale_for_headline_exponents(self):
        # ln^8 n > n for every n this machine can hold when b=1
        lo, hi = strict_degree_window(10**6, 1.0, 1 / 12)
        assert lo > hi

    def test_small_n(self):
        with pytest.raises(ParameterError):
            strict_degree_window(2, 1.0, 0.1)

    def test_overflowing_exponent(self):
        # ln(5000)^361.6 is about 10^336
        with pytest.raises(ParameterError, match="overflows a float"):
            strict_degree_window(5000, 60.0, 0.05)


class TestEntryValidation:
    def test_non_regular_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        res = run_pipeline(g, empirical(), seed=1)
        assert not res.success
        assert res.failure_stage == "entry"
        assert res.failure_kind == "parameter"
        assert "regular" in res.failure_message

    def test_degree_too_large_for_coarse_step(self):
        g = generate_random_regular(10, 4, seed=1)  # floor(10/12) = 0
        res = run_pipeline(g, empirical(), seed=1)
        assert res.failure_kind == "parameter"
        assert "floor" in res.failure_message

    def test_nonpositive_tuning_span(self):
        # the span depends only on (n, b, eps); these exponents sink it
        g = generate_random_regular(500, 40, seed=2)
        p = PipelineParams(b=0.2, eps=0.05, mode="empirical")
        res = run_pipeline(g, p, seed=1)
        assert res.failure_kind == "parameter"
        assert "tuning span" in res.failure_message
        assert res.budgets is not None and res.budgets.delta_span < 1

    def test_overflowing_log_power_is_reported(self):
        # ln(50)^800.05 in the budgets overflows a float
        g = generate_random_regular(50, 4, seed=1)
        res = run_pipeline(g, PipelineParams(b=400.0, eps=0.05, mode="empirical"), seed=1)
        assert res.failure_stage == "entry"
        assert res.failure_kind == "parameter"
        assert "overflows a float" in res.failure_message

    def test_strict_refuses_out_of_window(self):
        g = generate_random_regular(2000, 40, seed=3)
        res = run_pipeline(g, PipelineParams(b=1.0, eps=1 / 12), seed=1)
        assert not res.success
        assert res.failure_kind == "parameter"
        assert "degree window" in res.failure_message
        assert "strict" in res.failure_message

    def test_empirical_reports_window_but_proceeds(self):
        g = generate_random_regular(2000, 40, seed=3)
        res = run_pipeline(g, empirical(), seed=1)
        # got past entry: the recorded failure is a stage, not entry
        assert res.failure_stage != "entry"
        assert res.window_contains_d is False
        assert res.window_low > res.window_high  # empty window here


class TestStageFailures:
    def test_small_run_fails_with_named_stage(self):
        # a huge slack lets the sampling stages pass, so the run reaches
        # the tuning stage, whose targets are hopeless at this size
        g = generate_random_regular(2000, 40, seed=3)
        res = run_pipeline(g, empirical(slack=1e6), seed=1)
        assert not res.success
        assert res.failure_kind in FAILURE_KINDS
        assert res.failure_kind == "delta_infeasible"
        assert res.failure_stage == "omega_prime"
        assert "infeasible" in res.failure_message
        # reports up to the failure point are retained
        assert res.partition_report is not None
        assert res.x_report is not None
        assert res.feasibility is None

    def test_timings_keep_the_failing_stage(self):
        g = generate_random_regular(2000, 40, seed=3)
        res = run_pipeline(g, empirical(slack=1e6), seed=1)
        assert res.failure_kind == "delta_infeasible"
        assert [stage for stage, _ in res.timings] == ["partition", "x", "tuning"]
        assert all(seconds > 0 for _, seconds in res.timings)

    def test_infeasible_tuning_builds_no_weights(self, monkeypatch):
        def no_weights(*args, **kwargs):
            raise AssertionError("initial weighting built")

        monkeypatch.setattr(pipeline, "initial_weighting", no_weights)
        g = generate_random_regular(2000, 40, seed=3)
        res = run_pipeline(g, empirical(slack=1e6), seed=1)
        assert res.failure_kind == "delta_infeasible"
        assert res.failure_stage == "omega_prime"
        assert [stage for stage, _ in res.timings] == ["partition", "x", "tuning"]
        assert res.state is None

    def test_partition_exhaustion_surfaces(self):
        g = generate_random_regular(100, 10, seed=3)
        res = run_pipeline(g, empirical(retries=2), seed=1)
        assert res.failure_stage == "partition"
        assert res.failure_kind == "partition_conditions"
        assert "tightest:" in res.failure_message


class TestReportText:
    def test_deterministic_and_complete(self):
        g = generate_random_regular(2000, 40, seed=3)
        a = run_pipeline(g, empirical(slack=1e6), seed=5)
        c = run_pipeline(g, empirical(slack=1e6), seed=5)
        assert a.to_text() == c.to_text()
        text = a.to_text()
        for key in (
            "n=2000",
            "d=40",
            "mode=empirical",
            "seed=5",
            "success=false",
            "failure.stage=omega_prime",
            "failure.kind=delta_infeasible",
            "membership_prob=",
            "window.low=",
            "budgets.base=",
            "budgets.label_cap=",
            "partition.attempts=1",
            "x.attempts=1",
        ):
            assert key in text, key

    def test_seed_changes_output(self):
        g = generate_random_regular(2000, 40, seed=3)
        a = run_pipeline(g, empirical(slack=1e6), seed=5)
        b = run_pipeline(g, empirical(slack=1e6), seed=6)
        # same failure kind, different sampled witnesses
        assert a.failure_kind == b.failure_kind == "delta_infeasible"
        assert a.to_text() != b.to_text()

    def test_timings_never_in_report(self, capsys):
        g = generate_random_regular(2000, 40, seed=3)
        res = run_pipeline(g, empirical(slack=1e6), seed=5)
        captured = capsys.readouterr()
        assert res.timings
        assert captured.out == ""
        assert "timing" not in res.to_text()
        assert "seconds" not in res.to_text()

    def test_no_timings_by_default(self, capsys):
        g = generate_random_regular(2000, 40, seed=3)
        run_pipeline(g, empirical(), seed=5)
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == ""


class TestFailureKindsRegistry:
    def test_registry_is_fixed(self):
        assert FAILURE_KINDS == (
            "parameter",
            "partition_conditions",
            "x_conditions",
            "delta_infeasible",
            "kkp_no_option",
            "kkp_threshold",
            "separation",
            "verification",
            "bound",
        )
