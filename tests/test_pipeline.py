from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from irrstrength import (
    Graph,
    ParameterError,
    PipelineParams,
    generate_random_regular,
    run_pipeline,
    strict_degree_window,
    weighted_degrees,
)
from irrstrength import pipeline
from irrstrength.labeling import STAGE_FINAL
from irrstrength.pipeline import FAILURE_KINDS
from tests.test_partition import regular_graphs


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

    def test_parameter_error_inside_a_stage_is_a_failed_run(self, monkeypatch):
        # the entry checks pass on this input; a stage that then refuses a
        # parameter ends the run as a failure, not as an exception
        def refuse(*args, **kwargs):
            raise ParameterError("boom")

        monkeypatch.setattr(pipeline, "find_partition", refuse)
        g = generate_random_regular(2000, 40, seed=3)
        res = run_pipeline(g, empirical(slack=1e6), seed=1)
        assert not res.success
        assert (res.failure_stage, res.failure_kind, res.failure_message) == ("stage", "parameter", "boom")
        assert [stage for stage, _ in res.timings] == ["partition"]

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


# the timed stages in run order, and the timing that each failure stage ends on
TIMED_STAGES = ("partition", "x", "tuning", "distinguish", "separation", "verify")
FAILURE_TIMING = {
    "entry": None,
    "partition": "partition",
    "x": "x",
    "omega_prime": "tuning",
    "distinguish": "distinguish",
    "separation": "separation",
    "verification": "verify",
}
# at this point a 4-vertex matching falls wholly into U for about one
# pipeline seed in three, and about half of the runs pass tuning
EMPTY_V0_POINT = (0.01, 0.85)


@st.composite
def pipeline_inputs(draw):
    if draw(st.booleans()):
        g = generate_random_regular(4, 1, seed=draw(st.integers(0, 2**32)))
        b, eps = EMPTY_V0_POINT
    else:
        g = draw(regular_graphs())
        b, eps = draw(st.sampled_from([(1.0, 1 / 12), (0.1, 0.5), (0.01, 0.5), (0.01, 0.85)]))
    # strict runs at these sizes stop at the degree window, so draw fewer
    if draw(st.integers(0, 3)) == 0:
        params = PipelineParams(b=b, eps=eps)
    else:
        slack = draw(st.one_of(st.just(1e6), st.floats(1.0, 1e6)))
        params = PipelineParams(b=b, eps=eps, slack=slack, mode="empirical")
    return g, params, draw(st.integers(0, 2**32))


class TestRunContract:
    """What every run_pipeline result promises, whichever stage it ends in."""

    @settings(max_examples=300, deadline=None)
    @given(pipeline_inputs())
    # two runs that reach separation with a nonempty V0, the second with
    # modified U-edges; random draws rarely get that far at these sizes
    @example((Graph(4, [(0, 2), (1, 3)]), PipelineParams(*EMPTY_V0_POINT, 1e6, mode="empirical"), 38))
    @example((generate_random_regular(12, 2, seed=1), PipelineParams(0.01, 0.5, 1e6, mode="empirical"), 36))
    def test_contract(self, case):
        g, params, seed = case
        res = run_pipeline(g, params, seed)
        assert res.to_text() == run_pipeline(g, params, seed).to_text()
        event(f"ends at {res.failure_stage or 'success'}")
        if res.partition is not None and res.partition.n0 == 0:
            event("empty V0")

        stages = [stage for stage, _ in res.timings]
        if res.success:
            assert res.failure_kind is None and stages == list(TIMED_STAGES)
        else:
            assert res.failure_kind in FAILURE_KINDS
            # a parameter that passed the entry checks is refused by no stage
            assert res.failure_stage in FAILURE_TIMING
            last = FAILURE_TIMING[res.failure_stage]
            assert stages == list(TIMED_STAGES[: TIMED_STAGES.index(last) + 1] if last else ())

        untuned = res.failure_stage in ("entry", "partition", "x") or res.failure_kind == "delta_infeasible"
        assert (res.state is None) == untuned
        if res.state is None:
            return
        state, part = res.state, res.partition
        assert np.array_equal(weighted_degrees(g, state.weights), state.sigma)
        assert state.mod_count.max(initial=0) <= 2
        # the V0 degrees at tuning are the consecutive targets, and stay so
        # (separation (c)) up to the final shift by the degree
        v0 = part.v0_vertices()
        base = res.budgets.target_base
        assert sorted(state.v0_sigma_at_tuned.tolist()) == list(range(base + 1, base + 1 + v0.size))
        shift = 1 if state.stage == STAGE_FINAL else 0
        assert np.array_equal(state.sigma[v0] - shift * res.d, state.v0_sigma_at_tuned)

        dg = res.diagnostics
        if dg is None:
            return
        u = part.u_vertices()
        assert dg.u_injective == (np.unique(state.sigma[u]).size == u.size)
        classes = [u[part.klass[u] == i] for i in range(1, 8)]
        assert dg.per_class_injective == all(np.unique(state.sigma[c]).size == c.size for c in classes)
        incr = state.weights[part.in_u[g.edges].all(axis=1)] - shift
        assert (dg.min_increment, dg.max_increment) == ((incr.min(), incr.max()) if incr.size else (0, 0))
