from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrstrength import (
    Graph,
    InputFormatError,
    ParameterError,
    exact_strength,
    finalize_and_check,
    generate_random_regular,
    is_irregular,
    regular_lower_bound,
    weighted_degrees,
)
from irrstrength import verify
from irrstrength.labeling import Budgets
from irrstrength.verify import _degree_sums_admit, _feasible_with, _search_order
from tests.test_distinguish import tuned_state
from tests.test_graphs import edge_id
from tests.test_labeling import make_partition


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestWeightedDegrees:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        # canonical edge order (0,1) (0,2) (1,2)
        assert weighted_degrees(g, np.array([1, 3, 2])).tolist() == [4, 3, 5]

    def test_all_ones_gives_degrees(self):
        g = generate_random_regular(50, 4, seed=9)
        sig = weighted_degrees(g, np.ones(g.num_edges, dtype=np.int64))
        assert np.array_equal(sig, g.degrees)

    def test_path(self):
        g = path_graph(3)
        assert weighted_degrees(g, np.array([1, 2])).tolist() == [1, 3, 2]

    def test_shape_mismatch(self):
        g = path_graph(3)
        with pytest.raises(InputFormatError):
            weighted_degrees(g, np.array([1, 2, 3]))

    def test_exact_beyond_float_precision(self):
        # 2^53 + 1 has no float64; a float sum returned 2^53 for both edges
        g = Graph(4, [(0, 1), (2, 3)])
        sig = weighted_degrees(g, np.array([2**53, 2**53 + 1], dtype=np.int64))
        assert sig.tolist() == [2**53, 2**53, 2**53 + 1, 2**53 + 1]
        assert is_irregular(g, np.array([2**53, 2**53 + 1], dtype=np.int64)).witness == (0, 1)

    def test_unsigned_weights_beyond_int64_refused(self):
        # cast to int64 first, 2^64-1 had wrapped to -1
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputFormatError, match="64-bit"):
            weighted_degrees(g, np.array([2**64 - 1, 5], dtype=np.uint64))

    def test_true_collision_beyond_float_precision(self):
        # on C10 the exact degrees of vertices 0 and 8 tie; float64 sums
        # had rounded them apart and called the weighting irregular
        g = cycle(10)
        offsets = [0, -3, 8, 3, -1, -5, -3, -7, -6, 3]
        w = np.array([2**53 + o for o in offsets], dtype=np.int64)
        want = [0] * 10
        for (u, v), wt in zip(g.edges.tolist(), w.tolist()):
            want[u] += wt
            want[v] += wt
        assert weighted_degrees(g, w).tolist() == want
        res = is_irregular(g, w)
        assert not res.irregular
        assert res.witness == (0, 8)

    def test_sum_beyond_int64_refused(self):
        g = path_graph(3)
        with pytest.raises(InputFormatError):
            weighted_degrees(g, np.array([2**62, 2**62], dtype=np.int64))

    def test_fractional_labels_refused(self):
        # truncating to int64 verified degrees [1,1,2,2] with min_label=1,
        # a different weighting from the one passed
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputFormatError):
            is_irregular(g, np.array([1.9, 2.2]))


@st.composite
def weighted_graphs(draw):
    """A simple graph on up to 9 vertices, its edges in canonical order,
    with labels in -3..3, so weighted degrees tie often and in groups."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    return n, edges, draw(st.lists(st.integers(-3, 3), min_size=len(edges), max_size=len(edges)))


class TestIsIrregular:
    def test_pass_case(self):
        g = path_graph(3)
        res = is_irregular(g, np.array([1, 2]))
        assert res.irregular and res.witness is None
        assert res.distinct_sigmas == 3
        assert (res.sigma_min, res.sigma_max) == (1, 3)

    def test_witness_is_lexicographically_smallest(self):
        # sigma = [5, 5, 7, 7, 5]: pairs (0,1) (0,4) (1,4) (2,3); min is (0,1)
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        w = np.array([5, 0, 7, 0])
        sig = weighted_degrees(g, w)
        assert sig.tolist() == [5, 5, 7, 7, 0]
        res = is_irregular(g, w)
        assert not res.irregular
        assert res.witness == (0, 1)

    @settings(max_examples=300, deadline=None)
    @given(weighted_graphs())
    @example((0, [], []))
    @example((1, [], []))
    @example((5, [], []))  # all sigmas equal
    @example((5, [(0, 4), (1, 4), (2, 3), (3, 4)], [1, 1, 1, 0]))  # sigma = [1, 1, 1, 1, 2]
    @example((6, [(0, 3), (1, 2), (2, 4), (3, 5)], [2, 2, 0, 0]))  # sigma = [2, 2, 2, 2, 0, 0]
    def test_smallest_collision_matches_brute_force(self, case):
        n, edges, labels = case
        sigma = [0] * n
        for (u, v), wt in zip(edges, labels):
            sigma[u] += wt
            sigma[v] += wt
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if sigma[u] == sigma[v]]
        res = is_irregular(Graph(n, edges), np.array(labels, dtype=np.int64))
        assert res.witness == (min(pairs) if pairs else None)
        assert res.irregular == (not pairs)
        assert res.distinct_sigmas == len(set(sigma))
        assert (res.sigma_min, res.sigma_max) == ((min(sigma), max(sigma)) if n else (0, 0))

    def test_crafted_multi_collision(self):
        g = Graph(5, [])
        res = is_irregular(g, np.array([], dtype=np.int64))
        # all sigmas are zero; the reported pair is the smallest ids
        assert res.witness == (0, 1)
        assert res.distinct_sigmas == 1

    def test_cap_controls_bound_ok(self):
        g = path_graph(3)
        assert is_irregular(g, np.array([1, 2]), cap=2).bound_ok
        assert not is_irregular(g, np.array([1, 3]), cap=2).bound_ok
        assert is_irregular(g, np.array([1, 3])).bound_ok  # no cap given

    def test_to_text_shapes(self):
        g = path_graph(3)
        good = is_irregular(g, np.array([1, 2])).to_text()
        assert "irregular=True" in good and "witness=\n" in good
        bad = is_irregular(g, np.array([1, 1])).to_text()
        assert "witness=0,2" in bad


class TestFinalizeAndCheck:
    def budgets(self) -> Budgets:
        return Budgets(
            base=10, class_step=3, fine_cap=4, coarse_step=2, target_base=20, delta_span=3
        )

    def test_shift_and_verdict(self):
        # K3 with working weights 0/1/2 shifts to 1/2/3, which is a
        # valid irregular assignment of the triangle
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        part = make_partition(g, [0, 0, 0])
        state = tuned_state(g, part, {(0, 2): 2, (1, 2): 1})
        state.stage = "distinguished"
        res = finalize_and_check(g, state, self.budgets())
        assert state.weights.tolist() == [1, 3, 2]
        assert state.sigma.tolist() == [4, 3, 5]
        assert state.stage == "final"
        assert res.irregular and res.min_label == 1
        assert res.bound_ok  # max label 3 <= cap 36

    def test_collision_survives_shift(self):
        # regular graph: uniform +1 moves every sigma by d, so a tie
        # before the shift is a tie after it
        g = cycle(4)
        part = make_partition(g, [0, 0, 0, 0])
        state = tuned_state(g, part, {(0, 1): 5, (2, 3): 5})
        state.stage = "distinguished"
        before = weighted_degrees(g, state.weights)
        res = finalize_and_check(g, state, self.budgets())
        assert not res.irregular
        assert np.array_equal(state.sigma, before + 2)

    def test_negative_weight_refused(self):
        g = path_graph(3)
        part = make_partition(g, [0, 0, 0])
        state = tuned_state(g, part, {(0, 1): -1})
        state.stage = "distinguished"
        with pytest.raises(RuntimeError, match="negative"):
            finalize_and_check(g, state, self.budgets())

    def test_requires_distinguished(self):
        g = path_graph(3)
        part = make_partition(g, [0, 0, 0])
        state = tuned_state(g, part, {})
        with pytest.raises(ParameterError, match="stage"):
            finalize_and_check(g, state, self.budgets())


class TestRegularLowerBound:
    def test_reference_values(self):
        assert regular_lower_bound(13, 3) == 5
        assert regular_lower_bound(4, 3) == 2
        assert regular_lower_bound(5, 2) == 3

    def test_matches_ceiling_formula(self):
        for n in range(1, 40):
            for d in range(1, n + 1):
                assert regular_lower_bound(n, d) == -((n + d - 1) // -d)

    def test_domain(self):
        with pytest.raises(ParameterError):
            regular_lower_bound(5, 0)
        with pytest.raises(ParameterError):
            regular_lower_bound(0, 2)


class TestExactStrength:
    def test_p3(self):
        res = exact_strength(path_graph(3))
        assert res.strength == 2 and not res.exceeded
        assert res.witness.tolist() == [1, 2]

    def test_c4(self):
        res = exact_strength(cycle(4))
        assert res.strength == 3
        # canonical edge order (0,1) (0,3) (1,2) (2,3)
        assert res.witness.tolist() == [1, 1, 2, 3]
        assert weighted_degrees(cycle(4), res.witness).tolist() == [2, 3, 5, 4]

    def test_c5_and_alternate_witness(self):
        res = exact_strength(cycle(5))
        assert res.strength == 3
        assert res.witness.tolist() == [1, 1, 2, 3, 3]
        sig = weighted_degrees(cycle(5), res.witness)
        assert sorted(sig.tolist()) == [2, 3, 4, 5, 6]
        # the same values 1,1,2,3,3 laid around the cycle, i.e. on edges
        # (0,1) (1,2) (2,3) (3,4) (4,0) in that traversal order, are an
        # independent strength-3 assignment
        g = cycle(5)
        alt = np.zeros(5, dtype=np.int64)
        for (u, v), wt in zip([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [1, 1, 2, 3, 3]):
            alt[edge_id(g, u, v)] = wt
        assert is_irregular(g, alt).irregular
        assert sorted(weighted_degrees(g, alt).tolist()) == [2, 3, 4, 5, 6]
        assert alt.max() == 3

    def test_witness_verified_independently(self):
        for n, d, seed in [(6, 3, 1), (8, 3, 2), (7, 4, 3)]:
            g = generate_random_regular(n, d, seed)
            res = exact_strength(g)
            assert res.strength is not None
            assert is_irregular(g, res.witness).irregular
            assert int(res.witness.max()) == res.strength
            assert res.strength >= regular_lower_bound(n, d)
            # minimality: one less never suffices
            if res.strength > 1:
                h = exact_strength(g, k_max=res.strength - 1)
                assert h.exceeded

    def test_k_max_exceeded(self):
        res = exact_strength(cycle(5), k_max=2)
        assert res.exceeded and res.strength is None
        assert res.k_max == 2 and res.witness is None
        assert res.to_text().startswith("strength=>2")

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_k_max_below_one_refused(self, k_max):
        with pytest.raises(ParameterError, match="k_max"):
            exact_strength(path_graph(3), k_max=k_max)

    def test_single_edge_undefined(self):
        with pytest.raises(ParameterError, match="isolated"):
            exact_strength(Graph(2, [(0, 1)]))

    def test_two_isolated_vertices_undefined(self):
        with pytest.raises(ParameterError, match="isolated"):
            exact_strength(Graph(5, [(0, 1), (1, 2)]))

    def test_edge_budget_guard(self):
        g = generate_random_regular(12, 4, seed=5)  # 24 edges
        with pytest.raises(ParameterError, match="edges"):
            exact_strength(g)
        with mock.patch.object(verify, "_MAX_EDGES", 24):
            assert exact_strength(g).strength is not None

    def test_empty_graph_strength_one(self):
        res = exact_strength(Graph(1, []))
        assert res.strength == 1 and res.witness.size == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_skipped_levels_have_no_weighting(self, data):
        # the degree-sum certificate may only skip levels that the plain
        # search exhausts; at most 11 edges keep that search short
        n = data.draw(st.integers(2, 12))
        d = data.draw(st.sampled_from([d for d in range(1, n) if n * d % 2 == 0 and n * d <= 22]))
        g = generate_random_regular(n, d, seed=data.draw(st.integers(0, 2**32)))
        skipped = [k for k in range(1, n + 1) if not _degree_sums_admit(n, d, k)]
        k = data.draw(st.sampled_from(skipped))
        assert _feasible_with(g, k, _search_order(g))[0] is None

    def test_witnesses_of_the_plain_search(self):
        # what the search found before it skipped any level
        want = {
            7: (5, [1, 1, 2, 2, 3, 4, 5]),
            11: (7, [1, 1, 2, 2, 3, 3, 4, 5, 5, 6, 7]),
            12: (7, [1, 1, 2, 2, 3, 3, 4, 5, 5, 6, 6, 7]),
        }
        for n, (strength, witness) in want.items():
            res = exact_strength(cycle(n))
            assert (res.strength, res.witness.tolist()) == (strength, witness)

    def test_degree_sums_rule_out_levels_below_the_counting_bound(self):
        # the search used to start at the bound; the certificate skips
        # every level below it, and only at it adds a parity case: C7,
        # C11 and the cubic graphs on 10 vertices reach the bound only
        # with weighted degrees d..kd, whose sum is odd
        for n in range(2, 40):
            for d in range(1, n):
                k = regular_lower_bound(n, d)
                assert not _degree_sums_admit(n, d, k - 1) and _degree_sums_admit(n, d, k + 1)
        parity = {(7, 2), (11, 2), (10, 3)}
        for n, d in parity | {(5, 2), (4, 3), (9, 2)}:
            assert _degree_sums_admit(n, d, regular_lower_bound(n, d)) == ((n, d) not in parity)

    def test_regular_start_skips_low_k(self):
        # on a regular graph the search starts at the proven lower bound
        res = exact_strength(cycle(5))
        assert res.strength == 3
        # C5's bound is 3, so a hypothetical k=2 tree was never explored:
        # rerunning with k_max=3 must agree
        assert exact_strength(cycle(5), k_max=3).strength == 3
