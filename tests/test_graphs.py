from __future__ import annotations

import hashlib
import io
import math
import re
import threading
import tracemalloc
from itertools import accumulate
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrstrength import (
    Graph,
    InputFormatError,
    ParameterError,
    RetryExhausted,
    components_with_order,
    generate_random_regular,
    induced_subgraph,
    read_edge_list,
    read_graph6,
    write_edge_list,
    write_graph6,
)
from irrstrength import graphs
from irrstrength.labeling import read_weights_csv, write_weights_csv
from irrstrength.seeds import derive_seed
from tests import graph_reference, pairing_reference, reader_reference


def edge_id(g: Graph, u: int, v: int) -> int:
    """The id of the edge joining u and v, through ``graphs.edge_lookup``;
    fails when they are not adjacent."""
    (eid,) = graphs.edge_lookup(g)([u], [v]).tolist()
    assert eid >= 0, f"no edge ({u},{v})"
    return eid


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_edges(n: int) -> np.ndarray:
    return np.array([(a, b) for a in range(n) for b in range(a + 1, n)]).reshape(-1, 2)


def k4() -> Graph:
    return Graph(4, complete_edges(4))


@st.composite
def pairing_cases(draw) -> tuple[int, int]:
    """(n, d) with n*d even, sparse or dense up to d = n - 1."""
    n = draw(st.integers(2, 40))
    d = draw(st.one_of(st.integers(1, min(6, n - 1)), st.integers(max(1, n - 4), n - 1)))
    return (n + 1, d) if n * d % 2 else (n, d)


def reference_edge_list(g: Graph) -> str:
    return f"# {g.n} {g.num_edges}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)


def reference_weight_rows(g: Graph, weights: np.ndarray) -> str:
    return "u,v,weight\n" + "".join(f"{u},{v},{w}\n" for (u, v), w in zip(g.edges.tolist(), weights.tolist()))


def assert_same_lines(got: str, want: str) -> None:
    """Fail on any difference, naming the first differing line; the
    line lists keep their ends, so they are equal only when the texts
    are. No assert diffs the texts, which takes minutes at 10^5 lines."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    if got_lines != want_lines:
        pairs = zip(got_lines, want_lines)
        first = next((i for i, (a, b) in enumerate(pairs) if a != b), min(len(got_lines), len(want_lines)))
        pytest.fail(
            f"line {first} differs: got {got_lines[first : first + 1]!r}, want {want_lines[first : first + 1]!r} "
            f"({len(got_lines)} lines against {len(want_lines)})"
        )


def assert_writers_match_reference(g: Graph, weights: np.ndarray, folder) -> None:
    write_edge_list(g, folder / "g.txt")
    assert_same_lines((folder / "g.txt").read_text(), reference_edge_list(g))
    state = SimpleNamespace(stage="final", weights=weights)
    write_weights_csv(g, state, str(folder / "w.csv"), n=g.n, d=3, b=0.2, eps=0.05, seed=7)
    header = f"# stage=final n={g.n} d=3 b=0.2 eps=0.05 seed=7\n"
    assert_same_lines((folder / "w.csv").read_text(), header + reference_weight_rows(g, weights))


class TestGraphBasics:
    def test_canonical_edges_sorted(self):
        g = Graph(4, [(3, 1), (2, 0), (1, 0)])
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]

    def test_rejects_loops_dups_range(self):
        with pytest.raises(ParameterError):
            Graph(3, [(0, 0)])
        with pytest.raises(ParameterError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ParameterError):
            Graph(3, [(0, 3)])

    def test_adjacency_symmetric_and_sorted(self):
        g = cycle(5)
        for v in range(5):
            nbrs = g.neighbors(v)
            assert list(nbrs) == sorted(nbrs)
            for u in nbrs:
                assert v in g.neighbors(u)

    def test_edge_lookup(self):
        g = cycle(5)
        eid, missing = graphs.edge_lookup(g)([4, 0], [0, 2]).tolist()
        assert set(g.edges[eid]) == {0, 4}
        assert missing == -1

    def test_edge_lookup_out_of_range_ids(self):
        # -1 * 5 + 6 is the key of edge (0, 1), which ids outside 0..n-1
        # used to alias
        g = Graph(5, [(0, 1)])
        assert graphs.edge_lookup(g)(np.array([-1, 0]), np.array([6, 1])).tolist() == [-1, 0]

    def test_rejects_fractional_endpoints(self):
        with pytest.raises(ParameterError, match="integers"):
            Graph(3, np.array([[0.9, 2.2]]))

    def test_refuses_edge_ids_beyond_32_bits(self):
        # 2^31 rows of a broadcast view: the refusal comes before any pass
        # over them, so it allocates nothing
        rows = np.broadcast_to(np.array([0, 1], dtype=np.int32), (2**31, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="edge count 2147483648 exceeds the 32-bit id range"):
                Graph(2, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_construction_peak_memory_per_edge(self):
        # the arrays kept take 24 bytes per edge and the sorts' transients
        # about 6 more at their peak; stable argsorts and their gathers
        # would add 18
        g = generate_random_regular(2000, 200, seed=7)
        shuffled = np.random.default_rng(0).permutation(g.edges)
        for rows in (g.edges, shuffled):
            tracemalloc.start()
            try:
                Graph(g.n, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / g.num_edges < 38

    def test_regular_degree(self):
        assert k4().regular_degree() == 3
        with pytest.raises(ParameterError):
            Graph(3, [(0, 1)]).regular_degree()
        with pytest.raises(ParameterError, match=r"^empty graph has no degree$"):
            Graph(0).regular_degree()

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (-1, None, "vertex count must be nonnegative, got -1"),
            (3, [[0, 1, 2]], r"edges must be a sequence of \(u, v\) pairs"),
        ],
    )
    def test_refusals(self, n, edges, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            Graph(n, edges)


class TestEdgeListCodec:
    def test_parse_p3(self, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.n == 3 and g.edges.tolist() == [[0, 1], [1, 2]]

    def test_round_trip_k3(self, tmp_path):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        path = tmp_path / "k3.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.n == g.n and np.array_equal(back.edges, g.edges)

    def test_header_preserves_isolated_vertices(self, tmp_path):
        g = Graph(6, [(0, 1)])
        path = tmp_path / "iso.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).n == 6

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nx y\n")
        with pytest.raises(InputFormatError, match="line 2"):
            read_edge_list(path)


class TestWriters:
    def test_every_integer_dtype_at_its_marks(self, tmp_path):
        # every mark in one block and across blocks, then blocks that are
        # all negative or all 0
        for dtype in INT_DTYPES:
            marks = dtype_marks(dtype)
            for values in filter(None, (marks, [x for x in marks if x < 0], [0] * 5)):
                for block in (1, 3, len(marks)):
                    with mock.patch.object(graphs, "_ROW_BLOCK", block):
                        assert_rows_match_loop(np.array(values, dtype=dtype), tmp_path)

    def test_sizes_around_the_block(self, tmp_path):
        # one row short of a block, a full block, one row into the next,
        # and more than two blocks, at the block size the writers use
        block = graphs._ROW_BLOCK
        n = math.isqrt(4 * block + 6) + 2  # n(n-1)/2 > 2 * block + 3 pairs
        pairs = np.column_stack(np.triu_indices(n, 1)).astype(np.int32)
        rng = np.random.default_rng(5)
        for m in (0, block - 1, block, block + 1, 2 * block + 3):
            g = Graph(n, pairs[:m])
            assert_writers_match_reference(g, rng.integers(-(10**12), 10**12, m), tmp_path)


class TestGraph6Codec:
    def test_c5_known_bytes(self):
        # independent reference encoders emit exactly this string for C5
        assert write_graph6(cycle(5)) == "Dhc"
        g = read_graph6("Dhc")
        assert g.n == 5 and g.num_edges == 5
        assert np.all(g.degrees == 2)

    def test_round_trip_sizes(self):
        # crosses both header forms: short (n<63) and 4-byte (n>=63)
        for n, d, seed in [(4, 3, 1), (30, 3, 2), (63, 2, 3), (64, 3, 4)]:
            g = generate_random_regular(n, d, seed)
            back = read_graph6(write_graph6(g))
            assert back.n == g.n
            assert np.array_equal(back.edges, g.edges)

    def test_optional_prefix(self):
        g = read_graph6(">>graph6<<Dhc")
        assert g.n == 5

    def test_bad_bytes(self):
        with pytest.raises(InputFormatError):
            read_graph6("D\x19c")
        with pytest.raises(InputFormatError):
            read_graph6("Dhcc")
        # a non-ASCII character must not pass as "?", a valid graph6 byte
        with pytest.raises(InputFormatError, match="outside printable range"):
            read_graph6("Dh\u00e9")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("", "empty graph6 line"),
            (">>graph6<<", "empty graph6 line"),
            ("~", "truncated graph6 size field"),
            ("A@", "nonzero padding bits in graph6 body"),
        ],
    )
    def test_refusals(self, line, message):
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            read_graph6(line)

    def test_eight_byte_size_field(self):
        # n = 258048 = 63 * 64**2 is the least n that needs "~~" and six
        # size bytes; the body check comes before any bit is unpacked
        n = 258048
        expect = -(-(n * (n - 1) // 2) // 6)
        with pytest.raises(InputFormatError, match=rf"^graph6 body has 2 groups, expected {expect}$"):
            read_graph6("~~???~??" + "??")

    def test_reference_agreement(self):
        nx = pytest.importorskip("networkx")
        for n, d, seed in [(10, 3, 7), (17, 4, 8), (64, 3, 9)]:
            g = generate_random_regular(n, d, seed)
            gnx = nx.Graph()
            gnx.add_nodes_from(range(g.n))
            gnx.add_edges_from(map(tuple, g.edges))
            ref = nx.to_graph6_bytes(gnx, header=False).decode().strip()
            assert write_graph6(g) == ref


class TestGeneration:
    def test_k4_is_forced(self):
        # only one 3-regular graph on 4 vertices exists
        g = generate_random_regular(4, 3, seed=123)
        assert np.array_equal(g.edges, k4().edges)

    def test_complete_graph_without_pairing(self, monkeypatch):
        # stub pairing almost never draws K_n at this size
        def no_pairing(*args):
            raise AssertionError("d = n - 1 must not pair stubs")

        monkeypatch.setattr(graphs, "_first_pairing", no_pairing)
        g = generate_random_regular(200, 199, seed=1)
        assert g.num_edges == 200 * 199 // 2
        assert np.all(g.degrees == 199)
        assert np.array_equal(g.edges, complete_edges(200))

    @pytest.mark.parametrize("n", [5, 60, 150])
    def test_complete_graph_is_the_pairing_graph(self, n):
        for seed in (0, 1):
            for attempt in range(200):
                rng = np.random.default_rng(derive_seed(seed, "pairing", attempt))
                want = pairing_reference._pairing_attempt(n, n - 1, rng)
                if want is not None:
                    break
            assert want is not None
            assert np.array_equal(generate_random_regular(n, n - 1, seed).edges, Graph(n, want).edges)

    def test_odd_product_rejected(self):
        with pytest.raises(ParameterError):
            generate_random_regular(3, 1, seed=0)

    def test_no_vertices_rejected(self):
        with pytest.raises(ParameterError, match=r"^need at least one vertex, got n=0$"):
            generate_random_regular(0, 0, seed=0)

    def test_vertex_count_beyond_32_bit_ids_rejected(self):
        with pytest.raises(ParameterError, match="32-bit id range"):
            generate_random_regular(2**31, 2, seed=0)

    def test_degrees_and_simplicity(self):
        g = generate_random_regular(100, 6, seed=1)
        assert np.all(g.degrees == 6)
        keys = g.edges[:, 0].astype(np.int64) * g.n + g.edges[:, 1]
        assert np.unique(keys).size == g.num_edges

    def test_deterministic(self):
        a = generate_random_regular(60, 5, seed=42)
        b = generate_random_regular(60, 5, seed=42)
        assert np.array_equal(a.edges, b.edges)
        c = generate_random_regular(60, 5, seed=43)
        assert not np.array_equal(a.edges, c.edges)

    def test_d_zero(self):
        g = generate_random_regular(5, 0, seed=1)
        assert g.num_edges == 0

    def test_attempt_budget_exhausts(self, monkeypatch):
        monkeypatch.setattr(graphs, "_MAX_ATTEMPTS", 0)
        with pytest.raises(RetryExhausted, match="no simple 4-regular graph on 6 vertices in 0 pairing attempts"):
            generate_random_regular(6, 4, seed=5)
        # like d = 0, d = n - 1 spends no pairing attempt
        assert generate_random_regular(6, 5, seed=5).num_edges == 15

    def test_dense_cases_succeed(self):
        for n, d in [(6, 5), (10, 9), (12, 10)]:
            g = generate_random_regular(n, d, seed=3)
            assert np.all(g.degrees == d)

    def test_pinned_graph_hash(self):
        # the shuffle sequence is the graph: a different digest means every
        # seed names a different graph than it used to
        g = generate_random_regular(2500, 620, 424242)
        digest = hashlib.sha256(g.edges.tobytes()).hexdigest()
        assert digest == "92afb7826d8cb0b5b3699b7d33b547405dead032f3afa052c697585a1ea5a32d"

    def test_numpy_shuffle_ignores_item_width(self):
        # the generator shuffles intp stubs, on numpy's faster path, and its
        # graphs are pinned to the permutations that int32 stubs got; a
        # second shuffle on the same generator starts from the 32-bit draw
        # that the first one left buffered
        for seed in range(4):
            narrow, wide = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (1, 2, 3, 17, 1000, 65537):
                for _ in range(2):
                    a, b = np.arange(size, dtype=np.int32), np.arange(size, dtype=np.intp)
                    narrow.shuffle(a)
                    wide.shuffle(b)
                    assert np.array_equal(a, b)
            assert narrow.bit_generator.state == wide.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 65535, 65536, 65537, 2**31 - 1])
    def test_pair_keys_at_the_width_boundary(self, n):
        # keys switch from uint32 to int64 above n = 65536; the largest
        # rows of either width must not wrap
        rows = [(n - 1, n - 2), (n - 2, n - 1), (0, n - 1), (n - 1, 0), (1, 0), (0, 1)]
        keys = graphs._pair_keys(np.array(rows, dtype=np.intp), n)
        assert keys.tolist() == [min(u, v) * n + max(u, v) for u, v in rows]

    @staticmethod
    def attempt_succeeds(n, d, seed, attempt):
        rng = np.random.default_rng(derive_seed(seed, "pairing", attempt))
        return pairing_reference._pairing_attempt(n, d, rng) is not None

    @staticmethod
    def failing_prefetch(monkeypatch):
        """Make the first shuffle of every attempt after attempt 0 raise
        MemoryError on the worker; returns the attempts asked for."""
        asked = []
        real = graphs._first_shuffle

        def first_shuffle(n, d, seed, attempt):
            asked.append(attempt)
            if attempt > 0:
                raise MemoryError("prefetch")
            return real(n, d, seed, attempt)

        monkeypatch.setattr(graphs, "_first_shuffle", first_shuffle)
        return asked

    def test_unneeded_prefetch_error_is_dropped(self, monkeypatch):
        assert self.attempt_succeeds(100, 6, 0, 0)
        want = generate_random_regular(100, 6, seed=0)
        asked = self.failing_prefetch(monkeypatch)
        got = generate_random_regular(100, 6, seed=0)
        assert sorted(asked) == [0, 1]
        assert np.array_equal(got.edges, want.edges)

    def test_needed_prefetch_error_is_raised(self, monkeypatch):
        assert not self.attempt_succeeds(100, 6, 3, 0)
        self.failing_prefetch(monkeypatch)
        with pytest.raises(MemoryError, match="prefetch"):
            generate_random_regular(100, 6, seed=3)

    def test_no_thread_outlives_the_call(self, monkeypatch):
        before = set(threading.enumerate())
        workers = set()
        real = graphs._first_shuffle

        def first_shuffle(*args):
            workers.add(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(graphs, "_first_shuffle", first_shuffle)
        assert [self.attempt_succeeds(60, 5, 3, k) for k in range(3)] == [False, False, True]
        generate_random_regular(60, 5, seed=3)
        assert workers - before, "no attempt was shuffled on a worker"
        assert threading.current_thread() not in workers, "an attempt was shuffled on the calling thread"
        assert set(threading.enumerate()) == before
        with mock.patch.object(graphs, "_MAX_ATTEMPTS", 3), pytest.raises(RetryExhausted):
            generate_random_regular(12, 10, seed=2)
        assert set(threading.enumerate()) == before
        self.failing_prefetch(monkeypatch)
        with pytest.raises(MemoryError):
            generate_random_regular(60, 5, seed=3)
        assert set(threading.enumerate()) == before

    @settings(max_examples=200, deadline=None)
    @given(pairing_cases(), st.integers(0, 2**32), st.sampled_from([1, 2, 3, 5, 200]))
    # attempts stuck with more than one pair left, which die at the round
    # cap: attempt 2 of G(6, 3) at seed 0 (4 stubs), and attempts 0-2 of
    # G(38, 35) at seed 2 (8, 8 and 12 stubs)
    @example((6, 3), 0, 200)
    @example((38, 35), 2, 200)
    @example((6, 3), 0, 3)
    def test_pairing_matches_reference(self, case, seed, max_rounds):
        n, d = case
        for attempt in range(3):
            with mock.patch.object(graphs, "_MAX_ROUNDS", max_rounds):
                got = graphs._pairing_attempt(n, *graphs._first_shuffle(n, d, seed, attempt))
            rng = np.random.default_rng(derive_seed(seed, "pairing", attempt))
            want = pairing_reference._pairing_attempt(n, d, rng, max_rounds)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.dtype == want.dtype
                assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(pairing_cases(), st.integers(0, 2**32), st.integers(1, 3))
    def test_generator_matches_reference(self, case, seed, max_attempts):
        n, d = case
        want = None
        for attempt in range(max_attempts):
            rng = np.random.default_rng(derive_seed(seed, "pairing", attempt))
            want = pairing_reference._pairing_attempt(n, d, rng)
            if want is not None:
                break
        if want is None and d == n - 1:
            # the complete graph comes without pairing, even where every attempt fails
            want = complete_edges(n)
        with mock.patch.object(graphs, "_MAX_ATTEMPTS", max_attempts):
            if want is None:
                with pytest.raises(RetryExhausted):
                    generate_random_regular(n, d, seed)
            else:
                got = generate_random_regular(n, d, seed)
                assert np.array_equal(got.edges, Graph(n, want).edges)


class TestInducedSubgraph:
    def test_clique_hereditary(self):
        sub, imap = induced_subgraph(k4(), np.array([0, 2, 3]))
        assert sub.n == 3 and sub.num_edges == 3
        assert imap.new_to_old.tolist() == [0, 2, 3]

    def test_two_adjacent_cycle_vertices(self):
        sub, _ = induced_subgraph(cycle(5), np.array([1, 2]))
        assert sub.num_edges == 1

    def test_identity(self):
        g = generate_random_regular(20, 3, seed=6)
        sub, imap = induced_subgraph(g, np.arange(20))
        assert np.array_equal(sub.edges, g.edges)
        assert np.array_equal(imap.edge_parent, np.arange(g.num_edges))

    def test_edge_parent_maps_back(self):
        g = generate_random_regular(30, 4, seed=8)
        keep = np.arange(0, 30, 2)
        sub, imap = induced_subgraph(g, keep)
        for sub_eid in range(sub.num_edges):
            u, v = sub.edges[sub_eid]
            pu, pv = imap.new_to_old[u], imap.new_to_old[v]
            assert set(g.edges[imap.edge_parent[sub_eid]]) == {pu, pv}

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            induced_subgraph(cycle(4), np.array([0, 7]))

    def test_fractional_ids_refused(self):
        # cast to int64 they were truncated to {0, 1, 2}
        with pytest.raises(ParameterError, match="integer"):
            induced_subgraph(cycle(4), np.array([0.9, 1.7, 2.2]))

    def test_boolean_mask_refused(self):
        # cast to int64 this mask was read as the vertex set {0, 1}
        with pytest.raises(ParameterError, match="integer"):
            induced_subgraph(cycle(4), np.array([True, False, True, True]))


class TestComponentOrdering:
    def test_partition_into_components(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        comps = components_with_order(g)
        assert sorted(len(order) for order in comps) == [2, 2, 3]
        seen = np.concatenate(comps)
        assert sorted(seen.tolist()) == list(range(7))

    def test_reversed_bfs_properties(self):
        g = generate_random_regular(40, 3, seed=11)
        for order in components_with_order(g):
            # root (min id) comes last; every earlier vertex has a
            # neighbor later in the order, which the pass needs to keep
            # a free edge for it
            assert order[-1] == order.min()
            for i in range(len(order) - 1):
                assert np.isin(g.neighbors(int(order[i])), order[i + 1 :]).any()

    def test_last_two_adjacent(self):
        # the second-to-last vertex is a BFS child of the root
        g = generate_random_regular(30, 4, seed=12)
        for order in components_with_order(g):
            if len(order) >= 2:
                edge_id(g, int(order[-1]), int(order[-2]))

    def test_deterministic_and_sorted_roots(self):
        g = Graph(6, [(4, 5), (0, 1), (2, 3)])
        roots = [int(order[-1]) for order in components_with_order(g)]
        assert roots == [0, 2, 4]

    def test_isolated_vertex_component(self):
        g = Graph(3, [(1, 2)])
        assert [len(order) for order in components_with_order(g)] == [1, 2]

    def test_within_leaves_the_mask_alone(self):
        g = cycle(6)
        within = np.array([True, True, False, True, True, True])
        comps = components_with_order(g, within)
        assert [order.tolist() for order in comps] == [[3, 4, 5, 1, 0]]
        assert within.tolist() == [True, True, False, True, True, True]

    @pytest.mark.parametrize(
        "within",
        [
            np.array([1, 1, 0, 1]),  # an integer mask returned no components
            np.array([True, True]),  # too short a mask raised IndexError
        ],
        ids=["integer", "short"],
    )
    def test_within_must_be_a_boolean_mask_of_length_n(self, within):
        with pytest.raises(ParameterError, match="boolean mask of length 4"):
            components_with_order(Graph(4, [(0, 1), (1, 2), (2, 3)]), within)

    def test_within_as_a_list(self):
        # a list raised TypeError; it is read as the array it spells
        comps = components_with_order(Graph(4, [(0, 1), (1, 2), (2, 3)]), [True, True, False, True])
        assert [order.tolist() for order in comps] == [[1, 0], [3]]


def assert_matches_reference(g: Graph, n: int, edges: list[tuple[int, int]]) -> None:
    """Compare every array of ``g`` with a graph on ``n`` vertices built
    one edge at a time in pure Python; ``edges`` may be in any order and
    orientation."""
    canon = sorted((min(u, v), max(u, v)) for u, v in edges)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(canon):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    rows = [sorted(r) for r in adj]
    assert g.n == n and g.num_edges == len(canon)
    assert g.edges.tolist() == [list(e) for e in canon]
    assert g.indices.tolist() == [u for r in rows for u, _ in r]
    assert g.edge_ids.tolist() == [e for r in rows for _, e in r]
    assert g.indptr.tolist() == list(accumulate((len(r) for r in rows), initial=0))
    assert g.degrees.tolist() == [len(r) for r in rows]
    dtypes = {"edges": np.int32, "indices": np.int32, "edge_ids": np.int32, "indptr": np.int64, "degrees": np.int32}
    for name, dtype in dtypes.items():
        assert getattr(g, name).dtype == dtype, name


@st.composite
def simple_graphs(draw, max_n: int = 14) -> tuple[int, list[tuple[int, int]]]:
    """A random simple graph on up to ``max_n`` vertices, isolated ones
    included, as edge rows in random order and orientation."""
    n = draw(st.integers(0, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def constructor_inputs(draw) -> tuple[int, np.ndarray]:
    """``(n, rows)`` for ``Graph``: rows of any integer dtype, in canonical
    order in half the draws, else in any order and orientation with a
    duplicate, a self-loop or both added now and then. ``n`` is small or
    at the edges of 16 bits, and the ids drawn are few and fit the dtype,
    so rows repeat; an id may fall outside 0..n-1."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    n = draw(st.one_of(st.integers(0, 14), st.sampled_from([0, 1, 65535, 65536, 65537])))
    info = np.iinfo(dtype)
    top = min(n - 1, int(info.max))
    inside = [v for v in {0, 1, 2, top - 2, top - 1, top} if 0 <= v <= top]
    outside = [v for v in (-1, n) if info.min <= v <= info.max]
    pool = inside + outside if draw(st.integers(0, 9)) == 0 else inside
    ids = st.sampled_from(pool or [0])
    rows = draw(st.lists(st.tuples(ids, ids), max_size=12 if pool else 0))
    if draw(st.booleans()):
        rows = sorted({(min(u, v), max(u, v)) for u, v in rows if u != v})
    else:
        if rows and draw(st.booleans()):
            u, v = draw(st.sampled_from(rows))
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([(u, v), (v, u)])))
        if inside and draw(st.booleans()):
            v = draw(st.sampled_from(inside))
            rows.insert(draw(st.integers(0, len(rows))), (v, v))
    return n, np.array(rows, dtype=dtype).reshape(-1, 2)


def dtype_marks(dtype) -> list[int]:
    """The values of ``dtype`` among its extremes, 0, the powers of ten
    and their neighbours, both signs, and the edges of 32 bits."""
    info = np.iinfo(dtype)
    marks = [0, int(info.min), int(info.max), 2**32 - 1, 2**32]
    marks += [sign * (10**k + step) for k in range(20) for step in (-1, 0, 1) for sign in (1, -1)]
    return [x for x in sorted(set(marks)) if info.min <= x <= info.max]


@st.composite
def dtype_values(draw, dtype) -> list[int]:
    """Values of ``dtype``, its marks and any other; now and then they
    are all negative or all 0."""
    info = np.iinfo(dtype)
    values = st.one_of(st.sampled_from(dtype_marks(dtype)), st.integers(int(info.min), int(info.max)))
    kind = draw(st.sampled_from(["mixed", "mixed", "negative", "zero"]))
    if kind == "negative" and info.min < 0:
        values = values.filter(lambda x: x < 0)
    elif kind == "zero":
        values = st.just(0)
    return draw(st.lists(values, min_size=1, max_size=24))


def assert_rows_match_loop(values: np.ndarray, folder) -> None:
    """Both writers, with ``values`` as weights, and ``format_rows`` on
    three columns of them, give what the f-string loops give."""
    g = Graph(len(values) + 1, [(0, v) for v in range(1, len(values) + 1)])
    assert_writers_match_reference(g, values, folder)
    columns = [values, values[::-1].copy(), np.roll(values, 1)]
    want = "".join(f"{a},{b},{c}\n" for a, b, c in zip(*(c.tolist() for c in columns)))
    assert_same_lines("".join(graphs.format_rows(",", *columns)), want)


@st.composite
def graphs_with_subsets(draw) -> tuple[Graph, list[int]]:
    """A random simple graph on up to 14 vertices and a vertex list that
    may repeat ids and come in any order."""
    n = draw(st.integers(0, 14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    verts = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    return Graph(n, edges), verts


@st.composite
def row_texts(draw, values: tuple[int, ...], seps: list[str]) -> str:
    """``values`` joined by ``seps[0]`` as the writers write them, three
    times in four; else each one padded, signed, underscored or with
    leading zeros as int() still reads it, joined by any of ``seps``."""
    if draw(st.integers(0, 3)):
        return seps[0].join(map(str, values))
    pads = st.sampled_from(["", "", " ", "\t"])

    def spelled(value: int) -> str:
        sign, digits = "-" * (value < 0), str(abs(value))
        underscored = f"{digits[0]}_{digits[1:]}" if digits[1:] else digits
        forms = [digits, f"+{digits}", f"0{digits}", "0" * 17 + digits, underscored]
        return draw(pads) + sign + draw(st.sampled_from(forms)) + draw(pads)

    return draw(st.sampled_from(seps)).join(map(spelled, values))


def ids(n: int) -> st.SearchStrategy[int]:
    """Vertex ids, mostly in 0..n-1, else just past it, negative, or of
    18 to 21 digits, in and beyond the int64 range."""
    return st.one_of(
        st.integers(0, max(n - 1, 0)),
        st.sampled_from([n, n + 1, -1, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19 - 1, 10**20]),
    )


@st.composite
def text_files(draw, lines: list[str]) -> bytes:
    """``lines`` ended by \\n, \\r\\n or \\r at random, the last one maybe
    by nothing, in Latin-1 so that a line may carry a non-ASCII byte."""
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("latin-1")


@st.composite
def edge_list_files(draw) -> bytes:
    """Edge lists mixing the writer's plain rows with every other line
    the reader meets: spaced, tabbed and signed ids, headers, comments,
    blank lines, faulty rows, and ids out of range or beyond int64."""
    n, rows = draw(simple_graphs(max_n=8))
    seps = [" ", "  ", "\t", " \t"]
    lines = [draw(row_texts(row, seps)) for row in rows]
    others = st.sampled_from(["", "  ", "# a comment", f"# {n} 9", "#4 2", "x y", "1 2 3", "7", "0 1\xe9"])
    for _ in range(draw(st.integers(0, 4))):
        line = draw(st.one_of(others, st.tuples(ids(n), ids(n)).flatmap(lambda row: row_texts(row, seps))))
        lines.insert(draw(st.integers(0, len(lines))), line)
    if draw(st.booleans()):
        lines.insert(0, f"# {draw(st.integers(0, n + 1))} {len(rows)}")
    return draw(text_files(lines))


def read_outcome(read) -> object:
    """A reader's result in comparable form, or its fault's message."""
    try:
        result = read()
    except InputFormatError as exc:
        return f"fault: {exc}"
    if isinstance(result, Graph):
        return result.n, result.edges.tolist()
    return result.dtype, result.tolist()


def assert_reads_like_reference(tmp_path, data: bytes, block: int, read, reference) -> None:
    """``read(path)``, fed blocks of ``block`` bytes, gives what
    ``reference(path)`` gives. The reference cannot decode a non-ASCII byte;
    there the reader must report the fault that the reference reports
    for the lines before it, if that names a line, and else the byte."""
    path, before = tmp_path / "file", tmp_path / "before"
    path.write_bytes(data)
    with mock.patch.object(graphs, "_READ_BLOCK", block):
        got = read_outcome(lambda: read(path))
    offset = 0
    for lineno, line in enumerate(io.StringIO(data.decode("latin-1"), newline=""), start=1):
        if not line.isascii():
            before.write_bytes(data[:offset])
            want = read_outcome(lambda: reference(before))
            if not re.match(r"fault: line \d+: ", str(want)):
                want = f"fault: line {lineno}: non-ASCII byte"
            assert got == want
            return
        offset += len(line)
    assert got == read_outcome(lambda: reference(path))


def reference_components(g: Graph) -> list[list[int]]:
    """FIFO BFS one neighbor at a time: the reversed order per component."""
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        bfs, head = [root], 0
        while head < len(bfs):
            v = bfs[head]
            head += 1
            for u in g.neighbors(v).tolist():
                if not seen[u]:
                    seen[u] = True
                    bfs.append(u)
        out.append(bfs[::-1])
    return out


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_subsets())
    def test_induced_subgraph_equals_rebuild(self, case):
        g, verts = case
        kept = sorted(set(verts))
        new_id = {v: i for i, v in enumerate(kept)}
        parent_eids = [e for e, (u, v) in enumerate(g.edges.tolist()) if u in new_id and v in new_id]
        sub_edges = [(new_id[int(u)], new_id[int(v)]) for u, v in g.edges[parent_eids]]

        sub, imap = induced_subgraph(g, np.array(verts, dtype=np.int64))
        assert_matches_reference(sub, len(kept), sub_edges)
        assert imap.new_to_old.tolist() == kept
        assert imap.old_to_new.tolist() == [new_id.get(v, -1) for v in range(g.n)]
        assert imap.edge_parent.tolist() == parent_eids
        us, vs = np.array(sub_edges, dtype=np.int64).reshape(-1, 2).T
        assert graphs.edge_lookup(sub)(us, vs).tolist() == list(range(len(sub_edges)))

    @settings(max_examples=200, deadline=None)
    @given(simple_graphs(), st.data())
    def test_graph_matches_reference(self, case, data):
        n, rows = case
        g = Graph(n, rows)
        assert_matches_reference(g, n, rows)
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        keys = g.edges[:, 0].astype(np.int64) * n + g.edges[:, 1]
        assert np.all(keys[1:] > keys[:-1])
        for v in range(n):
            for u, e in zip(g.neighbors(v).tolist(), g.incident_edges(v).tolist()):
                assert sorted(g.edges[e].tolist()) == sorted([u, v])

        eid_of = {}
        for eid, (u, v) in enumerate(g.edges.tolist()):
            eid_of[u, v] = eid_of[v, u] = eid
        pairs = [(a, b) for a in range(-1, n + 1) for b in range(-1, n + 1)]
        want = [eid_of.get(p, -1) for p in pairs]
        us, vs = np.array(pairs).T
        assert graphs.edge_lookup(g)(us, vs).tolist() == want

        if n:
            v = data.draw(st.integers(0, n - 1))
            with pytest.raises(ParameterError, match="self-loops"):
                Graph(n, rows + [(v, v)])
        if rows:
            u, v = data.draw(st.sampled_from(rows))
            with pytest.raises(ParameterError, match="duplicate"):
                Graph(n, rows + [data.draw(st.sampled_from([(u, v), (v, u)]))])

    @settings(max_examples=300, deadline=None)
    @given(constructor_inputs())
    @example((3, np.array([(0, 1), (1, 0), (2, 2)], dtype=np.uint64)))
    @example((65537, np.array([(65536, 0), (3, 65536), (0, 65536), (5, 5)], dtype=np.int64)))
    def test_constructor_matches_verbatim_reference(self, case):
        # every array, its dtype and shape, and every refusal, which for a
        # row list with a duplicate and a self-loop is the self-loop's
        n, rows = case

        def outcome(cls) -> object:
            try:
                g = cls(n, rows)
            except ParameterError as exc:
                return f"refused: {exc}"
            arrays = [getattr(g, name) for name in ("edges", "indices", "edge_ids", "indptr", "degrees")]
            return g.n, g.num_edges, [(a.dtype, a.shape, a.tolist()) for a in arrays]

        assert outcome(Graph) == outcome(graph_reference.Graph)

    @settings(max_examples=100, deadline=None)
    @given(simple_graphs())
    def test_edge_list_round_trip(self, tmp_path_factory, case):
        n, rows = case
        g = Graph(n, rows)
        path = tmp_path_factory.mktemp("el") / "g.txt"
        write_edge_list(g, path)
        assert_matches_reference(read_edge_list(path), n, rows)

    @settings(max_examples=300, deadline=None)
    @given(edge_list_files(), st.integers(1, 64))
    def test_edge_list_reader_matches_line_loop(self, tmp_path_factory, data, block):
        tmp = tmp_path_factory.mktemp("el")
        assert_reads_like_reference(tmp, data, block, read_edge_list, reader_reference.read_edge_list)

    @settings(max_examples=100, deadline=None)
    @given(simple_graphs(), st.integers(1, 8), st.data())
    def test_writers_match_row_loop(self, tmp_path_factory, case, block, data):
        n, rows = case
        g = Graph(n, rows)
        weights = np.array(
            data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=g.num_edges, max_size=g.num_edges)),
            dtype=np.int64,
        )
        with mock.patch.object(graphs, "_ROW_BLOCK", block):
            assert_writers_match_reference(g, weights, tmp_path_factory.mktemp("wr"))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(INT_DTYPES).flatmap(lambda dtype: st.tuples(st.just(dtype), dtype_values(dtype))),
        st.integers(1, 8),
    )
    def test_every_integer_dtype_matches_row_loop(self, tmp_path_factory, case, block):
        dtype, values = case
        with mock.patch.object(graphs, "_ROW_BLOCK", block):
            assert_rows_match_loop(np.array(values, dtype=dtype), tmp_path_factory.mktemp("wr"))

    @settings(max_examples=100, deadline=None)
    @given(simple_graphs(), st.integers(1, 8), st.data())
    def test_written_rows_take_the_bulk_path(self, tmp_path_factory, case, block, data):
        # every row the writers emit is plain in the readers' sense, so a
        # round trip parses them all in bulk and none line by line
        n, rows = case
        g = Graph(n, rows)
        weights = np.array(
            data.draw(st.lists(st.integers(-(10**18) + 1, 10**18 - 1), min_size=g.num_edges, max_size=g.num_edges)),
            dtype=np.int64,
        )
        folder = tmp_path_factory.mktemp("wr")
        with mock.patch.object(graphs, "_ROW_BLOCK", block):
            write_edge_list(g, folder / "g.txt")
            state = SimpleNamespace(stage="final", weights=weights)
            write_weights_csv(g, state, str(folder / "w.csv"), n=g.n, d=3, b=0.2, eps=0.05, seed=7)
        for name, sep, fields, signed, headers in (("g.txt", b" ", 2, False, 1), ("w.csv", b",", 3, True, 2)):
            text = (folder / name).read_bytes()
            _, plain = graphs._plain_lines(np.frombuffer(text, dtype=np.uint8), sep[0], fields, signed)
            assert plain.tolist() == [False] * headers + [True] * g.num_edges
            lines = list(graphs._read_lines(folder / name, sep, fields, signed))
            assert [line for _, line in lines if isinstance(line, str)] == text.decode("ascii").splitlines()[:headers]
        back = read_edge_list(folder / "g.txt")
        assert np.array_equal(back.edges, g.edges)
        assert np.array_equal(read_weights_csv(str(folder / "w.csv"), back), weights)

    @settings(max_examples=100, deadline=None)
    @given(simple_graphs(max_n=70))
    def test_graph6_round_trip(self, case):
        n, rows = case
        assert_matches_reference(read_graph6(write_graph6(Graph(n, rows))), n, rows)

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_subsets())
    def test_components_match_reference_bfs(self, case):
        g, _ = case
        got = [order.tolist() for order in components_with_order(g)]
        assert got == reference_components(g)

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_subsets())
    def test_components_within_match_induced_subgraph(self, case):
        g, verts = case
        within = np.zeros(g.n, dtype=bool)
        within[verts] = True
        sub, imap = induced_subgraph(g, np.array(verts, dtype=np.int64))
        want = [imap.new_to_old[order].tolist() for order in components_with_order(sub)]
        assert [order.tolist() for order in components_with_order(g, within)] == want
