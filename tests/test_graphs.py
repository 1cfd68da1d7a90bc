from __future__ import annotations

import hashlib
import io
import math
import re
from itertools import accumulate
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from tests import pairing_reference, reader_reference


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def k4() -> Graph:
    return Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


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


def assert_writers_match_reference(g: Graph, weights: np.ndarray, folder) -> None:
    write_edge_list(g, folder / "g.txt")
    assert (folder / "g.txt").read_text() == reference_edge_list(g)
    state = SimpleNamespace(stage="final", weights=weights)
    write_weights_csv(g, state, str(folder / "w.csv"), n=g.n, d=3, b=0.2, eps=0.05, seed=7)
    header = f"# stage=final n={g.n} d=3 b=0.2 eps=0.05 seed=7\n"
    assert (folder / "w.csv").read_text() == header + reference_weight_rows(g, weights)


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

    def test_edge_between(self):
        g = cycle(5)
        eid = g.edge_between(0, 4)
        assert eid is not None and set(g.edges[eid]) == {0, 4}
        assert g.edge_between(0, 2) is None

    def test_edge_between_out_of_range_ids(self):
        # -1 * 5 + 6 is the key of edge (0, 1), which ids outside 0..n-1
        # used to alias
        g = Graph(5, [(0, 1)])
        assert g.edge_between(-1, 6) is None
        assert g.edges_between(np.array([-1, 0]), np.array([6, 1])).tolist() == [-1, 0]

    def test_rejects_fractional_endpoints(self):
        with pytest.raises(ParameterError, match="integers"):
            Graph(3, np.array([[0.9, 2.2]]))

    def test_regular_degree(self):
        assert k4().regular_degree() == 3
        with pytest.raises(ParameterError):
            Graph(3, [(0, 1)]).regular_degree()


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

    def test_odd_product_rejected(self):
        with pytest.raises(ParameterError):
            generate_random_regular(3, 1, seed=0)

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

    def test_attempt_budget_exhausts(self):
        with pytest.raises(RetryExhausted) as exc:
            generate_random_regular(6, 5, seed=5, max_attempts=0)
        assert exc.value.attempts == 0

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

    @settings(max_examples=200, deadline=None)
    @given(pairing_cases(), st.integers(0, 2**32), st.sampled_from([1, 2, 3, 5, 200]))
    def test_pairing_matches_reference(self, case, seed, max_rounds):
        n, d = case
        for attempt in range(3):
            rng_seed = derive_seed(seed, "pairing", attempt)
            got = graphs._pairing_attempt(n, d, np.random.default_rng(rng_seed), max_rounds)
            want = pairing_reference._pairing_attempt(n, d, np.random.default_rng(rng_seed), max_rounds)
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
        if want is None:
            with pytest.raises(RetryExhausted):
                generate_random_regular(n, d, seed, max_attempts=max_attempts)
        else:
            got = generate_random_regular(n, d, seed, max_attempts=max_attempts)
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


class TestComponentOrdering:
    def test_partition_into_components(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        comps = components_with_order(g)
        assert sorted(len(c.order) for c in comps) == [2, 2, 3]
        seen = np.concatenate([c.order for c in comps])
        assert sorted(seen.tolist()) == list(range(7))

    def test_reversed_bfs_properties(self):
        g = generate_random_regular(40, 3, seed=11)
        for comp in components_with_order(g):
            order = comp.order
            pos = {int(v): i for i, v in enumerate(order)}
            # root (min id) comes last; every earlier vertex has a
            # forward neighbor, namely its BFS parent
            assert order[-1] == order.min()
            for i in range(len(order) - 1):
                parent = comp.forward[i]
                assert parent >= 0
                assert pos[int(parent)] > i
                assert parent in g.neighbors(int(order[i]))
            assert comp.forward[len(order) - 1] == -1

    def test_last_two_adjacent(self):
        # the second-to-last vertex is a BFS child of the root
        g = generate_random_regular(30, 4, seed=12)
        for comp in components_with_order(g):
            if len(comp.order) >= 2:
                assert g.edge_between(int(comp.order[-1]), int(comp.order[-2])) is not None

    def test_deterministic_and_sorted_roots(self):
        g = Graph(6, [(4, 5), (0, 1), (2, 3)])
        comps = components_with_order(g)
        roots = [int(c.order[-1]) for c in comps]
        assert roots == [0, 2, 4]

    def test_isolated_vertex_component(self):
        g = Graph(3, [(1, 2)])
        comps = components_with_order(g)
        assert [len(c.order) for c in comps] == [1, 2]


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
    assert "".join(graphs.format_rows(",", *columns)) == want


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


def reference_components(g: Graph) -> list[tuple[list[int], list[int]]]:
    """FIFO BFS one neighbor at a time: (order, forward) per component."""
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        bfs, parent, head = [root], {root: -1}, 0
        while head < len(bfs):
            v = bfs[head]
            head += 1
            for u in g.neighbors(v).tolist():
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    bfs.append(u)
        out.append((bfs[::-1], [parent[v] for v in bfs[::-1]]))
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
        for eid, (u, v) in enumerate(sub_edges):
            assert sub.edge_between(u, v) == eid

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
        assert [g.edge_between(a, b) for a, b in pairs] == [None if w < 0 else w for w in want]
        us, vs = np.array(pairs).T
        assert g.edges_between(us, vs).tolist() == want

        if n:
            v = data.draw(st.integers(0, n - 1))
            with pytest.raises(ParameterError, match="self-loops"):
                Graph(n, rows + [(v, v)])
        if rows:
            u, v = data.draw(st.sampled_from(rows))
            with pytest.raises(ParameterError, match="duplicate"):
                Graph(n, rows + [data.draw(st.sampled_from([(u, v), (v, u)]))])

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
        got = [(c.order.tolist(), c.forward.tolist()) for c in components_with_order(g)]
        assert got == reference_components(g)
