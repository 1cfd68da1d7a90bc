"""Graph container, file codecs, and random regular graph generation.

The container is deliberately minimal: vertices are 0..n-1, edges live in
a canonical array (each row (min, max), rows in lexicographic order, row
index = edge id), and adjacency queries go through CSR arrays built once
at construction. All pipeline stages index weights by edge id, so the
canonical ordering is part of the contract, not an implementation detail.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import InputFormatError, ParameterError, RetryExhausted
from .seeds import derive_seed

_HEADER_RE = re.compile(r"#\s*(\d+)\s+(\d+)\s*$")
# rows per string written by format_rows: 4096 wrote 30% slower, and 65536
# no faster, with four times the transient memory
_ROW_BLOCK = 16384
# bytes per read in _read_lines; 1 MB blocks read no faster, but left 12 MB
# more peak RSS in a write-and-verify round trip at n=2500, in freed
# temporaries that the allocator keeps
_READ_BLOCK = 1 << 16
_MAX_DIGITS = 18  # the longest field _read_lines parses, so it fits int64


class Graph:
    """Undirected simple graph with canonical edge ids and CSR adjacency."""

    def __init__(self, n: int, edges: object = None) -> None:
        if n < 0:
            raise ParameterError(f"vertex count must be nonnegative, got {n}")
        if n > np.iinfo(np.int32).max:
            raise ParameterError(f"vertex count {n} exceeds the 32-bit id range")
        self.n = int(n)
        raw = np.asarray(edges if edges is not None else np.empty((0, 2), dtype=np.int32))
        if raw.size == 0:
            raw = np.empty((0, 2), dtype=np.int32)
        elif not np.issubdtype(raw.dtype, np.integer):
            raise ParameterError(f"edge endpoints must be integers, got dtype {raw.dtype}")
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise ParameterError("edges must be a sequence of (u, v) pairs")
        if raw.size and (raw.min() < 0 or raw.max() >= n):
            raise ParameterError("edge endpoint outside 0..n-1")
        # large instances are memory-bound by this constructor, so the
        # working arrays stay int32 and every transient is dropped before
        # the next one is made
        lo = np.minimum(raw[:, 0], raw[:, 1]).astype(np.int32, copy=False)
        hi = np.maximum(raw[:, 0], raw[:, 1]).astype(np.int32, copy=False)
        del raw
        if np.any(lo == hi):
            raise ParameterError("self-loops are not allowed")
        # timsort is adaptive: input already in canonical order, as the
        # generator, edge-list files and induced subgraphs give it, costs
        # about one pass
        order = np.argsort(lo.astype(np.int64) * n + hi, kind="stable")
        lo, hi = lo[order], hi[order]
        del order
        if np.any((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])):
            raise ParameterError("duplicate edges are not allowed")
        self.num_edges = int(lo.size)

        # entry j of [hi, lo] is edge j mod num_edges seen from one end; a
        # stable sort by that end lists each row's smaller neighbours and
        # then its larger ones, both ascending by canonical order
        src = np.concatenate([hi, lo])
        counts = np.bincount(src, minlength=n)
        csr_order = np.argsort(src, kind="stable")
        del src
        self.indices: np.ndarray = np.concatenate([lo, hi])[csr_order]
        csr_order[csr_order >= self.num_edges] -= self.num_edges
        self.edge_ids: np.ndarray = csr_order.astype(np.int32)
        del csr_order
        self.edges: np.ndarray = np.stack([lo, hi], axis=1)
        self.indptr: np.ndarray = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.degrees: np.ndarray = counts.astype(np.int32)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of v in ascending order (view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def incident_edges(self, v: int) -> np.ndarray:
        """Edge ids incident to v, aligned with neighbors(v)."""
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]

    def edge_between(self, u: int, v: int) -> int | None:
        """Edge id joining u and v, or None if they are not adjacent
        (also when u == v or either id lies outside 0..n-1)."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return None
        start, stop = int(self.indptr[u]), int(self.indptr[u + 1])
        pos = start + int(np.searchsorted(self.indices[start:stop], v))
        if pos < stop and self.indices[pos] == v:
            return int(self.edge_ids[pos])
        return None

    def edges_between(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Edge ids joining us[i] and vs[i], -1 where there is no edge;
        the int64 edge keys live only for the call."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        # edge keys are positive, so -1 marks a pair that is no edge, and
        # the sentinel above them all gives every query a valid position
        query = np.where((lo >= 0) & (hi < self.n) & (lo != hi), lo * self.n + hi, -1)
        keys = np.append(self.edges[:, 0].astype(np.int64) * self.n + self.edges[:, 1], np.iinfo(np.int64).max)
        pos = np.searchsorted(keys, query)
        return np.where(keys[pos] == query, pos, -1)

    def regular_degree(self) -> int:
        """The common degree if the graph is regular, else raise."""
        if self.n == 0:
            raise ParameterError("empty graph has no degree")
        d = int(self.degrees[0])
        if not np.all(self.degrees == d):
            raise ParameterError("graph is not regular")
        return d

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def edge_weights(g: Graph, weights: np.ndarray) -> np.ndarray:
    """``weights`` as an array, if it holds one integer per edge of ``g``;
    else raise InputFormatError."""
    weights = np.asarray(weights)
    if weights.shape != (g.num_edges,):
        raise InputFormatError(
            f"weight vector covers {weights.shape} entries, graph has {g.num_edges} edges"
        )
    if not np.issubdtype(weights.dtype, np.integer):
        raise InputFormatError(f"weights must be integers, got dtype {weights.dtype}")
    return weights


def weighted_degrees(g: Graph, weights: np.ndarray) -> np.ndarray:
    """Per-vertex sum of incident edge weights, exact in int64.

    Non-integer weights are refused rather than truncated, and sums
    that could leave the int64 range rather than wrapped, so every
    answer returned is the true integer sum.
    """
    weights = edge_weights(g, weights)
    sigma = np.zeros(g.n, dtype=np.int64)
    if g.num_edges:
        # bounded before the cast, which would wrap unsigned values above 2^63-1
        peak = max(-int(weights.min()), int(weights.max())) * int(g.degrees.max())
        if peak > np.iinfo(np.int64).max:
            raise InputFormatError("weighted degrees may exceed the 64-bit integer range")
        w = weights.astype(np.int64, copy=False)
        np.add.at(sigma, g.edges[:, 0], w)
        np.add.at(sigma, g.edges[:, 1], w)
    return sigma


# ---------------------------------------------------------------------------
# file formats


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a plain edge list; the leading comment records the vertex
    count so graphs with isolated vertices survive a round trip."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {graph.n} {graph.num_edges}\n")
        fh.writelines(format_rows(" ", graph.edges[:, 0], graph.edges[:, 1]))


def format_rows(sep: str, *columns: np.ndarray) -> Iterator[str]:
    """The rows of the integer columns in decimal, the fields joined by
    ``sep`` and each row ended by ``\\n``, as one str per block of
    ``_ROW_BLOCK`` rows.

    A block is laid out as a uint8 matrix with one line per row. Each
    field is right-aligned in a span as wide as its column's longest
    value in the block, after a sign column if the block has a negative
    value there; the bytes left blank are 0, and one mask drops them.
    """
    ends = [ord(sep)] * (len(columns) - 1) + [ord("\n")]
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        fields = [_magnitudes(column[start : start + _ROW_BLOCK]) for column in columns]
        width = sum((neg is not None) + digits + 1 for _, neg, digits in fields)
        text = np.empty((fields[0][0].size, width), dtype=np.uint8)
        left = 0
        for (mag, neg, digits), end in zip(fields, ends):
            if neg is not None:
                text[:, left] = np.where(neg, ord("-"), 0)
                left += 1
            _put_digits(text[:, left : left + digits], mag)
            left += digits
            text[:, left] = end
            left += 1
        yield text[text != 0].tobytes().decode("ascii")


def _magnitudes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, int]:
    """``|values|`` as uint32 when the largest fits and else as uint64,
    which holds every int64 and uint64 magnitude; which values are
    negative, or None if none is; and the digits of the largest."""
    low, high = int(values.min()), int(values.max())
    top = max(high, -low)
    mag = values.astype(np.uint32 if top <= np.iinfo(np.uint32).max else np.uint64)
    neg = None
    if low < 0:
        # the cast wrapped each negative value modulo 2^32 or 2^64
        neg = values < 0
        np.negative(mag, out=mag, where=neg)
    return mag, neg, len(str(top))


def _put_digits(out: np.ndarray, mag: np.ndarray) -> None:
    """Write ``mag``, which is consumed, right-aligned in decimal ASCII
    into the columns of ``out``; the columns left of each value's
    leading digit get 0."""
    quot, low = np.empty_like(mag), np.empty_like(mag)
    last = out.shape[1] - 1
    for pos in range(last, -1, -1):
        np.floor_divide(mag, 10, out=quot)
        np.multiply(quot, 10, out=low)
        np.subtract(mag, low, out=low)
        digit = low.astype(np.uint8)
        if pos < last:
            # blank where nothing of the value is left, as the digit is 0 there
            digit += (mag != 0).view(np.uint8) * np.uint8(ord("0"))
        else:
            digit += ord("0")
        out[:, pos] = digit
        mag, quot = quot, mag


def read_edge_list(path: str | Path) -> Graph:
    n_header: int | None = None
    ends = array("q")  # u0, v0, u1, v1, ...
    huge = -1  # largest id beyond int64, which ``ends`` cannot hold
    for lineno, line in _read_lines(path, b" ", 2, signed=False):
        if isinstance(line, np.ndarray):
            ends.frombytes(line.tobytes())
            continue
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            match = _HEADER_RE.match(text)
            if match is not None and n_header is None and not ends and huge < 0:
                n_header = int(match.group(1))
            continue
        parts = text.split()
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected two integers, got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: expected two integers, got {text!r}") from None
        if u < 0 or v < 0:
            raise InputFormatError(f"line {lineno}: negative vertex id")
        try:
            ends.append(u)
            ends.append(v)
        except OverflowError:
            huge = max(huge, u, v)
            del ends[len(ends) // 2 * 2 :]  # a half-appended row
    edges = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    max_seen = max(huge, int(edges.max(initial=-1)))
    n = n_header if n_header is not None else max_seen + 1
    if max_seen >= n:
        raise InputFormatError(f"vertex id {max_seen} exceeds declared count {n}")
    try:
        # after an id beyond int64, n is beyond it too and Graph refuses n
        return Graph(n, edges)
    except ParameterError as exc:
        raise InputFormatError(str(exc)) from None


def _read_lines(
    path: str | Path, sep: bytes, fields: int, signed: bool
) -> Iterator[tuple[int, np.ndarray | str]]:
    """The lines of a text file in order, each item with its line number.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in text mode. A
    run of consecutive plain lines, ``fields`` fields of 1 to 18 digits
    joined by ``sep`` (the last one may start with ``-`` when ``signed``),
    comes parsed as one int64 array of shape (lines, fields), numbered by
    its first line; every other line comes as a str without its line end.
    A line with a non-ASCII byte raises InputFormatError when it is
    reached. Only one block of about ``_READ_BLOCK`` bytes is parsed at a
    time.
    """
    lineno = 1
    with open(path, "rb") as fh:
        for text in _line_blocks(fh):
            stops, plain = _plain_lines(np.frombuffer(text, dtype=np.uint8), sep[0], fields, signed)
            starts = np.concatenate([[0], stops[:-1] + 1])
            first = 0  # first line of the next plain run
            for other in [*np.flatnonzero(~plain).tolist(), stops.size]:
                if other > first:
                    run = text[starts[first] : stops[other - 1]].replace(sep, b" ")
                    yield lineno + first, np.fromstring(run, dtype=np.int64, sep=" ").reshape(-1, fields)
                if other < stops.size:
                    line = text[starts[other] : stops[other]]
                    if not line.isascii():
                        raise InputFormatError(f"line {lineno + other}: non-ASCII byte")
                    yield lineno + other, line.decode("ascii")
                first = other + 1
            lineno += stops.size


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The file's whole lines in blocks, each line ending in ``\\n``, to
    which ``\\r\\n`` and a lone ``\\r`` are turned, as text mode does."""
    tail: list[bytes] = []
    while block := fh.read(_READ_BLOCK):
        # cut after the last line end; a final \r may begin a \r\n
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield _to_newlines(b"".join([*tail, block[:cut]]))
            tail = []
        tail.append(block[cut:])
    last = _to_newlines(b"".join(tail))
    if last:
        yield last if last.endswith(b"\n") else last + b"\n"


def _to_newlines(text: bytes) -> bytes:
    return text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _plain_lines(data: np.ndarray, sep: int, fields: int, signed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the line ends in ``data``, the bytes of whole lines, and
    which of the lines are plain in the sense of ``_read_lines``.

    A line is told plain by its non-digit bytes alone: they must be
    ``sep`` fields - 1 times and then the line end, each preceded by 1 to
    18 digits; when ``signed``, a ``-`` right after the last ``sep`` may
    come before the line end too.
    """
    marks = np.flatnonzero((data - np.uint8(ord("0"))) > 9)  # bytes other than 0..9
    kinds = data[marks]
    digits = np.diff(marks, prepend=-1)
    digits -= 1  # digits just before each mark
    line_ends = np.flatnonzero(kinds == ord("\n"))  # the marks that end a line
    per_line = np.diff(line_ends, prepend=-1)
    field, end = (sep, 1, _MAX_DIGITS), (ord("\n"), 1, _MAX_DIGITS)
    layouts = [[field] * (fields - 1) + [end]]
    if signed:
        layouts.append([field] * (fields - 1) + [(ord("-"), 0, 0), end])
    plain = np.zeros(line_ends.size, dtype=bool)
    for layout in layouts:
        rows = np.flatnonzero(per_line == len(layout))
        last = line_ends[rows]
        ok = np.ones(rows.size, dtype=bool)
        for back, (kind, least, most) in enumerate(reversed(layout)):
            ok &= kinds[last - back] == kind
            ok &= (digits[last - back] >= least) & (digits[last - back] <= most)
        plain[rows[ok]] = True
    return marks[line_ends], plain


def write_graph6(graph: Graph) -> str:
    """Encode as one graph6 line (no trailing newline)."""
    n = graph.n
    if n > 68719476735:
        raise ParameterError("graph too large for graph6")
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        head = bytes([126, 126] + [63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0)])
    k = n * (n - 1) // 2
    bits = np.zeros(-(-k // 6) * 6, dtype=np.uint8)
    if graph.num_edges:
        u = graph.edges[:, 0].astype(np.int64)
        v = graph.edges[:, 1].astype(np.int64)
        # column-major upper triangle: bit for (u, v), u < v, at v(v-1)/2 + u
        bits[v * (v - 1) // 2 + u] = 1
    groups = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    return (head + bytes((groups + 63).astype(np.uint8).tolist())).decode("ascii")


def read_graph6(line: str) -> Graph:
    text = line.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    if not text:
        raise InputFormatError("empty graph6 line")
    # every byte that encodes a non-ASCII character lies above 126
    data = np.frombuffer(text.encode("utf-8", errors="surrogatepass"), dtype=np.uint8)
    if data.min() < 63 or data.max() > 126:
        raise InputFormatError("graph6 byte outside printable range 63..126")
    vals = data - 63
    head = vals[:8].tolist()
    if head[0] < 63:
        n, body = head[0], vals[1:]
    elif len(head) >= 4 and head[1] < 63:
        n, body = (head[1] << 12) | (head[2] << 6) | head[3], vals[4:]
    elif len(head) >= 8:
        n = 0
        for v in head[2:8]:
            n = (n << 6) | v
        body = vals[8:]
    else:
        raise InputFormatError("truncated graph6 size field")
    k = n * (n - 1) // 2
    expect = -(-k // 6)
    if body.size != expect:
        raise InputFormatError(f"graph6 body has {body.size} groups, expected {expect}")
    # six bits per group, high to low
    bits = np.unpackbits((body << 2)[:, None], axis=1, count=6).ravel()
    if np.any(bits[k:]):
        raise InputFormatError("nonzero padding bits in graph6 body")
    # column-major upper triangle: bit v(v-1)/2 + u is the edge (u, v), u < v,
    # so the set positions run through column v in [tri[v], tri[v+1])
    pos = np.flatnonzero(bits[:k])
    del bits
    tri = np.arange(n + 1, dtype=np.int64)
    tri = tri * (tri - 1) // 2
    counts = np.diff(np.searchsorted(pos, tri))
    edges = np.empty((pos.size, 2), dtype=np.int32)
    edges[:, 1] = np.repeat(np.arange(n, dtype=np.int32), counts)
    pos -= np.repeat(tri[:-1], counts)
    edges[:, 0] = pos
    del pos
    try:
        return Graph(n, edges)
    except ParameterError as exc:
        raise InputFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# random regular graphs


def generate_random_regular(n: int, d: int, seed: int, max_attempts: int = 200) -> Graph:
    """Sample a d-regular simple graph on n vertices via stub pairing.

    Each attempt pairs the n*d stubs in shuffled batches, keeps the pairs
    that form new simple edges, and recycles the rest; an attempt dies
    when the leftover stubs provably admit no further edge (or a round
    cap is hit), and a fresh attempt restarts from its own derived seed.
    An attempt marks accepted edges in an n*n-bit table (3.1 MB at
    n=5000, 50 MB at n=20000), so for sparse graphs on very many vertices
    that table, not the n*d stubs, sets the memory needed.
    """
    if n <= 0:
        raise ParameterError(f"need at least one vertex, got n={n}")
    if d < 0 or d >= n:
        raise ParameterError(f"degree must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2:
        raise ParameterError(f"n*d must be even, got n={n}, d={d}")
    if d == 0:
        return Graph(n)
    for attempt in range(max_attempts):
        rng = np.random.default_rng(derive_seed(seed, "pairing", attempt))
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return Graph(n, edges)
    raise RetryExhausted(
        f"no simple {d}-regular graph on {n} vertices in {max_attempts} pairing attempts",
        attempts=max_attempts,
    )


def _pairing_attempt(n: int, d: int, rng: np.random.Generator, max_rounds: int = 200) -> np.ndarray | None:
    stubs = np.repeat(np.arange(n, dtype=np.int32), d)
    # bit k of ``seen`` marks the accepted edge with key k = lo*n + hi,
    # which stays below n^2 < 2^62; the keys themselves are kept per round
    # and sorted once at the end, since only their set decides the graph
    seen = np.zeros(-(-n * n // 8), dtype=np.uint8)
    taken = [np.empty(0, dtype=np.int64)]
    for _ in range(max_rounds):
        if stubs.size == 0:
            del stubs, seen
            accepted = np.concatenate(taken)
            del taken
            accepted.sort()
            out = np.empty((accepted.size, 2), dtype=np.int32)
            np.floor_divide(accepted, n, out=out[:, 0], casting="unsafe")
            np.remainder(accepted, n, out=out[:, 1], casting="unsafe")
            return out
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = lo.astype(np.int64)
        keys *= n
        keys += hi
        # a row pairs when it is no loop, no edge accepted before, and the
        # first row of its key; which rows stay decides the next shuffle,
        # so it must be the first one
        take = lo != hi
        del lo, hi
        take &= ~_has_bits(seen, keys)
        uniq = keys[take]
        if uniq.size == 0:
            if not _stubs_suitable(stubs, seen, n):
                return None
            continue
        uniq.sort()
        repeated = uniq[1:] == uniq[:-1]
        if repeated.any():
            # each repeated key is accepted this round by its first row, so
            # marking it in ``seen`` now picks out the rows that carry it
            _set_bits(seen, uniq[1:][repeated])
            rep = np.flatnonzero(take & _has_bits(seen, keys))
            first = np.unique(keys[rep], return_index=True)[1]
            take[rep] = False
            take[rep[first]] = True
            del rep, first
            uniq = uniq[np.concatenate([[True], ~repeated])]
        del keys, repeated
        _set_bits(seen, uniq)
        taken.append(uniq)
        del uniq
        stubs = pairs[~take].ravel()
        del pairs, take
    return None


_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)


def _has_bits(bitset: np.ndarray, keys: np.ndarray) -> np.ndarray:
    return (bitset[keys >> 3] & _BIT[keys & 7]) != 0


def _set_bits(bitset: np.ndarray, keys: np.ndarray) -> None:
    np.bitwise_or.at(bitset, keys >> 3, _BIT[keys & 7])


def _stubs_suitable(stubs: np.ndarray, seen: np.ndarray, n: int) -> bool:
    """True if some pair of leftover stubs can still form a new edge."""
    distinct = np.unique(stubs)
    k = distinct.size
    if k < 2:
        return False
    if k > 1500:
        # too many to test pairwise; almost surely fine, let rounds retry
        return True
    a, b = np.triu_indices(k, 1)
    keys = distinct[a].astype(np.int64) * n + distinct[b]
    return not _has_bits(seen, keys).all()


# ---------------------------------------------------------------------------
# subgraphs and traversal


@dataclass
class IndexMap:
    """Vertex and edge correspondence between a graph and a parent."""

    new_to_old: np.ndarray
    old_to_new: np.ndarray
    edge_parent: np.ndarray


def induced_subgraph(graph: Graph, vertices: np.ndarray) -> tuple[Graph, IndexMap]:
    """Subgraph induced on ``vertices`` with maps back to the parent.

    Vertices are relabeled 0..k-1 in ascending parent order; that keeps
    the relabeling monotone, so canonical edge order is preserved and
    ``edge_parent[i]`` is the parent edge id of sub edge i.
    """
    verts = np.unique(np.asarray(vertices, dtype=np.int64))
    if verts.size and (verts[0] < 0 or verts[-1] >= graph.n):
        raise ParameterError("subgraph vertex outside parent range")
    k = int(verts.size)
    old_to_new = np.full(graph.n, -1, dtype=np.int32)
    old_to_new[verts] = np.arange(k, dtype=np.int32)
    inside = np.zeros(graph.n, dtype=bool)
    inside[verts] = True
    ends = inside[graph.edges]
    emask = ends[:, 0] & ends[:, 1]
    del ends
    edge_parent = np.flatnonzero(emask).astype(np.int32)
    sub = Graph(k, old_to_new[graph.edges[edge_parent]])
    return sub, IndexMap(new_to_old=verts.astype(np.int32), old_to_new=old_to_new, edge_parent=edge_parent)


@dataclass
class ComponentOrder:
    """One connected component with its processing order.

    ``order`` is the reversed BFS order from the component's smallest
    vertex, so the root sits last and its first-visited child second to
    last (they are adjacent). ``forward[j]`` is the BFS parent of
    ``order[j]``, a neighbor appearing later in the order; -1 for the
    root itself.
    """

    order: np.ndarray
    forward: np.ndarray


def components_with_order(graph: Graph) -> list[ComponentOrder]:
    """Connected components, each with a processing order whose every
    non-final vertex has a designated neighbor later in the order.

    Components are returned by ascending smallest vertex id; BFS visits
    neighbors in ascending order, so the whole decomposition is
    deterministic in the graph alone.
    """
    seen = np.zeros(graph.n, dtype=bool)
    out: list[ComponentOrder] = []
    for root in range(graph.n):
        if seen[root]:
            continue
        seen[root] = True
        bfs = [root]
        parent = [-1]
        head = 0
        while head < len(bfs):
            v = bfs[head]
            head += 1
            # neighbors are distinct, so marking them all at once visits
            # them in the same ascending order as one at a time
            nb = graph.neighbors(v)
            fresh = nb[~seen[nb]]
            seen[fresh] = True
            bfs.extend(fresh.tolist())
            parent.extend([v] * fresh.size)
        out.append(
            ComponentOrder(
                order=np.array(bfs[::-1], dtype=np.int64),
                forward=np.array(parent[::-1], dtype=np.int64),
            )
        )
    return out
