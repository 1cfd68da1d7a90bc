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
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
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
_KEY_BLOCK = 1 << 16  # keys per block in _has_bits and _set_bits
_WORD_BLOCK = 1 << 15  # 64-bit words per block in _edges_of
_MAX_ATTEMPTS = 200  # pairing attempts generate_random_regular makes before it gives up
_MAX_ROUNDS = 200  # pairing rounds per attempt; it dies at this cap, or on a last pair it cannot take


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
        m = raw.shape[0]
        if m > np.iinfo(np.int32).max:
            raise ParameterError(f"edge count {m} exceeds the 32-bit id range")
        if raw.size and (raw.min() < 0 or raw.max() >= n):
            raise ParameterError("edge endpoint outside 0..n-1")
        if np.any(raw[:, 0] == raw[:, 1]):
            raise ParameterError("self-loops are not allowed")
        # large instances are memory-bound by this constructor, so every
        # transient is dropped before the next one is made. Equal keys are
        # equal rows, so a plain sort of the keys puts the edges in
        # canonical order, and a duplicate is two adjacent equal keys.
        keys = np.minimum(raw[:, 0], raw[:, 1], dtype=np.int64)
        keys *= n
        keys += np.maximum(raw[:, 0], raw[:, 1], dtype=np.int64)
        del raw
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ParameterError("duplicate edges are not allowed")
        # row v's larger neighbours are the edges (v, w), whose keys lie in
        # [v·n, v·n + n)
        above = np.diff(np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n))
        self.num_edges = m
        self.edges: np.ndarray = np.empty((m, 2), dtype=np.int32)
        np.divmod(keys, n, out=(self.edges[:, 0], self.edges[:, 1]), casting="unsafe")
        del keys
        lo, hi = self.edges[:, 0], self.edges[:, 1]

        # row v lists its smaller neighbours, then its larger ones, each
        # part in canonical order. The larger ones are the run of edges
        # (v, w). The smaller ones come from one sort of the words
        # hi << 32 | id, which fit int64 because ids and ends are below 2^31.
        words = hi.astype(np.int64)
        words <<= 32
        words |= np.arange(m, dtype=np.int32)
        words.sort()
        below = np.diff(np.searchsorted(words, np.arange(n + 1, dtype=np.int64) << 32))
        words &= 0xFFFFFFFF
        below_lo = lo.take(words)
        below_ids = words.astype(np.int32)
        del words
        # True at the slots of each row's smaller neighbours
        smaller = np.repeat(np.tile([True, False], n), np.stack([below, above], axis=1).ravel())
        self.indices: np.ndarray = np.empty(2 * m, dtype=np.int32)
        self.indices[smaller] = below_lo
        del below_lo
        self.edge_ids: np.ndarray = np.empty(2 * m, dtype=np.int32)
        self.edge_ids[smaller] = below_ids
        del below_ids
        larger = np.logical_not(smaller, out=smaller)
        self.indices[larger] = hi
        self.edge_ids[larger] = np.arange(m, dtype=np.int32)
        del larger, smaller
        counts = below + above
        self.indptr: np.ndarray = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.degrees: np.ndarray = counts.astype(np.int32)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of v in ascending order (view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def incident_edges(self, v: int) -> np.ndarray:
        """Edge ids incident to v, aligned with neighbors(v)."""
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]

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


def edge_lookup(g: Graph) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """A function from endpoint arrays ``us, vs`` to the ids of the edges
    joining ``us[i]`` and ``vs[i]``, in either order; -1 where they are not
    adjacent, also when ``us[i] == vs[i]`` or either id lies outside
    0..n-1. The int64 edge keys are built once here and shared by every
    call."""
    n = g.n
    # edge keys are positive, so -1 marks a pair that is no edge, and the
    # sentinel above them all gives every query a valid position
    keys = np.append(g.edges[:, 0].astype(np.int64) * n + g.edges[:, 1], np.iinfo(np.int64).max)

    def lookup(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        query = np.where((lo >= 0) & (hi < n) & (lo != hi), lo * n + hi, -1)
        pos = np.searchsorted(keys, query)
        return np.where(keys[pos] == query, pos, -1)

    return lookup


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


def require_int64_sums(g: Graph, weights: np.ndarray) -> None:
    """Refuse integer edge weights whose weighted degrees could leave the
    int64 range."""
    if g.num_edges:
        # bounded before any cast, which would wrap unsigned values above 2^63-1
        peak = max(-int(weights.min()), int(weights.max())) * int(g.degrees.max())
        if peak > np.iinfo(np.int64).max:
            raise InputFormatError("weighted degrees may exceed the 64-bit integer range")


def weighted_degrees(g: Graph, weights: np.ndarray) -> np.ndarray:
    """Per-vertex sum of incident edge weights, exact in int64.

    Non-integer weights are refused rather than truncated, and sums
    that could leave the int64 range rather than wrapped, so every
    answer returned is the true integer sum.
    """
    weights = edge_weights(g, weights)
    require_int64_sums(g, weights)
    sigma = np.zeros(g.n, dtype=np.int64)
    if g.num_edges:
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
    # parsed runs of plain lines, joined once at the end, since one array
    # grown by reallocation puts a read's peak RSS wherever the heap lets
    # it land (levels 12 MB apart at n=2500); Graph sorts the rows, so
    # their file order need not be kept
    blocks: list[np.ndarray] = []
    ends = array("q")  # the other lines' rows: u0, v0, u1, v1, ...
    huge = -1  # largest id beyond int64, which ``ends`` cannot hold
    for lineno, line in _read_lines(path, b" ", 2, signed=False):
        if isinstance(line, np.ndarray):
            blocks.append(line)
            continue
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            match = _HEADER_RE.match(text)
            if match is not None and n_header is None and not (blocks or ends) and huge < 0:
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
    blocks.append(np.frombuffer(ends, dtype=np.int64).reshape(-1, 2))
    max_seen = max(huge, *(int(block.max(initial=-1)) for block in blocks))
    n = n_header if n_header is not None else max_seen + 1
    if max_seen >= n:
        raise InputFormatError(f"vertex id {max_seen} exceeds declared count {n}")
    # every id is below n, and Graph refuses an n beyond int32 before it
    # reads an edge, so the int32 cast wraps nothing that Graph reads
    edges = np.concatenate(blocks, dtype=np.int32, casting="unsafe")
    del blocks
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


def _check_regular_args(n: int, d: int) -> None:
    """Refuse (n, d) for which ``generate_random_regular`` has no graph to draw."""
    if n <= 0:
        raise ParameterError(f"need at least one vertex, got n={n}")
    if n > np.iinfo(np.int32).max:
        raise ParameterError(f"vertex count {n} exceeds the 32-bit id range")
    if d < 0 or d >= n:
        raise ParameterError(f"degree must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2:
        raise ParameterError(f"n*d must be even, got n={n}, d={d}")


def generate_random_regular(n: int, d: int, seed: int) -> Graph:
    """Sample a d-regular simple graph on n vertices via stub pairing.

    Each attempt pairs the n*d stubs in shuffled batches, keeps the pairs
    that form new simple edges, and recycles the rest. An attempt dies
    when its one leftover pair is a loop or an edge it already has, or
    when stubs are left after ``_MAX_ROUNDS`` = 200 rounds; a fresh
    attempt then restarts from its own derived seed. After
    ``_MAX_ATTEMPTS`` = 200 dead attempts it raises RetryExhausted.

    The first shuffle of attempt k+1 depends on its seed alone, so one
    worker thread makes it while attempt k pairs. The worker is joined
    before the call returns; a shuffle made for an attempt that never runs
    is dropped, and so is any error it raised.

    For d = n - 1 the complete graph, the only such graph, is returned
    without pairing and whatever the seed: stub pairing almost never draws
    it at large n, and every seed whose pairing does names this same graph.

    Stubs take 8 bytes each, and the prefetched next attempt holds a
    second such array: 99 MB in all at n=5000, d=1242. An attempt marks
    accepted edges in an n*n-bit table (3.1 MB at n=5000, 50 MB at
    n=20000), so for sparse graphs on very many vertices that table, not
    the stubs, sets the memory needed.
    """
    _check_regular_args(n, d)
    if d == 0:
        return Graph(n)
    if d == n - 1:
        return Graph(n, np.column_stack(np.triu_indices(n, 1)))
    edges = _first_pairing(n, d, seed)
    if edges is None:
        raise RetryExhausted(f"no simple {d}-regular graph on {n} vertices in {_MAX_ATTEMPTS} pairing attempts")
    return Graph(n, edges)


def _first_pairing(n: int, d: int, seed: int) -> np.ndarray | None:
    """The edges of the first of ``_MAX_ATTEMPTS`` pairing attempts that
    succeeds, or None; every stub array is freed when it returns."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(_first_shuffle, n, d, seed, 0)
        for attempt in range(_MAX_ATTEMPTS):
            rng, stubs = ahead.result()
            ahead = pool.submit(_first_shuffle, n, d, seed, attempt + 1)
            edges = _pairing_attempt(n, rng, stubs)
            if edges is not None:
                return edges
            # freed before the next prefetch, so at most two stub arrays live
            del rng, stubs
    return None


def _first_shuffle(n: int, d: int, seed: int, attempt: int) -> tuple[np.random.Generator, np.ndarray]:
    """The generator of pairing attempt ``attempt`` and its stubs after
    the attempt's first shuffle."""
    rng = np.random.default_rng(derive_seed(seed, "pairing", attempt))
    # numpy shuffles intp items on a faster path than int32 ones, and both
    # give the same permutation
    stubs = np.repeat(np.arange(n, dtype=np.intp), d)
    rng.shuffle(stubs)
    return rng, stubs


def _pairing_attempt(n: int, rng: np.random.Generator, stubs: np.ndarray) -> np.ndarray | None:
    """Pair ``stubs``, which ``rng`` has shuffled once, in at most
    ``_MAX_ROUNDS`` rounds; the edges in canonical order, or None if the
    attempt dies: at the round cap, or on a lone leftover pair that it
    cannot take, since every later shuffle gives that pair back."""
    num_edges = stubs.size // 2
    # bit k of ``seen`` marks the accepted edge with key k = lo*n + hi, so
    # its set bits are the attempt's edges, in canonical order; it is
    # padded to whole 64-bit words for _edges_of
    seen = np.zeros(-(-n * n // 64) * 8, dtype=np.uint8)
    for rounds in range(_MAX_ROUNDS):
        if stubs.size == 0:
            return _edges_of(seen, n, num_edges)
        if rounds:
            rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        keys = _pair_keys(pairs, n)
        # a row pairs when it is no loop, no edge accepted before, and the
        # first row of its key; which rows stay decides the next shuffle,
        # so it must be the first one
        take = pairs[:, 0] != pairs[:, 1]
        if rounds:  # the first round finds ``seen`` empty
            take &= ~_has_bits(seen, keys)
        fresh = keys[take]
        if fresh.size == 0:
            if stubs.size == 2:
                return None
            continue
        fresh.sort()
        repeated = fresh[1:][fresh[1:] == fresh[:-1]]
        if repeated.size:
            # each repeated key is accepted this round by its first row, so
            # marking it in ``seen`` now picks out the rows that carry it
            _set_bits(seen, repeated)
            rep = np.flatnonzero(take & _has_bits(seen, keys))
            keys = keys[rep]
            take[rep] = False
            take[rep[_first_rows(keys)]] = True
            del rep
        del keys, repeated
        # bitwise_or.at runs several times faster on sorted keys
        _set_bits(seen, fresh)
        del fresh
        stubs = pairs[~take].ravel()
        del pairs, take
    return None


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """The key lo*n + hi of each row (lo, hi) of stubs, as uint32 when
    every key fits, which halves a round's largest arrays and sorts
    faster, and else as int64."""
    a, b = pairs[:, 0], pairs[:, 1]
    keys = np.empty(len(pairs), dtype=np.uint32 if n * n <= 1 << 32 else np.int64)
    # lo*n + hi = lo*(n-1) + a + b, made in place, without lo or hi arrays
    np.minimum(a, b, out=keys, casting="unsafe")
    keys *= n - 1
    np.add(keys, a, out=keys, casting="unsafe")
    np.add(keys, b, out=keys, casting="unsafe")
    return keys


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """The position of each distinct key's first occurrence in ``keys``."""
    order = np.argsort(keys)
    grouped = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], grouped[1:] != grouped[:-1]]))
    return np.minimum.reduceat(order, starts)


def _edges_of(seen: np.ndarray, n: int, m: int) -> np.ndarray:
    """The ``m`` edges whose keys are the set bits of ``seen``, in
    canonical order. The table is read a block of 64-bit words at a time,
    and only its nonzero words are unpacked, so a sparse table reads fast."""
    out = np.empty((m, 2), dtype=np.int32)
    words = seen.view(np.uint64)
    row = 0
    for start in range(0, words.size, _WORD_BLOCK):
        block = words[start : start + _WORD_BLOCK]
        nonzero = np.flatnonzero(block)
        # bit j of the i-th nonzero word, in the table's byte order; the
        # bool view makes flatnonzero three times faster than on uint8
        bits = np.unpackbits(block[nonzero].view(np.uint8), bitorder="little").view(bool)
        at = np.flatnonzero(bits)
        keys = nonzero[at >> 6]
        keys += start
        keys <<= 6
        keys += at & 63
        rows = out[row : row + keys.size]
        np.divmod(keys, n, out=(rows[:, 0], rows[:, 1]), casting="unsafe")
        row += keys.size
    return out


_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)


def _has_bits(bitset: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether the bit of each key is set; a block of keys at a time, so
    that the index transients stay small."""
    out = np.empty(keys.size, dtype=bool)
    for start in range(0, keys.size, _KEY_BLOCK):
        part = keys[start : start + _KEY_BLOCK]
        np.not_equal(bitset[part >> 3] & _BIT[part & 7], 0, out=out[start : start + _KEY_BLOCK])
    return out


def _set_bits(bitset: np.ndarray, keys: np.ndarray) -> None:
    for start in range(0, keys.size, _KEY_BLOCK):
        part = keys[start : start + _KEY_BLOCK]
        np.bitwise_or.at(bitset, part >> 3, _BIT[part & 7])


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
    raw = np.asarray(vertices)
    if raw.size and not np.issubdtype(raw.dtype, np.integer):
        raise ParameterError(f"subgraph vertices must be integer ids, got dtype {raw.dtype}")
    verts = np.unique(raw.astype(np.int64))
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


def components_with_order(graph: Graph, within: np.ndarray | None = None) -> list[np.ndarray]:
    """Connected components, each as its reversed BFS order from the
    component's smallest vertex: every non-final vertex has a neighbor
    (its BFS parent) later in the order, and the root sits last with its
    first-visited child second to last, adjacent to it.

    ``within``, a boolean mask over the vertices, restricts the search to
    the subgraph induced on them; vertices keep their ids. Components are
    returned by ascending smallest vertex id and BFS visits neighbors in
    ascending order, so the decomposition is deterministic in the graph
    and the mask alone.
    """
    within = np.ones(graph.n, dtype=bool) if within is None else np.asarray(within)
    if within.dtype != bool or within.shape != (graph.n,):
        raise ParameterError(f"within must be a boolean mask of length {graph.n}")
    seen = ~within
    out: list[np.ndarray] = []
    for root in range(graph.n):
        if seen[root]:
            continue
        seen[root] = True
        bfs = [root]
        head = 0
        while head < len(bfs):
            v = bfs[head]
            head += 1
            # neighbors are distinct, so marking them all at once visits
            # them in the same ascending order as one at a time
            nb = graph.neighbors(v)
            fresh = nb.take((~seen.take(nb)).nonzero()[0])
            seen[fresh] = True
            bfs.extend(fresh.tolist())
        out.append(np.array(bfs[::-1], dtype=np.int64))
    return out
