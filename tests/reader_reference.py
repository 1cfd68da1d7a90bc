"""The edge-list and weight-CSV readers as they stood before the bulk
parse, kept verbatim but for the bulk edge lookup that the weight reader
calls, as the reference that the readers must reproduce: the
same graph or weights for every file, and the same message for every
fault. They read in text mode, so a non-ASCII byte makes them raise
UnicodeDecodeError, which the readers now report as a fault of its line."""

from __future__ import annotations

import re
from array import array
from pathlib import Path

import numpy as np

from irrstrength.errors import InputFormatError, ParameterError
from irrstrength.graphs import Graph, edge_lookup

_HEADER_RE = re.compile(r"#\s*(\d+)\s+(\d+)\s*$")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def read_edge_list(path: str | Path) -> Graph:
    n_header: int | None = None
    ends = array("q")  # u0, v0, u1, v1, ...
    huge = -1  # largest id beyond int64, which ``ends`` cannot hold
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def read_weights_csv(path: str, g: Graph) -> np.ndarray:
    """Load a weight vector aligned with g's edge ids.

    Lines are parsed until the first one that is faulty on its own; the
    rows before it are then resolved to edge ids in one lookup, so a
    missing or repeated edge on an earlier line is reported first."""
    n = g.n
    buf = array("q")  # u, v, weight, line number per row
    fault = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#") or text == "u,v,weight":
                    continue
                parts = text.split(",")
                if len(parts) != 3:
                    raise InputFormatError(f"line {lineno}: expected u,v,weight, got {text!r}")
                try:
                    u, v, wt = int(parts[0]), int(parts[1]), int(parts[2])
                except ValueError:
                    raise InputFormatError(f"line {lineno}: non-integer field in {text!r}") from None
                if not _INT64_MIN <= wt <= _INT64_MAX:
                    raise InputFormatError(f"line {lineno}: weight {wt} outside the 64-bit integer range")
                if not (0 <= u < n and 0 <= v < n):
                    raise InputFormatError(f"line {lineno}: edge ({u},{v}) not in graph")
                buf.extend((u, v, wt, lineno))
    except InputFormatError as exc:
        fault = exc
    rows = np.frombuffer(buf, dtype=np.int64).reshape(-1, 4)
    eids = edge_lookup(g)(rows[:, 0], rows[:, 1])
    first_use = np.zeros(eids.size, dtype=bool)
    first_use[np.unique(eids, return_index=True)[1]] = True
    bad = np.flatnonzero((eids < 0) | ~first_use)
    if bad.size:
        u, v, _, lineno = rows[bad[0]].tolist()
        if eids[bad[0]] < 0:
            raise InputFormatError(f"line {lineno}: edge ({u},{v}) not in graph")
        raise InputFormatError(f"line {lineno}: duplicate weight for edge ({u},{v})")
    if fault is not None:
        raise fault
    if eids.size < g.num_edges:
        u, v = g.edges[np.setdiff1d(np.arange(g.num_edges), eids)[0]]
        raise InputFormatError(f"no weight given for edge ({u},{v})")
    weights = np.empty(g.num_edges, dtype=np.int64)
    weights[eids] = rows[:, 2]
    return weights
