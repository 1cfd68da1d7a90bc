"""``Graph.__init__`` as it stood before the plain word sorts, kept
verbatim as the reference that the constructor must reproduce: it puts
the edges in canonical order with a stable argsort of their keys and
builds the CSR with a stable argsort of the source vertex over
``[hi, lo]``. Only the constructor is kept; the arrays it sets are the
whole of what is compared."""

from __future__ import annotations

import numpy as np

from irrstrength.errors import ParameterError


class Graph:
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
