"""The stub-pairing attempt as it stood before the membership bitset, kept
verbatim as the reference that the generator must reproduce exactly: the
shuffle sequence decides the graph, so any change in which rows a round
pairs would change every graph generated after it."""

from __future__ import annotations

import numpy as np


def _pairing_attempt(n: int, d: int, rng: np.random.Generator, max_rounds: int = 200) -> np.ndarray | None:
    stubs = np.repeat(np.arange(n, dtype=np.int32), d)
    accepted = np.empty(0, dtype=np.int64)
    for _ in range(max_rounds):
        if stubs.size == 0:
            del stubs
            out = np.empty((accepted.size, 2), dtype=np.int32)
            np.floor_divide(accepted, n, out=out[:, 0], casting="unsafe")
            np.remainder(accepted, n, out=out[:, 1], casting="unsafe")
            return out
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        ok_rows = np.nonzero(lo != hi)[0]
        keys = lo[ok_rows].astype(np.int64) * n + hi[ok_rows]
        uniq, first = np.unique(keys, return_index=True)
        pos = np.searchsorted(accepted, uniq)
        pos = np.minimum(pos, max(accepted.size - 1, 0))
        fresh = accepted.size == 0
        new_mask = np.ones(uniq.size, dtype=bool) if fresh else accepted[pos] != uniq
        take_rows = ok_rows[first[new_mask]]
        if take_rows.size:
            accepted = np.sort(np.concatenate([accepted, uniq[new_mask]]))
            keep = np.ones(len(pairs), dtype=bool)
            keep[take_rows] = False
            stubs = pairs[keep].ravel()
        elif not _stubs_suitable(stubs, accepted, n):
            return None
    return None


def _stubs_suitable(stubs: np.ndarray, accepted: np.ndarray, n: int) -> bool:
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
    pos = np.searchsorted(accepted, keys)
    pos = np.minimum(pos, max(accepted.size - 1, 0))
    present = accepted[pos] == keys if accepted.size else np.zeros(keys.size, dtype=bool)
    return bool(np.any(~present))
