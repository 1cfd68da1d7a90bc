"""Exhaustive census of connected cubic graphs on few vertices.

Enumeration walks vertices in label order, completing each vertex's
degree to 3 with neighbors of larger label. Keeping only labelings in
which every positive vertex already has a smaller neighbor (true of any
BFS labeling) and vertex 0's neighbors are exactly {1,2,3} guarantees
each connected cubic isomorphism class shows up. Each labeling is keyed
by its spectral moments tr(A^k), k = 2..n, computed exactly in int64; by
Newton's identities they fix the characteristic polynomial and are fixed
by it. The first labeling of each key is kept: graphs with distinct keys
are never isomorphic, so the kept graphs are pairwise non-isomorphic, and
when their number equals the known count of classes (1, 2, 5 and 19 for
n = 4, 6, 8, 10) every class is present exactly once. Two classes sharing
a key would lower that number, so a collision fails loudly.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from irrstrength import Graph


def _enumerate_labeled(n: int) -> list[frozenset[tuple[int, int]]]:
    if n < 4 or n % 2:
        return []
    deg = [0] * n
    adj: set[tuple[int, int]] = set()
    out: list[frozenset[tuple[int, int]]] = []

    def fill(v: int) -> None:
        if v == n:
            out.append(frozenset(adj))
            return
        if v > 0 and deg[v] == 0:
            return
        need = 3 - deg[v]
        if need < 0:
            return
        if need == 0:
            fill(v + 1)
            return
        free = [u for u in range(v + 1, n) if deg[u] < 3]
        if len(free) < need:
            return
        for chosen in combinations(free, need):
            for u in chosen:
                deg[u] += 1
                adj.add((v, u))
            deg[v] += need
            fill(v + 1)
            deg[v] -= need
            for u in chosen:
                deg[u] -= 1
                adj.discard((v, u))

    # a BFS labeling from any vertex of a cubic graph starts this way
    for u in (1, 2, 3):
        deg[0] += 1
        deg[u] += 1
        adj.add((0, u))
    fill(1)
    return out


def connected_cubic_graphs(n: int) -> list[Graph]:
    """One connected cubic graph on n vertices per spectral key, in
    enumeration order (see the module note for why that is one per
    isomorphism class)."""
    labeled = _enumerate_labeled(n)
    if not labeled:
        return []
    flat = chain.from_iterable(chain.from_iterable(labeled))
    ends = np.fromiter(flat, dtype=np.int64).reshape(len(labeled), -1, 2)  # (labeling, edge, endpoint)
    which = np.arange(len(labeled))[:, None]
    adj = np.zeros((len(labeled), n, n), dtype=np.int64)
    adj[which, ends[..., 0], ends[..., 1]] = 1
    adj[which, ends[..., 1], ends[..., 0]] = 1
    moments = np.empty((len(labeled), n - 1), dtype=np.int64)  # column k: tr(A^(k+2))
    power = adj
    for k in range(n - 1):
        power = power @ adj
        moments[:, k] = np.trace(power, axis1=1, axis2=2)
    first = np.sort(np.unique(moments, axis=0, return_index=True)[1])
    return [Graph(n, sorted(labeled[i])) for i in first.tolist()]
