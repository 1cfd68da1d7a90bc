"""Exhaustive census of connected cubic graphs on few vertices.

Enumeration walks vertices in label order, completing each vertex's
degree to 3 with neighbors of larger label. Keeping only labelings in
which every positive vertex already has a smaller neighbor (true of any
BFS labeling) and vertex 0's neighbors are exactly {1,2,3} guarantees
each connected cubic isomorphism class shows up. The first labeling of
each characteristic polynomial is kept: graphs with distinct polynomials
are never isomorphic, so the kept graphs are pairwise non-isomorphic, and
when their number equals the known count of classes (1, 2, 5 and 19 for
n = 4, 6, 8, 10) every class is present exactly once. Two classes sharing
a polynomial would lower that number, so a collision fails loudly.
"""

from __future__ import annotations

from itertools import combinations

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


def _spectral_key(edges: frozenset[tuple[int, int]], n: int) -> tuple[int, ...]:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    coeffs = np.poly(a)
    return tuple(int(round(c)) for c in coeffs)


def connected_cubic_graphs(n: int) -> list[Graph]:
    """One connected cubic graph on n vertices per characteristic
    polynomial, in enumeration order (see the module note for why that is
    one per isomorphism class)."""
    reps: dict[tuple[int, ...], frozenset[tuple[int, int]]] = {}
    for edges in _enumerate_labeled(n):
        reps.setdefault(_spectral_key(edges, n), edges)
    return [Graph(n, sorted(e)) for e in reps.values()]
