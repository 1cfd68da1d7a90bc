"""Ground truth: weighted degrees, irregularity checking, the final
+1 shift, the regular lower bound, and an exact solver for small graphs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graphs import Graph, weighted_degrees
from .labeling import STAGE_DISTINGUISHED, STAGE_FINAL, Budgets, WeightingState

_MAX_EDGES = 20  # the most edges exact_strength searches


@dataclass(frozen=True)
class VerificationResult:
    irregular: bool
    witness: tuple[int, int] | None
    min_label: int
    max_label: int
    bound_ok: bool
    sigma_min: int
    sigma_max: int
    distinct_sigmas: int
    n: int

    def to_text(self) -> str:
        lines = [
            f"irregular={self.irregular}",
            f"witness={'' if self.witness is None else f'{self.witness[0]},{self.witness[1]}'}",
            f"min_label={self.min_label}",
            f"max_label={self.max_label}",
            f"bound_ok={self.bound_ok}",
            f"sigma_min={self.sigma_min}",
            f"sigma_max={self.sigma_max}",
            f"distinct_sigmas={self.distinct_sigmas}",
            f"vertices={self.n}",
        ]
        return "\n".join(lines) + "\n"


def is_irregular(g: Graph, weights: np.ndarray, cap: int | None = None) -> VerificationResult:
    """Check global pairwise distinctness of weighted degrees.

    Distinctness is required over ALL vertex pairs, not just adjacent
    ones. ``cap`` (when given) drives the bound_ok field. The witness is
    the lexicographically smallest (u, v), u < v, with equal degrees: a
    stable sort lists each tied group in ascending vertex order, so a
    group's first two entries are its smallest pair, and the answer is
    the tie with the smallest first vertex.
    """
    sigma = weighted_degrees(g, weights)
    order = np.argsort(sigma, kind="stable")
    ranked = sigma[order]
    tied = np.flatnonzero(ranked[1:] == ranked[:-1])
    witness = None
    if tied.size:
        i = int(tied[np.argmin(order[tied])])
        witness = (int(order[i]), int(order[i + 1]))
    if g.num_edges:
        min_label = int(np.min(weights))
        max_label = int(np.max(weights))
    else:
        min_label = 0
        max_label = 0
    return VerificationResult(
        irregular=witness is None,
        witness=witness,
        min_label=min_label,
        max_label=max_label,
        bound_ok=True if cap is None else max_label <= cap,
        sigma_min=int(ranked[0]) if g.n else 0,
        sigma_max=int(ranked[-1]) if g.n else 0,
        distinct_sigmas=g.n - int(tied.size),
        n=g.n,
    )


def finalize_and_check(
    g: Graph, state: WeightingState, budgets: Budgets
) -> VerificationResult:
    """Shift every weight up by one and verify the result.

    The shift turns the zero-based working weights into positive labels.
    On a regular graph it adds the same constant d to every weighted
    degree, so the collision structure is untouched.
    """
    state.require_stage(STAGE_DISTINGUISHED)
    if state.weights.size and int(state.weights.min()) < 0:
        raise RuntimeError(
            "negative edge weight before the final shift; stage logic broken"
        )
    state.weights += 1
    state.sigma += g.degrees.astype(np.int64)
    state.stage = STAGE_FINAL
    result = is_irregular(g, state.weights, cap=budgets.label_cap())
    if g.num_edges and result.min_label < 1:
        raise RuntimeError("final labels not positive; shift logic broken")
    return result


def regular_lower_bound(n: int, d: int) -> int:
    """ceil((n + d - 1) / d), valid for every d-regular graph."""
    if d < 1:
        raise ParameterError(f"degree must be >= 1, got {d}")
    if n < 1:
        raise ParameterError(f"vertex count must be >= 1, got {n}")
    return (n + 2 * d - 2) // d


@dataclass(frozen=True)
class ExactStrengthResult:
    strength: int | None
    exceeded: bool
    k_max: int
    witness: np.ndarray | None
    nodes_explored: int

    def to_text(self) -> str:
        if self.exceeded:
            return f"strength=>{self.k_max}\nnodes={self.nodes_explored}\n"
        return f"strength={self.strength}\nnodes={self.nodes_explored}\n"


def _strength_defined(g: Graph) -> None:
    degs = g.degrees
    isolated = int(np.count_nonzero(degs == 0))
    if isolated >= 2:
        raise ParameterError(
            "irregularity strength is undefined: two isolated vertices always tie"
        )
    if g.num_edges:
        deg_u = degs[g.edges[:, 0]]
        deg_v = degs[g.edges[:, 1]]
        lonely = np.nonzero((deg_u == 1) & (deg_v == 1))[0]
        if lonely.size:
            u, v = g.edges[int(lonely[0])]
            raise ParameterError(
                f"irregularity strength is undefined: edge ({u},{v}) is isolated, "
                "its endpoints always tie"
            )


# one step of the search: (eid, a, b, a_done, b_done)
_Step = tuple[int, int, int, bool, bool]


def _search_order(g: Graph) -> list[_Step]:
    """Edges sorted by (min endpoint degree, id): low-degree vertices
    complete early, so the collision prune fires as soon as possible.
    An endpoint is done at its last edge in the order, where its
    weighted degree becomes final."""
    keyed = np.argsort(g.degrees[g.edges].min(axis=1), kind="stable").tolist()
    ends = g.edges[keyed].tolist()
    last = {v: i for i, edge in enumerate(ends) for v in edge}
    return [(keyed[i], a, b, last[a] == i, last[b] == i) for i, (a, b) in enumerate(ends)]


def _feasible_with(g: Graph, k: int, order: list[_Step]) -> tuple[np.ndarray | None, int]:
    """Backtracking search for a k-weighting with all weighted degrees
    distinct. Prunes as soon as a done vertex collides with another done
    vertex; ``taken`` holds the weighted degrees of the done vertices. An
    isolated vertex needs no check: ``_strength_defined`` refuses two of
    them, and a lone one's degree 0 is below every completed degree, as
    every label is >= 1."""
    sigma = [0] * g.n
    taken: set[int] = set()
    weights = [0] * g.num_edges
    nodes = 0

    def dfs(pos: int) -> bool:
        nonlocal nodes
        if pos == len(order):
            return True
        eid, a, b, a_done, b_done = order[pos]
        for val in range(1, k + 1):
            nodes += 1
            sigma[a] += val
            sigma[b] += val
            sa, sb = sigma[a], sigma[b]
            if not ((a_done and sa in taken) or (b_done and (sb in taken or (a_done and sa == sb)))):
                if a_done:
                    taken.add(sa)
                if b_done:
                    taken.add(sb)
                weights[eid] = val
                if dfs(pos + 1):
                    return True
                if a_done:
                    taken.discard(sa)
                if b_done:
                    taken.discard(sb)
            sigma[a] -= val
            sigma[b] -= val
        return False

    if not dfs(0):
        return None, nodes
    return np.asarray(weights, dtype=np.int64), nodes


def _degree_sums_admit(n: int, d: int, k: int) -> bool:
    """False when no k-weighting of a d-regular graph on n vertices can
    be irregular. Its n weighted degrees would be distinct integers in
    [d, kd], so their sum lies in [n*d + n(n-1)/2, n*k*d - n(n-1)/2],
    and it is even, twice the total weight; the total's own range
    [m, km] adds nothing, as 2m = n*d. The interval is empty below
    ``regular_lower_bound(n, d)``; at it, it holds only the sum of
    d..kd, which may be odd.
    """
    low = n * d + n * (n - 1) // 2
    high = n * k * d - n * (n - 1) // 2
    return low + low % 2 <= high


def exact_strength(g: Graph, k_max: int = 16) -> ExactStrengthResult:
    """Least k admitting an irregular weighting with labels in {1..k},
    by iterative deepening; on a regular graph, a level that the sum of
    the weighted degrees rules out is skipped without a search.

    Exceeding ``k_max`` is an answer ("> k_max"), not an error. A
    ``k_max`` below 1 and graphs beyond ``_MAX_EDGES`` = 20 edges are
    refused up front.
    """
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
    if g.num_edges > _MAX_EDGES:
        raise ParameterError(f"exact solver guard: {g.num_edges} edges exceeds the limit of {_MAX_EDGES}")
    _strength_defined(g)
    if g.num_edges == 0:
        return ExactStrengthResult(
            strength=1, exceeded=False, k_max=k_max,
            witness=np.zeros(0, dtype=np.int64), nodes_explored=0,
        )

    d = int(g.degrees[0]) if int(g.degrees.min()) == int(g.degrees.max()) else None
    order = _search_order(g)
    total_nodes = 0
    for k in range(1, k_max + 1):
        if d is not None and not _degree_sums_admit(g.n, d, k):
            continue
        witness, nodes = _feasible_with(g, k, order)
        total_nodes += nodes
        if witness is not None:
            return ExactStrengthResult(
                strength=k, exceeded=False, k_max=k_max,
                witness=witness, nodes_explored=total_nodes,
            )
    return ExactStrengthResult(
        strength=None, exceeded=True, k_max=k_max, witness=None,
        nodes_explored=total_nodes,
    )
