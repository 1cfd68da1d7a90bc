"""``sample_partition`` as it stood before the class-row bincount, kept
verbatim as the reference that the partition must reproduce: it gathers
every CSR entry's class and counts each class by compare-and-sum."""

from __future__ import annotations

import numpy as np

from irrstrength.graphs import Graph
from irrstrength.partition import PipelineParams, VertexPartition, membership_probability


def sample_partition(g: Graph, p: PipelineParams, seed: int) -> VertexPartition:
    d = g.regular_degree()
    prob = membership_probability(g.n, p.b, p.eps)
    rng = np.random.default_rng(seed)
    in_u = rng.random(g.n) < prob
    # a class label is drawn for every vertex; only U-vertices keep theirs
    draw = rng.integers(1, 8, size=g.n, dtype=np.int8)
    klass = np.where(in_u, draw, np.int8(0)).astype(np.int8)

    # the graph is d-regular, so row v of the CSR holds exactly d classes
    nbr_class = klass[g.indices].reshape(g.n, d)
    dui = np.stack([(nbr_class == c).view(np.uint8).sum(axis=1, dtype=np.int32) for c in range(1, 8)], axis=1)
    du = dui.sum(axis=1, dtype=np.int32)
    return VertexPartition(in_u=in_u, klass=klass, du=du, d0=d - du, dui=dui)
