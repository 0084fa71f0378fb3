"""Reference shortest paths and percentile-ranked target picking.

This module is the ground truth the parallel engine is validated against,
so it deliberately shares no code with the stepping machinery: distances
come from scipy's compiled Dijkstra (``scipy.sparse.csgraph.dijkstra``)
over a CSR view of the graph's arrays.  Vertex ids are checked by
:func:`~steppath.io.as_vertex`, which does no stepping.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .graph import CsrGraph
from .io import as_vertex


def dijkstra(graph: CsrGraph, source: int) -> np.ndarray:
    """Exact distances from ``source``; unreachable vertices get +inf.

    scipy's Dijkstra over the arcs as stored: an explicit zero weight is
    an arc, and parallel arcs count with their lightest weight.
    """
    source = as_vertex(source, graph.n, "source")
    matrix = csr_matrix((graph.weights, graph.targets, graph.offsets), shape=(graph.n, graph.n))
    return _dijkstra(matrix, directed=True, indices=source)


def percentile_target(graph: CsrGraph, source: int, p: float, distances=None) -> int:
    """Pick the target at the p-th distance percentile from ``source``.

    Let R be the reachable vertices excluding the source, sorted ascending
    by (distance, id).  The result is ``R[ceil(p/100 * |R|) - 1]``; p=100
    selects the farthest vertex.  The formula is fixed so query sets are
    reproducible.  ``distances`` may pass in precomputed exact distances
    from ``source`` to skip the internal Dijkstra run.

    R is never sorted: a selection finds the distance at that rank, and
    the vertices tied at it are taken in id order.
    """
    source = as_vertex(source, graph.n, "source")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    if distances is None:
        distances = dijkstra(graph, source)
    distances = np.asarray(distances, dtype=np.float64)
    if distances.shape != (graph.n,):
        raise ValueError("distances must hold one entry per vertex")
    reachable = np.flatnonzero(np.isfinite(distances))
    reachable = reachable[reachable != source]
    if reachable.size == 0:
        raise ValueError(f"source {source} is isolated: no other vertex is reachable")
    d = distances[reachable]
    rank = math.ceil(p / 100.0 * d.size) - 1
    rank = min(max(rank, 0), d.size - 1)
    kth = np.partition(d, rank)[rank]
    # R holds count(d < kth) vertices before the ties at kth, which sit in
    # ascending id order because ``reachable`` is ascending
    return int(reachable[d == kth][rank - np.count_nonzero(d < kth)])
