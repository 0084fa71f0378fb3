"""Sequential reference shortest paths and percentile-ranked target picking.

This module is the ground truth the parallel engine is validated against,
so it deliberately shares no code with the stepping machinery: plain
binary-heap Dijkstra over the CSR arrays.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .graph import CsrGraph


def dijkstra(graph: CsrGraph, source: int) -> np.ndarray:
    """Exact distances from ``source``; unreachable vertices get +inf.

    Classic binary-heap Dijkstra: vertices settle in nondecreasing
    distance order, stale heap entries are skipped.
    """
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range for n={graph.n}")
    dist = np.full(graph.n, np.inf)
    dist[source] = 0.0
    offsets, targets, weights = graph.offsets, graph.targets, graph.weights
    done = np.zeros(graph.n, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for a in range(offsets[u], offsets[u + 1]):
            v = targets[a]
            nd = d + weights[a]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, int(v)))
    return dist


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
