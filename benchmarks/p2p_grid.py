"""The ``p2p-grid`` workload of ``ab.py``: point-to-point queries on a weighted grid.

A 316 x 316 four-neighbour grid, weights drawn uniformly on [1, 100] by
``graph.generate_uniform_weights`` and each vertex's (row, column) as
euclidean coordinates.  It is the high-diameter case: a 90th-percentile
``bids`` query takes 200 to 330 steps (seed 1), so a per-step cost shows
most here.
Each set-up asks GRID_PAIRS pairs at the 10th and as many at the 90th
distance percentile, every one with ``et``, ``bids``, ``astar`` and
``bidastar``.

The class follows the workload interface of ``perfbench/cases.py`` and,
like it, looks steppath up through ``sys.modules`` at call time, so
``ab.py`` runs it on either side's tree.  ``wrong`` checks the answers
with scipy's Dijkstra over the grid's arcs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from cases import SETUPS, Request, Setup, mod

GRID_SIDE = 316
GRID_WEIGHTS = (1.0, 100.0)
GRID_PAIRS = 4  # per percentile and set-up
GRID_PERCENTILES = (10, 90)
GRID_STRATEGIES = ("et", "bids", "astar", "bidastar")
GRID_REL_TOL = 1e-9  # float weights: the bound perfbench's p2p-geo checks with


class P2PGrid:
    name = "p2p-grid"

    def __init__(self, seed: int):
        self.seed = seed
        ids = np.arange(GRID_SIDE * GRID_SIDE).reshape(GRID_SIDE, GRID_SIDE)
        right = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
        down = np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
        pairs = np.concatenate([right, down])
        self.edges = np.column_stack([pairs, np.ones(len(pairs))])
        self.coords = np.column_stack(np.divmod(ids.ravel(), GRID_SIDE)).astype(np.float64)

    def setup(self, workdir: Path, part: int) -> Setup:
        graph = mod("graph").build_csr(GRID_SIDE * GRID_SIDE, self.edges, symmetrize=True)
        graph = mod("graph").generate_uniform_weights(graph, self.seed, *GRID_WEIGHTS)
        graph = graph.with_coords(self.coords, "euclidean")
        queries = []
        for k, percentile in enumerate(GRID_PERCENTILES):
            seed = (self.seed * SETUPS + part) * len(GRID_PERCENTILES) + k
            pairs = mod("workloads").percentile_pairs(graph, GRID_PAIRS, percentile, seed)
            queries += [(graph, s, t) for s, t in pairs.tolist()]
        return Setup({"graphs": 1, "n": graph.n, "m": graph.m}, graph, queries, {})

    def requests(self, setup: Setup, queries: list) -> list[Request]:
        """Every pair with every strategy, interleaved per pair."""
        return [
            Request(strategy, self._query(graph, s, t, strategy))
            for graph, s, t in queries
            for strategy in GRID_STRATEGIES
        ]

    @staticmethod
    def _query(graph, s, t, strategy):
        return lambda: mod("ppsp").ppsp(graph, s, t, strategy).distance

    def wrong(self, queries: list, answers: list) -> set[int]:
        rows = {}
        bad = set()
        for i, got in enumerate(answers):
            graph, s, t = queries[i // len(GRID_STRATEGIES)]
            if (id(graph), s) not in rows:
                matrix = csr_matrix((graph.weights, graph.targets, graph.offsets), shape=(graph.n, graph.n))
                rows[(id(graph), s)] = scipy_dijkstra(matrix, directed=True, indices=s)
            want = rows[(id(graph), s)][t]
            if not isinstance(got, float) or not np.isfinite(want) or abs(got - want) > GRID_REL_TOL * want:
                bad.add(i)
        return bad
