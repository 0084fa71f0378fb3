"""Batch point-to-point queries over a query graph.

A batch of (s, t) pairs is deduplicated into a query graph: its vertices
are the distinct endpoints, its edges the distinct pairs.  Three ways to
answer it are provided, all exact:

* :func:`multi_bids` runs one joint search with a copy per endpoint and a
  per-endpoint pruning radius of half its largest pending answer.
* :func:`vc_sssp_batch` covers the query edges with endpoint vertices and
  answers from one full SSSP per cover vertex.
* :func:`baseline_batch` answers each edge independently (one
  bidirectional search per edge, or one SSSP per oriented source).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .engine import INF, Search, StepPolicy, _arc_ranges, _scatter_min, run_search, sssp
from .graph import CsrGraph
from .io import as_pairs
from .ppsp import ppsp

BATCH_ALGOS = ("multi", "vc", "plain-bids", "plain-sssp")

# a cell costs 10 B in a joint search (8 B distance, 1 B frontier mask,
# 1 B settled mask), so the default cap comes to 2.5 GiB
DEFAULT_CELL_CAP = 2**28
# largest query graph (in endpoints) whose vertex cover is found exactly
EXACT_COVER_LIMIT = 20


class BatchTooLarge(ValueError):
    """The joint search would allocate more cells than the configured cap."""


@dataclass
class QueryGraph:
    """Deduplicated batch: endpoints, distinct edges, and the pair mapping."""

    endpoints: np.ndarray  # sorted distinct endpoint vertex ids
    edges: np.ndarray  # (E, 2) endpoint-index pairs, i < j, sorted
    pair_edge: np.ndarray  # per input pair: edge index, or -1 for s == t
    # flat CSR adjacency over endpoint indices
    q_offsets: np.ndarray = field(repr=False)
    q_neighbors: np.ndarray = field(repr=False)
    q_edges: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return int(self.endpoints.size)

    @property
    def n_pairs(self) -> int:
        return int(self.pair_edge.size)


def build_query_graph(pairs, n_vertices: int | None = None) -> QueryGraph:
    """Deduplicate (s, t) pairs into a query graph.

    ``pairs`` is empty or a ``(k, 2)`` array of integral vertex ids.
    Duplicate and mirrored pairs map to one edge; self-pairs produce no
    edge (they are answered 0 directly) but their endpoint still joins
    the vertex set.  In :class:`MultiBidsSearch` an endpoint's radius is
    its largest edge answer, -inf with no edge: a self-pair alone is never
    searched.
    """
    pairs = as_pairs(pairs)
    if pairs.size and (pairs.min() < 0 or (n_vertices is not None and pairs.max() >= n_vertices)):
        raise ValueError("query endpoint out of range")
    endpoints = np.unique(pairs)
    idx = np.searchsorted(endpoints, pairs)
    lo, hi = idx.min(axis=1), idx.max(axis=1)
    proper = lo < hi
    edges, inverse = np.unique(np.column_stack([lo, hi])[proper], axis=0, return_inverse=True)
    pair_edge = np.full(lo.size, -1, dtype=np.int64)
    pair_edge[proper] = inverse.reshape(-1)

    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    mates = np.concatenate([edges[:, 1], edges[:, 0]])
    eids = np.tile(np.arange(len(edges), dtype=np.int64), 2)
    srt = np.argsort(ends, kind="stable")
    q_offsets = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=endpoints.size))])
    return QueryGraph(
        endpoints=endpoints,
        edges=edges,
        pair_edge=pair_edge,
        q_offsets=q_offsets,
        q_neighbors=mates[srt],
        q_edges=eids[srt],
    )


@dataclass
class BatchAnswer:
    """Per-pair distances (aligned with the input pairs) plus counters."""

    distances: np.ndarray
    runs: int
    steps: int
    relaxations: int
    settled_copies: int
    cover: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


def _fan_out(qg: QueryGraph, edge_dist: np.ndarray) -> np.ndarray:
    out = np.zeros(qg.n_pairs)
    has_edge = qg.pair_edge >= 0
    out[has_edge] = edge_dist[qg.pair_edge[has_edge]]
    return out


def _radius(qg: QueryGraph, edge_best: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """Per endpoint, the largest answer over its open edges; -inf without any."""
    radius = np.full(qg.order, -INF)
    np.maximum.at(radius, qg.edges.ravel(), np.repeat(np.where(closed, -INF, edge_best), 2))
    return radius


class MultiBidsSearch(Search):
    """Joint search over all endpoints with per-endpoint pruning radii.

    Copy i explores from endpoint q_i.  When copy i of vertex v improves,
    every incident query edge (i, j) is offered the candidate sum
    dist(v, i) + dist(v, j).  An endpoint's radius is the largest pending
    answer over its open edges (+inf while one of them has none) and its
    copies are pruned at half of it; it is recomputed whenever an edge
    improves.  An endpoint with no open edge (it only appears in
    self-pairs, or all its pairs are disconnected) has radius -inf, so
    none of its copies is ever extracted.

    An unanswered edge (i, j) whose copy i has nothing pending is closed:
    with radius +inf, copy i explored its whole component unpruned and
    never reached q_j, so the pair is disconnected.  Its answer stays
    +inf and it no longer holds either radius open.
    """

    def __init__(self, graph: CsrGraph, qg: QueryGraph):
        if not graph.symmetric:
            raise ValueError("the joint bidirectional search needs a symmetrized graph")
        super().__init__(graph, copies=qg.order)
        self.qg = qg
        self.edge_best = np.full(len(qg.edges), INF)
        self.closed = np.zeros(len(qg.edges), dtype=bool)
        self.radius = _radius(qg, self.edge_best, self.closed)

    def seeds(self):
        c = self.copies
        cells = self.qg.endpoints * c + np.arange(c, dtype=np.int64)
        return cells, np.zeros(c)

    def prune(self, cells):
        idx = cells % self.copies
        return self.dist[cells] >= 0.5 * self.radius[idx]

    def on_improved(self, cells):
        qg, c = self.qg, self.copies
        verts = cells // c
        slots, deg = _arc_ranges(qg.q_offsets, cells - verts * c)
        mates = qg.q_neighbors[slots]
        own = np.repeat(self.dist[cells], deg)
        sums = own + self.dist[np.repeat(verts, deg) * c + mates]
        if not _scatter_min(self.edge_best, qg.q_edges[slots], sums).size:
            return False
        return self._update_radius()

    def early_out(self, frontier):
        unanswered = (self.edge_best == INF) & ~self.closed
        if not unanswered.any():
            return False
        dry = np.bincount(frontier.pending % self.copies, minlength=self.copies) == 0
        cut = unanswered & dry[self.qg.edges].any(axis=1)
        if cut.any():
            self.closed |= cut
            if self._update_radius():
                frontier.discard(self.prune)
        return False

    def _update_radius(self) -> bool:
        """Recompute the radii; True iff one fell."""
        radius = _radius(self.qg, self.edge_best, self.closed)
        tighter = bool(np.any(radius < self.radius))
        self.radius = radius
        return tighter


def multi_bids(
    graph: CsrGraph,
    qg: QueryGraph,
    policy: StepPolicy | None = None,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> BatchAnswer:
    """Answer the whole batch with one joint pruned search."""
    _validate_batch(graph, qg)
    cells = qg.order * graph.n
    if cells > cell_cap:
        raise BatchTooLarge(
            f"joint search needs {cells} cells > cap {cell_cap}; "
            "split the batch into smaller query sets"
        )
    if len(qg.edges) == 0:
        return BatchAnswer(np.zeros(qg.n_pairs), 0, 0, 0, 0)
    search = MultiBidsSearch(graph, qg)
    stats = run_search(graph, search, policy=policy)
    return BatchAnswer(
        _fan_out(qg, search.edge_best),
        1,
        stats.steps,
        stats.relaxations,
        stats.settled_copies,
        extras={"edge_distances": search.edge_best.copy(), "radius": search.radius.copy()},
    )


def exact_vertex_cover(qg: QueryGraph) -> np.ndarray:
    """Minimum vertex cover of the query edges by exhaustive enumeration.

    Ties on size resolve to the lexicographically smallest index set.
    Guarded to query graphs of at most EXACT_COVER_LIMIT endpoints;
    larger ones use the greedy cover.
    """
    if qg.order > EXACT_COVER_LIMIT:
        raise ValueError(f"exact cover is limited to {EXACT_COVER_LIMIT} endpoints, got {qg.order}")
    if len(qg.edges) == 0:
        return np.empty(0, dtype=np.int64)
    full = (1 << len(qg.edges)) - 1
    incident_bits = [0] * qg.order
    for k, (a, b) in enumerate(qg.edges):
        incident_bits[int(a)] |= 1 << k
        incident_bits[int(b)] |= 1 << k
    for size in range(1, qg.order + 1):
        for combo in itertools.combinations(range(qg.order), size):
            covered = 0
            for v in combo:
                covered |= incident_bits[v]
            if covered == full:
                return np.asarray(combo, dtype=np.int64)
    raise AssertionError("unreachable: the full vertex set always covers")


def greedy_vertex_cover(qg: QueryGraph) -> np.ndarray:
    """Cover the query edges by repeatedly taking a max-degree endpoint.

    Ties resolve to the smallest index.  Always a valid cover, not
    necessarily minimum.
    """
    uncovered = np.ones(len(qg.edges), dtype=bool)
    cover = []
    while uncovered.any():
        pick = int(np.bincount(qg.edges[uncovered].ravel(), minlength=qg.order).argmax())
        cover.append(pick)
        uncovered &= (qg.edges != pick).all(axis=1)
    return np.asarray(sorted(cover), dtype=np.int64)


def vc_sssp_batch(
    graph: CsrGraph,
    qg: QueryGraph,
    policy: StepPolicy | None = None,
) -> BatchAnswer:
    """Answer the batch from one full SSSP per cover endpoint.

    The cover is exact for up to EXACT_COVER_LIMIT endpoints and greedy
    beyond.  An edge with both endpoints covered is answered from the
    smaller index.
    """
    _validate_batch(graph, qg)
    if len(qg.edges) == 0:
        return BatchAnswer(np.zeros(qg.n_pairs), 0, 0, 0, 0, cover=np.empty(0, np.int64))
    cover = exact_vertex_cover(qg) if qg.order <= EXACT_COVER_LIMIT else greedy_vertex_cover(qg)
    return _cover_sssp(graph, qg, cover, policy)


def _cover_sssp(graph: CsrGraph, qg: QueryGraph, cover: np.ndarray, policy: StepPolicy | None) -> BatchAnswer:
    """One full SSSP per cover index; each edge is read from the row of its
    smaller covered endpoint index (its anchor)."""
    a, b = qg.edges[:, 0], qg.edges[:, 1]
    in_cover = np.zeros(qg.order, dtype=bool)
    in_cover[cover] = True
    anchor = np.where(in_cover[a], a, b)
    other = qg.endpoints[np.where(in_cover[a], b, a)]
    edge_dist = np.empty(len(qg.edges))
    steps = relax = settled = 0
    for k in cover:
        dist, stats = sssp(graph, int(qg.endpoints[k]), policy=policy, return_stats=True)
        mine = anchor == k
        edge_dist[mine] = dist[other[mine]]
        del dist  # one row alive at a time
        steps += stats.steps
        relax += stats.relaxations
        settled += stats.settled_copies
    return BatchAnswer(_fan_out(qg, edge_dist), len(cover), steps, relax, settled, cover=cover)


def baseline_batch(
    graph: CsrGraph,
    qg: QueryGraph,
    mode: str = "plain-bids",
    policy: StepPolicy | None = None,
) -> BatchAnswer:
    """Per-edge baselines: one bidirectional search per edge, or one SSSP
    per oriented source (each edge is oriented from its smaller endpoint
    index)."""
    _validate_batch(graph, qg)
    if mode not in ("plain-bids", "plain-sssp"):
        raise ValueError(f"unknown baseline mode {mode!r}")
    if len(qg.edges) == 0:
        return BatchAnswer(np.zeros(qg.n_pairs), 0, 0, 0, 0)
    if mode == "plain-sssp":
        # covering every edge's smaller endpoint makes each edge read that row
        return _cover_sssp(graph, qg, np.unique(qg.edges[:, 0]), policy)
    edge_dist = np.empty(len(qg.edges))
    steps = relax = settled = 0
    for e, (a, b) in enumerate(qg.edges):
        ans = ppsp(graph, int(qg.endpoints[a]), int(qg.endpoints[b]), "bids", policy=policy)
        edge_dist[e] = ans.distance
        steps += ans.steps
        relax += ans.relaxations
        settled += ans.settled_copies
    return BatchAnswer(_fan_out(qg, edge_dist), len(qg.edges), steps, relax, settled)


def _run_batch(graph: CsrGraph, qg: QueryGraph, algo: str, policy: StepPolicy | None) -> BatchAnswer:
    """Answer ``qg`` with the batch algorithm named ``algo`` (one of BATCH_ALGOS)."""
    if algo == "multi":
        return multi_bids(graph, qg, policy=policy)
    if algo == "vc":
        return vc_sssp_batch(graph, qg, policy=policy)
    return baseline_batch(graph, qg, algo, policy=policy)


def _validate_batch(graph: CsrGraph, qg: QueryGraph) -> None:
    if qg.endpoints.size and (qg.endpoints.min() < 0 or qg.endpoints.max() >= graph.n):
        raise ValueError("query endpoint out of range for this graph")
