"""Batch point-to-point queries over a query graph.

A batch of (s, t) pairs is deduplicated into a query graph, held as its
edge list: its vertices are the distinct endpoints, its edges the
distinct pairs, and it checks its arrays when it is made.  Three exact
ways to answer it are provided; each first checks that its endpoints
lie in the graph, and answers one without edges with zeros and no run:

* :func:`multi_bids` runs one joint search with a copy per endpoint and a
  per-endpoint pruning radius of half its largest pending answer.
* :func:`vc_sssp_batch` covers the query edges with endpoint vertices and
  answers from one full SSSP per cover vertex.
* :func:`baseline_batch` answers each edge independently (one
  bidirectional search per edge, or one SSSP per oriented source).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .engine import INF, Search, SearchStats, StepPolicy, _gather_rows, _scatter_min, run_search, sssp
from .graph import CsrGraph, largest_component
from .io import as_pairs
from .ppsp import ppsp

BATCH_ALGOS = ("multi", "vc", "plain-bids", "plain-sssp")

# a cell costs 14 B in a joint search (8 B distance, 4 B int32 scatter-min
# stamp, 1 B frontier mask, 1 B settled mask), so the default cap comes to
# 3.5 GiB;
# the meeting filter adds 5 B per vertex, whatever the number of copies.
# All of it stays pooled on the graph object for the next search there
DEFAULT_CELL_CAP = 2**28
# largest query graph (in endpoints) whose vertex cover is found exactly
EXACT_COVER_LIMIT = 20


class BatchTooLarge(ValueError):
    """The joint search would allocate more than DEFAULT_CELL_CAP cells."""


@dataclass(frozen=True)
class QueryGraph:
    """Deduplicated batch as three int64 arrays, checked against the rules
    below whenever one is made (``dataclasses.replace`` too): a breach
    raises ``ValueError("query graph: ...")``.  Every batch algorithm, and
    :class:`MultiBidsSearch`, also refuses an endpoint past ``graph.n``."""

    endpoints: np.ndarray  # vertex ids, nonnegative and rising strictly
    edges: np.ndarray  # (E, 2) endpoint-index pairs (i, j), 0 <= i < j < order
    pair_edge: np.ndarray  # per input pair: edge index in -1..E-1, -1 for s == t

    def __post_init__(self):
        ends, edges, pair_edge = self.endpoints, self.edges, self.pair_edge
        # int64, as build_query_graph makes them: cell ids v * copies + i stay exact
        if not all(isinstance(a, np.ndarray) and a.dtype == np.int64 for a in (ends, edges, pair_edge)):
            raise ValueError("query graph: endpoints, edges and pair_edge must be int64 arrays")
        if ends.ndim != 1 or np.any(ends[1:] <= ends[:-1]) or np.any(ends[:1] < 0):
            raise ValueError("query graph: endpoints must be nonnegative and rise strictly")
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"query graph: edges must form an (E, 2) array, got shape {edges.shape}")
        i, j = edges.T
        if np.any((i < 0) | (i >= j) | (j >= ends.size)):
            raise ValueError(f"query graph: every edge (i, j) needs 0 <= i < j < {ends.size}")
        if pair_edge.ndim != 1 or np.any((pair_edge < -1) | (pair_edge >= len(edges))):
            raise ValueError(f"query graph: pair_edge must lie within -1..{len(edges) - 1}")

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
    the vertex set.  The edges are distinct and sorted.  In
    :class:`MultiBidsSearch` an endpoint's radius is its largest edge
    answer, -inf with no edge: a self-pair alone is never searched.
    """
    pairs = as_pairs(pairs)
    endpoints = np.unique(pairs)
    idx = np.searchsorted(endpoints, pairs)
    lo, hi = idx.min(axis=1), idx.max(axis=1)
    proper = lo < hi
    edges, inverse = np.unique(np.column_stack([lo, hi])[proper], axis=0, return_inverse=True)
    pair_edge = np.full(lo.size, -1, dtype=np.int64)
    pair_edge[proper] = inverse.reshape(-1)
    qg = QueryGraph(endpoints, edges, pair_edge)  # refuses a negative id
    if n_vertices is not None:
        _check_endpoints(qg, n_vertices)
    return qg


def _check_endpoints(qg: QueryGraph, n: int) -> None:
    """Refuse, with ValueError, an endpoint past ``n`` vertices (the last is the largest)."""
    if qg.order and qg.endpoints[-1] >= n:
        raise ValueError(f"query graph: endpoint {qg.endpoints[-1]} out of range for {n} vertices")


@dataclass(kw_only=True)
class BatchAnswer(SearchStats):
    """Per-pair distances (aligned with the input pairs), the number of
    engine runs and, for the cover algorithms, the cover; built by
    keyword, with the :class:`~steppath.engine.SearchStats` counters
    summed over the runs."""

    distances: np.ndarray
    runs: int
    cover: np.ndarray | None = None


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
    dist(v, i) + dist(v, j), once a second copy has reached v (before
    that, every such sum is +inf).  An endpoint's radius is the largest
    pending answer over its open edges (+inf while one of them has none)
    and its copies are pruned at half of it; it is recomputed whenever
    an edge improves.  An endpoint with no open edge (it only appears in
    self-pairs, or all its pairs are disconnected) has radius -inf, so
    none of its copies is ever extracted.

    An edge whose endpoints lie in two components (the graph's cached
    labels, :func:`~steppath.graph.largest_component`) is closed from
    the start: its answer stays +inf, it holds neither radius open, and
    it adds no work.  The graph must be symmetric (:func:`multi_bids`
    checks it); the endpoints are checked here.
    """

    def __init__(self, graph: CsrGraph, qg: QueryGraph):
        _check_endpoints(qg, graph.n)
        super().__init__(graph, copies=qg.order)
        self.qg = qg
        self.edge_best = np.full(len(qg.edges), INF)
        labels = largest_component(graph).labels[qg.endpoints]
        self.closed = labels[qg.edges[:, 0]] != labels[qg.edges[:, 1]]
        self.radius = _radius(qg, self.edge_best, self.closed)
        self._stamp = np.empty(len(qg.edges), dtype=np.int32)  # for _scatter_min
        # ends holds every edge's i, then every j: entry k's mate is k - E (mod 2E)
        e = len(qg.edges)
        ends = qg.edges.T.ravel()
        order = np.argsort(ends, kind="stable")
        offsets = np.zeros(qg.order + 1, dtype=np.int64)
        self._q_lengths = np.bincount(ends, minlength=qg.order)  # each endpoint's edges
        np.cumsum(self._q_lengths, out=offsets[1:])
        self._q_rows = (offsets, ends[order - e], order % e)
        # per vertex: a copy known finite there (-1: none yet), and whether
        # two copies are; only then can a meeting sum there be finite
        self._owner = self._take("owner", graph.n, -1, np.int32)
        self._shared = self._take("shared", graph.n, False, bool)

    def seeds(self):
        c = self.copies
        own = np.arange(c, dtype=np.int64)
        self._owner[self.qg.endpoints] = own
        return self.qg.endpoints * c + own, np.zeros(c)

    def prune(self, cells):
        c = self.copies
        idx = cells - cells // c * c  # cells % c, which costs several times as much
        return self.dist[cells] >= 0.5 * self.radius[idx]

    def on_improved(self, cells):
        c = self.copies
        verts = cells // c
        endpoint = cells - verts * c
        # a vertex is shared once its owner is another copy, or another
        # cell of this call wrote a different copy there
        owner = self._owner[verts]
        self._owner[verts] = endpoint
        met = (owner != endpoint) & (owner >= 0)
        met |= self._owner[verts] != endpoint
        self._shared[verts[met]] = True
        # elsewhere no other copy is finite, so every sum would be inf
        keep = self._shared[verts]
        cells, verts, endpoint = cells[keep], verts[keep], endpoint[keep]
        neighbors, edges, deg = _gather_rows(self._q_rows, endpoint, self._q_lengths)
        mates = (verts * c).repeat(deg)
        mates += neighbors
        sums = self.dist[cells].repeat(deg)
        sums += self.dist[mates]
        if not _scatter_min(self.edge_best, edges, sums, self._stamp).size:
            return False
        return self._update_radius()

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
) -> BatchAnswer:
    """Answer the whole batch with one joint pruned search."""
    _validate_batch(graph, qg)
    if len(qg.edges) == 0:  # nothing to search, whatever the cell cap
        return BatchAnswer(distances=np.zeros(qg.n_pairs), runs=0)
    cells = qg.order * graph.n
    if cells > DEFAULT_CELL_CAP:
        raise BatchTooLarge(
            f"joint search needs {cells} cells > cap {DEFAULT_CELL_CAP}; "
            "split the batch into smaller query sets"
        )
    search = MultiBidsSearch(graph, qg)
    stats = run_search(graph, search, policy=policy)
    distances = _fan_out(qg, search.edge_best)
    search._release()  # the answer is read: the arrays go back to the pool
    return BatchAnswer(distances=distances, runs=1, **vars(stats))


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
    work = SearchStats()
    for k in cover:
        dist, stats = sssp(graph, int(qg.endpoints[k]), policy=policy, return_stats=True)
        mine = anchor == k
        edge_dist[mine] = dist[other[mine]]
        del dist  # one row alive at a time
        work += stats
    return BatchAnswer(distances=_fan_out(qg, edge_dist), runs=len(cover), cover=cover, **vars(work))


def baseline_batch(
    graph: CsrGraph,
    qg: QueryGraph,
    mode: str = "plain-bids",
    policy: StepPolicy | None = None,
) -> BatchAnswer:
    """Per-edge baselines: one bidirectional search per edge, or one SSSP
    per oriented source (each edge is oriented from its smaller endpoint
    index)."""
    if mode not in ("plain-bids", "plain-sssp"):
        raise ValueError(f"unknown baseline mode {mode!r}")
    _validate_batch(graph, qg)
    if mode == "plain-sssp":
        # covering every edge's smaller endpoint makes each edge read that row
        return _cover_sssp(graph, qg, np.unique(qg.edges[:, 0]), policy)
    edge_dist = np.empty(len(qg.edges))
    work = SearchStats()
    for e, (a, b) in enumerate(qg.edges):
        ans = ppsp(graph, int(qg.endpoints[a]), int(qg.endpoints[b]), "bids", policy=policy)
        edge_dist[e] = ans.distance
        work += ans
    return BatchAnswer(distances=_fan_out(qg, edge_dist), runs=len(qg.edges), **vars(work))


def _run_batch(graph: CsrGraph, qg: QueryGraph, algo: str, policy: StepPolicy | None) -> BatchAnswer:
    """Answer ``qg`` with the batch algorithm named ``algo`` (one of BATCH_ALGOS)."""
    if algo == "multi":
        return multi_bids(graph, qg, policy=policy)
    if algo == "vc":
        return vc_sssp_batch(graph, qg, policy=policy)
    return baseline_batch(graph, qg, algo, policy=policy)


def _validate_batch(graph: CsrGraph, qg: QueryGraph) -> None:
    """Refuse, with ValueError, a batch the graph cannot answer."""
    # every algorithm reads dist(t -> s) as dist(s -> t), true only undirected
    if not graph.symmetric:
        raise ValueError("batch queries need a symmetrized graph")
    _check_endpoints(qg, graph.n)
