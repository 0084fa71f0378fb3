"""The three benchmark workloads: inputs, timed set-up, requests, references.

Each workload makes its raw inputs (points or random edges) from the seed,
outside any timed region.  ``setup`` is the timed part: it hands those
inputs to steppath to build the graph, round-trips it through the binary
format, labels its components and generates one share of the queries.  A
run sets up SETUPS times; set-up ``part`` draws its queries with its own
seeds, so the parts together give SETUPS times as many distinct queries as
one set-up makes.  ``requests`` turns a part's queries into requests on
that part's graph, which the runner sends right after that set-up.
``wrong`` checks the answers with scipy's Dijkstra on a
matrix built from the raw inputs, so the check shares no code with the
program.

Every call into steppath looks its function up on the module object at
call time, which is what lets the tracer swap in its wrappers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra
from scipy.spatial import cKDTree

SETUPS = 3  # set-ups per run; each makes one share of the queries

# p2p-geo: 6-nearest-neighbour graphs on uniform points in the unit square
GEO_GRAPHS = 4
GEO_N = 25_000
GEO_K = 6
GEO_PAIRS = 7  # per graph and set-up
GEO_PERCENTILE = 90
GEO_STRATEGIES = ("et", "bids", "astar", "bidastar")
GEO_REL_TOL = 1e-9  # float weights: the bound of acceptance criterion 2

# sssp-rand and batch-rand: the ROADMAP baseline random graph
RAND_N = 200_000
RAND_EDGE_FACTOR = 4
RAND_MAX_WEIGHT = 2**18
SSSP_SOURCES = 10  # per set-up
BATCH_SIZE = 8
BATCH_SEEDS = 5  # batches of each pattern per set-up
BATCH_ALGOS = ("multi", "plain-bids")


def mod(name: str):
    """A steppath submodule; ``steppath.ppsp`` itself names a function."""
    return sys.modules[f"steppath.{name}"]


@dataclass
class Request:
    kind: str
    call: Callable[[], object]


@dataclass
class Setup:
    sizes: dict  # graphs, n and m for the run record
    graph: object  # the graph, or the list of graphs, the queries run on
    queries: list  # this part's queries, as ``requests`` and ``wrong`` take them
    computed: dict  # per-layer numbers known without tracing, such as io.graph_bytes


def _round_trip(graph, workdir: Path):
    io = mod("io")
    path = workdir / "graph.bin"
    io.save_binary(graph, path)
    size = path.stat().st_size
    loaded = io.load_graph(path)
    path.unlink()
    return loaded, size


def _undirected_matrix(n, u, v, w):
    """Upper-triangular scipy matrix of an undirected edge list, lightest of parallel edges.

    scipy reads it as undirected with ``directed=False``.
    """
    a, b = np.minimum(u, v), np.maximum(u, v)
    key = a * n + b
    order = np.lexsort((w, key))
    first = np.ones(order.size, dtype=bool)
    first[1:] = key[order][1:] != key[order][:-1]
    keep = order[first]
    return csr_matrix((w[keep], (a[keep], b[keep])), shape=(n, n))


def _rows(matrix, sources, chunk=8):
    """Yield (source, distance row) from scipy, a few rows at a time."""
    sources = np.asarray(sources, dtype=np.int64)
    for lo in range(0, sources.size, chunk):
        part = sources[lo : lo + chunk]
        rows = scipy_dijkstra(matrix, directed=False, indices=part)
        yield from zip(part.tolist(), rows)


def _sizes(graph) -> dict:
    return {"graphs": 1, "n": graph.n, "m": graph.m}


def _same_array(got, want) -> bool:
    return isinstance(got, np.ndarray) and np.array_equal(got, want)


class P2PGeo:
    """Single point-to-point queries at the 90th distance percentile.

    The default step width is max_weight/16, and the longest arc of a
    nearest-neighbour graph is an extreme value that moves the step count
    of every query by 10% or more from seed to seed; several graphs per run
    average it out.
    """

    name = "p2p-geo"

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = []
        for g in range(GEO_GRAPHS):
            rng = np.random.default_rng([seed, 0, g])
            points = rng.random((GEO_N, 2))
            dist, idx = cKDTree(points).query(points, k=GEO_K + 1)
            u = np.repeat(np.arange(GEO_N), GEO_K)
            v, w = idx[:, 1:].ravel(), dist[:, 1:].ravel()
            self.inputs.append((points, u, v, w, np.column_stack([u, v, w])))
        self.max_rel_err = {s: 0.0 for s in GEO_STRATEGIES}

    def setup(self, workdir: Path, part: int) -> Setup:
        graphs, queries, size, arcs = [], [], 0, []
        for g, (points, _, _, _, edges) in enumerate(self.inputs):
            graph = mod("graph").build_csr(GEO_N, edges, symmetrize=True)
            graph, nbytes = _round_trip(graph, workdir)
            graph = graph.with_coords(points, "euclidean")
            mod("graph").largest_component(graph)
            pairs = mod("workloads").percentile_pairs(
                graph, GEO_PAIRS, GEO_PERCENTILE, (self.seed * SETUPS + part) * GEO_GRAPHS + g
            )
            queries += [(g, s, t) for s, t in pairs.tolist()]
            graphs.append(graph)
            size += nbytes
            arcs.append(graph.m)
        sizes = {"graphs": GEO_GRAPHS, "n": GEO_N, "m": arcs}
        return Setup(sizes, graphs, queries, {"io.graph_bytes": size})

    def requests(self, setup: Setup, queries: list) -> list[Request]:
        """Every pair with every strategy, interleaved per pair."""
        return [
            Request(strategy, self._query(setup.graph[g], s, t, strategy))
            for g, s, t in queries
            for strategy in GEO_STRATEGIES
        ]

    @staticmethod
    def _query(graph, s, t, strategy):
        return lambda: mod("ppsp").ppsp(graph, s, t, strategy).distance

    def wrong(self, queries: list, answers: list) -> set[int]:
        rows = {}
        for g, (_, u, v, w, _) in enumerate(self.inputs):
            sources = sorted({s for h, s, _ in queries if h == g})
            matrix = _undirected_matrix(GEO_N, u, v, w)
            rows.update({(g, s): row for s, row in _rows(matrix, sources)})
        bad = set()
        for i, got in enumerate(answers):
            g, s, t = queries[i // len(GEO_STRATEGIES)]
            strategy = GEO_STRATEGIES[i % len(GEO_STRATEGIES)]
            want = rows[(g, s)][t]
            if not isinstance(got, float) or not np.isfinite(want):
                bad.add(i)
                continue
            rel = abs(got - want) / want
            self.max_rel_err[strategy] = max(self.max_rel_err[strategy], rel)
            if rel > GEO_REL_TOL:
                bad.add(i)
        return bad

    def notes(self) -> dict:
        return {"max_rel_err": self.max_rel_err}


class _RandomGraph:
    """Symmetric uniform random multigraph with integer weights 1..2^18."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        m = RAND_N * RAND_EDGE_FACTOR
        u = rng.integers(0, RAND_N, m)
        v = rng.integers(0, RAND_N, m)
        w = rng.integers(1, RAND_MAX_WEIGHT + 1, m).astype(np.float64)
        keep = u != v
        self.u, self.v, self.w = u[keep], v[keep], w[keep]
        self.edges = np.column_stack([self.u, self.v, self.w])
        self.seed = seed

    def _graph(self, workdir: Path):
        graph = mod("graph").build_csr(RAND_N, self.edges, symmetrize=True)
        graph, size = _round_trip(graph, workdir)
        info = mod("graph").largest_component(graph)
        return graph, size, info

    def _matrix(self):
        return _undirected_matrix(RAND_N, self.u, self.v, self.w)

    def notes(self) -> dict:
        return {}


class SsspRand(_RandomGraph):
    """Full single-source shortest paths from sources in the largest component."""

    name = "sssp-rand"

    def setup(self, workdir: Path, part: int) -> Setup:
        graph, size, info = self._graph(workdir)
        rng = np.random.default_rng([self.seed, 1, part])
        sources = rng.choice(info.members(info.largest), size=SSSP_SOURCES, replace=False)
        return Setup(_sizes(graph), graph, sources.tolist(), {"io.graph_bytes": size})

    def requests(self, setup: Setup, queries: list) -> list[Request]:
        return [Request("sssp", self._query(setup.graph, s)) for s in queries]

    @staticmethod
    def _query(graph, s):
        return lambda: mod("engine").sssp(graph, s)

    def wrong(self, queries: list, answers: list) -> set[int]:
        rows = _rows(self._matrix(), queries)
        return {i for i, ((_, want), got) in enumerate(zip(rows, answers)) if not _same_array(got, want)}


class BatchRand(_RandomGraph):
    """Every batch pattern at size 8, answered by ``multi`` and ``plain-bids``."""

    name = "batch-rand"

    def setup(self, workdir: Path, part: int) -> Setup:
        graph, size, _ = self._graph(workdir)
        workloads, batch = mod("workloads"), mod("batch")
        # one seed per batch: pattern_pairs samples its vertices from the
        # seed alone, so one seed shared by all patterns would give all seven
        # the same vertices, and a far vertex would slow all seven at once
        patterns = workloads.PATTERNS
        first = (self.seed * SETUPS + part) * BATCH_SEEDS * len(patterns)
        batches = [
            workloads.pattern_pairs(graph, pattern, BATCH_SIZE, first + k * len(patterns) + j)
            for k in range(BATCH_SEEDS)
            for j, pattern in enumerate(patterns)
        ]
        queries = [(pairs, batch.build_query_graph(pairs, graph.n)) for pairs in batches]
        cells = max(qg.order * graph.n for _, qg in queries)
        return Setup(_sizes(graph), graph, queries, {"io.graph_bytes": size, "batch.cells": cells})

    def requests(self, setup: Setup, queries: list) -> list[Request]:
        """Each batch answered by ``multi``, then by ``plain-bids``."""
        requests = []
        for _, qg in queries:
            requests.append(Request("multi", self._multi(setup.graph, qg)))
            requests.append(Request("plain-bids", self._plain(setup.graph, qg)))
        return requests

    @staticmethod
    def _multi(graph, qg):
        return lambda: mod("batch").multi_bids(graph, qg).distances

    @staticmethod
    def _plain(graph, qg):
        return lambda: mod("batch").baseline_batch(graph, qg, "plain-bids").distances

    def wrong(self, queries: list, answers: list) -> set[int]:
        """Check each distinct (pair, answer) with a two-ball certificate.

        Full scipy rows for every endpoint would take longer than the run.
        For a claimed distance d of (s, t), scipy's Dijkstra runs from s and
        from t only up to radius r = d/2 + 1.  Every shortest path has an
        arc (or vertex) joining the two balls once r >= d*/2, so the least
        ds(x) + w(x, y) + dt(y) over arcs leaving the s-ball, and ds(v) + dt(v)
        over vertices, equals the true distance d* when d >= d*.  Every such
        sum is the length of a real path, so it is >= d* always; the least
        one equals d exactly when d == d* (integer weights add exactly).
        """
        matrix = self._matrix()
        both = (matrix + matrix.T).tocsr()  # symmetric, so directed search needs no transpose
        verdict: dict[tuple[int, int, float], bool] = {}
        bad = set()
        for i, got in enumerate(answers):
            pairs = queries[i // len(BATCH_ALGOS)][0]
            if not isinstance(got, np.ndarray) or got.shape != (len(pairs),):
                bad.add(i)
                continue
            for (s, t), d in zip(pairs.tolist(), got.tolist()):
                key = (min(s, t), max(s, t), d)
                if key not in verdict:
                    verdict[key] = _certified(both, s, t, d)
                if not verdict[key]:
                    bad.add(i)
        return bad


def _certified(both, s: int, t: int, d: float) -> bool:
    if not np.isfinite(d) or d < 0:
        return False
    ds, dt = scipy_dijkstra(both, directed=True, indices=[s, t], limit=d / 2 + 1)
    ball = np.flatnonzero(np.isfinite(ds))
    arcs = both[ball].tocoo()
    best = min(
        float((ds + dt).min()),
        float((ds[ball[arcs.row]] + arcs.data + dt[arcs.col]).min(initial=np.inf)),
    )
    return best == d


CASES = {case.name: case for case in (P2PGeo, SsspRand, BatchRand)}
