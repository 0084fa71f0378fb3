"""Shared graph builders and reference computations for the tests.

Everything here is deliberately independent of the engine under test:
distances come from array-sweep Bellman-Ford, a binary-heap Dijkstra or
plain BFS, reachability from an explicit stack walk.
"""

import heapq

import numpy as np
from scipy.spatial import cKDTree

from steppath import build_csr


def g1():
    """The 4-vertex worked example used throughout the tests."""
    return build_csr(4, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0), (2, 3, 1.0)], symmetrize=True)


def two_triangles():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
    return build_csr(6, edges, symmetrize=True)


def random_graph(n, edge_factor, seed, lo=1, hi=2**18):
    """Random symmetrized multigraph with integer-valued weights."""
    rng = np.random.default_rng(seed)
    m = max(1, int(round(edge_factor * n)))
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    w = rng.integers(lo, hi + 1, m).astype(np.float64)
    keep = u != v
    if not np.any(keep) and n > 1:
        u, v, w = np.array([0]), np.array([n - 1]), np.array([float(rng.integers(lo, hi + 1))])
        keep = np.array([True])
    edges = np.column_stack([u[keep], v[keep], w[keep]])
    return build_csr(n, edges, symmetrize=True)


def geometric_graph(n, k, seed):
    """k-nearest-neighbor graph over uniform points; weights are lengths."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dist, idx = cKDTree(pts).query(pts, k=k + 1)
    rows = np.repeat(np.arange(n), k)
    edges = np.column_stack([rows, idx[:, 1:].ravel(), dist[:, 1:].ravel()])
    return build_csr(n, edges, symmetrize=True).with_coords(pts, "euclidean")


def latlon_graph(n, k, seed, radius):
    """k-nearest-neighbor graph over points on a sphere of ``radius``.

    Coordinates are (latitude, longitude) in degrees; an arc weighs its
    great-circle length, found from the chord, in the units of ``radius``.
    """
    rng = np.random.default_rng(seed)
    lat = np.degrees(np.arcsin(rng.uniform(-0.9, 0.9, n)))
    lon = rng.uniform(-180.0, 180.0, n)
    phi, lam = np.radians(lat), np.radians(lon)
    xyz = np.column_stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)])
    chord, idx = cKDTree(xyz).query(xyz, k=k + 1)
    rows = np.repeat(np.arange(n), k)
    weights = 2.0 * radius * np.arcsin(np.minimum(chord[:, 1:].ravel() / 2.0, 1.0))
    edges = np.column_stack([rows, idx[:, 1:].ravel(), weights])
    return build_csr(n, edges, symmetrize=True).with_coords(np.column_stack([lat, lon]), "spherical")


def grid_graph(side, weight=1.0):
    """side x side 4-neighbor grid with constant weights."""
    ids = np.arange(side * side).reshape(side, side)
    right = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    down = np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
    pairs = np.concatenate([right, down])
    edges = np.column_stack([pairs, np.full(len(pairs), float(weight))])
    return build_csr(side * side, edges, symmetrize=True)


def bellman_ford(graph, source):
    """Fixpoint sweep over all arcs; the slow-but-sure distance oracle."""
    dist = np.full(graph.n, np.inf)
    dist[source] = 0.0
    src = graph.arc_sources()
    for _ in range(graph.n + 1):
        relaxed = dist.copy()
        if graph.m:
            np.minimum.at(relaxed, graph.targets, dist[src] + graph.weights)
        if np.array_equal(relaxed, dist):
            return dist
        dist = relaxed
    raise AssertionError("no fixpoint within n sweeps; negative cycle?")


def heap_dijkstra(graph, source):
    """Classic binary-heap Dijkstra; stale heap entries are skipped."""
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


def bfs_hops(graph, source):
    """Hop counts by level-synchronous BFS; -1 marks unreachable."""
    hops = np.full(graph.n, -1, dtype=np.int64)
    hops[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        deg = graph.degrees[frontier]
        total = int(deg.sum())
        if total == 0:
            break
        starts = graph.offsets[frontier]
        shift = np.repeat(starts - np.concatenate(([0], np.cumsum(deg[:-1]))), deg)
        nbrs = graph.targets[shift + np.arange(total)]
        fresh = np.unique(nbrs[hops[nbrs] < 0])
        hops[fresh] = level
        frontier = fresh
    return hops


def reachable_mask(graph, source):
    """Reachability by an explicit stack walk (no numpy tricks)."""
    seen = np.zeros(graph.n, dtype=bool)
    seen[source] = True
    stack = [int(source)]
    while stack:
        u = stack.pop()
        for v in graph.targets[graph.offsets[u] : graph.offsets[u + 1]]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return seen


def random_pairs_same_component(graph, count, seed):
    """Sample (s, t) pairs with s != t from the largest component."""
    from steppath import largest_component

    info = largest_component(graph)
    members = np.flatnonzero(info.labels == info.largest)
    if members.size < 2:
        return np.empty((0, 2), dtype=np.int64)
    rng = np.random.default_rng(seed)
    s = members[rng.integers(0, members.size, count)]
    t = members[rng.integers(0, members.size, count)]
    bump = members[(np.searchsorted(members, t) + 1) % members.size]
    t = np.where(s == t, bump, t)
    return np.column_stack([s, t]).astype(np.int64)


def zero_heuristic():
    """The trivial (always consistent) heuristic."""

    def h(vertices):
        return np.zeros(np.shape(vertices), dtype=np.float64)

    return h


def watch_hook(search, hook, see):
    """Make ``see(cells)`` run right after each call of one ``Search`` hook.

    The hook is ``keys``, ``prune`` or ``on_improved``, and ``see`` is
    handed the cells the hook was.
    """
    inner = getattr(search, hook)

    def watched(cells):
        out = inner(cells)
        see(cells)
        return out

    setattr(search, hook, watched)
