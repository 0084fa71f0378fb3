import numpy as np
import pytest

import steppath as sp
import steppath.oracle
from helpers import g1, geometric_graph, grid_graph, random_graph, two_triangles


def _members_of_largest(g):
    info = sp.largest_component(g)
    return set(info.members(info.largest).tolist())


def test_star_shape():
    g = random_graph(100, 3, 2)
    pairs = sp.pattern_pairs(g, "star", 8, 11)
    assert pairs.shape == (7, 2)
    center = pairs[0, 0]
    assert (pairs[:, 0] == center).all()
    assert len(set(pairs[:, 1].tolist())) == 7
    assert center not in pairs[:, 1]


def test_chain_shape():
    g = random_graph(100, 3, 2)
    pairs = sp.pattern_pairs(g, "chain", 6, 11)
    assert pairs.shape == (5, 2)
    # consecutive pairs share a vertex, walking one path
    for k in range(4):
        assert pairs[k, 1] == pairs[k + 1, 0]
    seen = set(pairs[:, 0].tolist()) | set(pairs[:, 1].tolist())
    assert len(seen) == 6


def test_clique_shape():
    g = random_graph(100, 3, 2)
    pairs = sp.pattern_pairs(g, "clique", 5, 11)
    assert pairs.shape == (10, 2)
    canon = {tuple(sorted(p)) for p in pairs.tolist()}
    assert len(canon) == 10


def test_bipartite_shape():
    g = random_graph(100, 3, 2)
    pairs = sp.pattern_pairs(g, "bipartite", 7, 11)
    assert pairs.shape == (4 * 3, 2)
    left = set(pairs[:, 0].tolist())
    right = set(pairs[:, 1].tolist())
    assert len(left) == 4 and len(right) == 3
    assert not left & right


def test_fork_shape():
    g = random_graph(100, 3, 2)
    pairs = sp.pattern_pairs(g, "fork", 8, 11)
    # chain over 6 vertices (5 edges) plus two leaves at the middle
    assert pairs.shape == (7, 2)
    anchor = pairs[5, 0]
    assert pairs[6, 0] == anchor
    chain_part = pairs[:5]
    for k in range(4):
        assert chain_part[k, 1] == chain_part[k + 1, 0]
    assert anchor in chain_part[:, 0].tolist() + chain_part[:, 1].tolist()


def test_fork_minimum_size():
    g = random_graph(100, 3, 2)
    with pytest.raises(ValueError):
        sp.pattern_pairs(g, "fork", 3, 0)


def test_random_shape():
    g = random_graph(100, 3, 2)
    pairs = sp.pattern_pairs(g, "random", 9, 11)
    assert pairs.shape == (9, 2)
    assert (pairs[:, 0] != pairs[:, 1]).all()
    canon = {tuple(sorted(p)) for p in pairs.tolist()}
    assert len(canon) == 9


def test_separate_shape():
    g = random_graph(100, 3, 2)
    pairs = sp.pattern_pairs(g, "separate", 9, 11)
    assert pairs.shape == (4, 2)
    flat = pairs.ravel().tolist()
    assert len(set(flat)) == 8


def test_pattern_vertices_come_from_largest_component():
    g = two_triangles()
    for pattern in ("star", "chain", "clique", "random"):
        pairs = sp.pattern_pairs(g, pattern, 3, 5)
        members = _members_of_largest(g)
        assert set(pairs.ravel().tolist()) <= members


def test_pattern_seed_determinism():
    g = random_graph(120, 3, 7)
    for pattern in sp.PATTERNS:
        a = sp.pattern_pairs(g, pattern, 6, 42)
        b = sp.pattern_pairs(g, pattern, 6, 42)
        c = sp.pattern_pairs(g, pattern, 6, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_pattern_rejects_unknown_and_tiny():
    g = g1()
    with pytest.raises(ValueError):
        sp.pattern_pairs(g, "spiral", 4, 0)
    with pytest.raises(ValueError):
        sp.pattern_pairs(g, "star", 1, 0)


def test_pattern_component_too_small():
    g = two_triangles()
    with pytest.raises(ValueError):
        sp.pattern_pairs(g, "chain", 4, 0)


@pytest.mark.parametrize(
    "graph",
    [lambda: geometric_graph(300, 5, 4), lambda: random_graph(200, 2, 19), lambda: grid_graph(12)],
    ids=["geometric", "random", "grid"],
)
def test_percentile_pairs_pinned_to_engine_ranking(graph):
    # the targets the workload has always drawn: ranked on the engine's
    # distances, which the reference Dijkstra must give bit for bit
    g = graph()
    for p in (1, 50, 90, 100):
        pairs = sp.percentile_pairs(g, 10, p, seed=p)
        assert pairs.shape == (10, 2)
        for s, t in pairs.tolist():
            assert t == sp.percentile_target(g, s, p, distances=sp.sssp(g, s))


@pytest.mark.parametrize("p", [0, 150, float("nan")])
def test_percentile_pairs_bad_percentile_runs_no_dijkstra(monkeypatch, p):
    calls = []
    dijkstra = steppath.oracle.dijkstra
    monkeypatch.setattr(steppath.oracle, "dijkstra", lambda *a: calls.append(a) or dijkstra(*a))
    g = random_graph(80, 3, 19)
    with pytest.raises(ValueError, match="percentile"):
        sp.percentile_pairs(g, 5, p, seed=1)
    assert calls == []
    sp.percentile_pairs(g, 5, 50, seed=1)
    assert len(calls) == 5


def test_percentile_pairs_determinism_and_validation():
    g = random_graph(80, 3, 19)
    a = sp.percentile_pairs(g, 6, 90.0, seed=8)
    b = sp.percentile_pairs(g, 6, 90.0, seed=8)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sp.percentile_pairs(g, 0, 50.0, seed=8)


def test_percentile_pairs_sources_in_largest_component():
    g = two_triangles()
    pairs = sp.percentile_pairs(g, 5, 100.0, seed=2)
    members = _members_of_largest(g)
    assert set(pairs[:, 0].tolist()) <= members
    assert set(pairs[:, 1].tolist()) <= members
