import math

import numpy as np
import pytest

import steppath as sp
from helpers import g1, geometric_graph


def test_euclidean_345():
    coords = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0], [4.0, 5.0]])
    h = sp.euclidean_heuristic(coords, 1)
    assert h(np.array([0]))[0] == 5.0
    assert h(np.array([1]))[0] == 0.0
    h2 = sp.euclidean_heuristic(coords, 3)
    assert h2(np.array([2]))[0] == 5.0


def test_spherical_anchor_is_zero():
    coords = np.array([[12.5, -30.0], [0.0, 0.0]])
    h = sp.spherical_heuristic(coords, 0)
    assert h(np.array([0]))[0] == 0.0


def test_spherical_quarter_and_half_circle():
    coords = np.array([[0.0, 0.0], [0.0, 90.0], [0.0, 180.0]])
    h = sp.spherical_heuristic(coords, 0, radius=6371.0088)
    quarter, half = h(np.array([1, 2]))
    assert abs(quarter - math.pi * 6371.0088 / 2) < 1e-3
    assert abs(half - math.pi * 6371.0088) < 1e-3


def test_spherical_validation():
    with pytest.raises(ValueError):
        sp.spherical_heuristic(np.array([[91.0, 0.0]]), 0)
    with pytest.raises(ValueError):
        sp.spherical_heuristic(np.array([[0.0, 181.0]]), 0)
    with pytest.raises(ValueError):
        sp.spherical_heuristic(np.array([[0.0, 0.0]]), 0, radius=0.0)


def test_zero_heuristic():
    h = sp.zero_heuristic()
    assert np.array_equal(h(np.arange(5)), np.zeros(5))


def test_heuristic_for_graph_dispatch():
    g = geometric_graph(20, 3, 0)
    h = sp.heuristic_for_graph(g, 4)
    assert h(np.array([4]))[0] == 0.0
    bare = sp.build_csr(2, [(0, 1, 1.0)], symmetrize=True)
    with pytest.raises(ValueError):
        sp.heuristic_for_graph(bare, 0)


def test_bidirectional_pair_values():
    at_source = lambda v: np.full(np.shape(v), 4.0)
    at_target = lambda v: np.full(np.shape(v), 10.0)
    fwd, bwd = sp.make_bidirectional_heuristics(at_source, at_target)
    v = np.array([0])
    assert fwd(v)[0] == 3.0
    assert bwd(v)[0] == -3.0


def test_bidirectional_pair_sums_to_zero():
    rng = np.random.default_rng(3)
    a = rng.random(50)
    b = rng.random(50)
    fwd, bwd = sp.make_bidirectional_heuristics(lambda v: a[v], lambda v: b[v])
    v = np.arange(50)
    assert np.allclose(fwd(v) + bwd(v), 0.0, atol=0)


def test_bidirectional_at_source():
    # a zero source estimate and a target estimate of D put the forward
    # estimate at D/2
    fwd, _ = sp.make_bidirectional_heuristics(
        lambda v: np.zeros(np.shape(v)), lambda v: np.full(np.shape(v), 8.0)
    )
    assert fwd(np.array([0]))[0] == 4.0


def test_memo_computes_once():
    calls = []

    def h(v):
        calls.append(np.array(v, copy=True))
        return v.astype(np.float64) * 2

    memo = sp.MemoTable(10, h)
    assert memo.get_many(np.array([3])).tolist() == [6.0]
    assert memo.get_many(np.array([3])).tolist() == [6.0]
    assert memo.computations == 1
    assert memo.requests == 2
    got = memo.get_many(np.array([3, 4, 4, 5]))
    assert got.tolist() == [6.0, 8.0, 8.0, 10.0]
    assert memo.computations == 3
    seen = np.concatenate(calls)
    assert len(seen) == len(np.unique(seen))


def test_memo_disabled_recomputes():
    memo = sp.MemoTable(4, lambda v: v.astype(np.float64), enabled=False)
    memo.get_many(np.array([1]))
    memo.get_many(np.array([1]))
    assert memo.computations == 2


def test_consistency_of_geometric_heuristic():
    g = geometric_graph(150, 4, 2)
    h = sp.heuristic_for_graph(g, 7)
    assert sp.consistency_violation(g, h(np.arange(g.n))) <= 1e-9
    sp.check_consistent(g, h)


def test_inconsistent_heuristic_detected():
    g = g1()
    bogus = np.array([100.0, 0.0, 0.0, 0.0])
    assert sp.consistency_violation(g, bogus) > 1.0
    with pytest.raises(ValueError):
        sp.check_consistent(g, lambda v: bogus[v])


def test_induced_weights_nonnegative_and_mirrored():
    g = geometric_graph(120, 4, 9)
    h = sp.heuristic_for_graph(g, 11)
    fwd, bwd = sp.induced_arc_weights(g, h(np.arange(g.n)))
    assert fwd.min() >= 0 and bwd.min() >= 0
    # the backward weight of an arc equals the forward weight of its mirror
    src = g.arc_sources()
    order = {}
    for a, (u, v) in enumerate(zip(src.tolist(), g.targets.tolist())):
        order.setdefault((u, v), []).append(a)
    for (u, v), arcs in order.items():
        mirrors = order[(v, u)]
        for a, b in zip(arcs, mirrors):
            assert abs(bwd[a] - fwd[b]) < 1e-12


def test_induced_weights_reject_wild_potential():
    g = g1()
    with pytest.raises(ValueError):
        sp.induced_arc_weights(g, np.array([50.0, 0.0, 0.0, 0.0]))
