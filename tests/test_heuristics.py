import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import steppath as sp
from steppath.heuristics import MemoTable
from helpers import g1, geometric_graph, zero_heuristic


def _placed(coords, kind, edges):
    coords = np.asarray(coords, dtype=np.float64)
    return sp.build_csr(len(coords), edges, symmetrize=True).with_coords(coords, kind)


def test_euclidean_345():
    # each arc weighs its length, so the scale is exactly 1
    g = _placed([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0], [4.0, 5.0]], "euclidean", [(0, 1, 5.0), (2, 3, 5.0)])
    assert g.coord_scale == 1.0
    h = sp.heuristic_for_graph(g, 1)
    assert h(np.array([0]))[0] == 5.0
    assert h(np.array([1]))[0] == 0.0
    h2 = sp.heuristic_for_graph(g, 3)
    assert h2(np.array([2]))[0] == 5.0


def test_euclidean_scale_follows_the_weights():
    # the arc of length 5 weighs 2.5: every estimate is halved
    g = _placed([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]], "euclidean", [(0, 1, 2.5), (1, 2, 10.0)])
    assert g.coord_scale == 0.5
    assert sp.heuristic_for_graph(g, 2)(np.array([0, 1, 2])).tolist() == [5.0, 2.5, 0.0]


def test_spherical_anchor_is_zero():
    g = _placed([[12.5, -30.0], [0.0, 0.0]], "spherical", [(0, 1, 100.0)])
    h = sp.heuristic_for_graph(g, 0)
    assert h(np.array([0]))[0] == 0.0


def test_spherical_quarter_and_half_circle():
    # two quarter-circle arcs along the equator weigh a quarter of the
    # circumference in km: the scale is the radius in km
    radius = 6371.0088
    quarter_arc = math.pi * radius / 2
    g = _placed([[0.0, 0.0], [0.0, 90.0], [0.0, 180.0]], "spherical", [(0, 1, quarter_arc), (1, 2, quarter_arc)])
    assert abs(g.coord_scale - radius) < 1e-9
    quarter, half = sp.heuristic_for_graph(g, 0)(np.array([1, 2]))
    assert abs(quarter - math.pi * radius / 2) < 1e-3
    assert abs(half - math.pi * radius) < 1e-3


def test_spherical_antipodes_stay_finite():
    # rounding puts the haversine term of this antipodal pair just past 1
    g = _placed([[-82.0, 1.0], [82.0, -179.0]], "spherical", [(0, 1, math.pi)])
    assert g.coord_scale == pytest.approx(1.0, rel=1e-12)
    assert sp.heuristic_for_graph(g, 1)(np.array([0]))[0] == pytest.approx(math.pi, rel=1e-12)
    assert sp.ppsp(g, 0, 1, "astar").distance == math.pi


def test_spherical_validation():
    g = sp.build_csr(1, [])
    with pytest.raises(ValueError, match="latitude"):
        g.with_coords(np.array([[91.0, 0.0]]), "spherical")
    with pytest.raises(ValueError, match="longitude"):
        g.with_coords(np.array([[0.0, 181.0]]), "spherical")


def test_coords_checked_on_every_construction():
    # a graph built directly, or derived with replace, gets with_coords' checks
    g = sp.build_csr(2, [(0, 1, 1.0)], symmetrize=True)
    offsets, targets, weights = g.offsets, g.targets, g.weights
    placed = np.array([[95.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="latitude"):
        sp.CsrGraph(2, offsets, targets, weights, placed, "spherical")
    with pytest.raises(ValueError, match="latitude"):
        dataclasses.replace(g, coords=placed, coord_kind="spherical")
    ok = g.with_coords([[45.0, 10.0], [0.0, 0.0]], "spherical")
    assert ok.coords.dtype == np.float64
    for coords, kind, message in (
        (np.zeros((3, 2)), "euclidean", "shape"),
        (np.zeros((2, 2)), "planar", "kind"),
        (np.zeros((2, 2)), None, "kind"),
        (None, "euclidean", "shape"),
        (np.array([[0.0, np.nan], [0.0, 0.0]]), "euclidean", "finite"),
        (np.array([[0.0, 181.0], [0.0, 0.0]]), "spherical", "longitude"),
    ):
        with pytest.raises(ValueError, match=message):
            sp.CsrGraph(2, offsets, targets, weights, coords, kind)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ok, coords=coords, coord_kind=kind)


def test_zero_heuristic():
    h = zero_heuristic()
    assert np.array_equal(h(np.arange(5)), np.zeros(5))


def test_heuristic_for_graph_dispatch():
    g = geometric_graph(20, 3, 0)
    h = sp.heuristic_for_graph(g, 4)
    assert h(np.array([4]))[0] == 0.0
    bare = sp.build_csr(2, [(0, 1, 1.0)], symmetrize=True)
    with pytest.raises(ValueError, match="no coordinates"):
        sp.heuristic_for_graph(bare, 0)
    with pytest.raises(ValueError, match="no coordinates"):
        bare.coord_scale


@pytest.mark.parametrize("anchor", [-1, 50, 99, 1.5, True, "3"])
def test_heuristic_for_graph_rejects_a_bad_anchor(anchor):
    g = geometric_graph(50, 3, 0)
    with pytest.raises(ValueError, match="anchor"):
        sp.heuristic_for_graph(g, anchor)


def test_coord_scale_zero_without_a_positive_length():
    # every point coincides: no arc bounds the scale, which falls to 0 and
    # leaves a zero heuristic
    g = g1().with_coords(np.zeros((4, 2)), "euclidean")
    assert g.coord_scale == 0.0
    assert sp.heuristic_for_graph(g, 3)(np.arange(4)).tolist() == [0.0] * 4
    # a zero weight on an arc of positive length
    g = _placed([[0.0, 0.0], [1.0, 0.0]], "euclidean", [(0, 1, 0.0)])
    assert g.coord_scale == 0.0
    # self-loops and coincident points bound nothing
    g = _placed([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]], "euclidean", [(0, 0, 0.0), (0, 1, 0.0), (1, 2, 6.0)])
    assert g.coord_scale == 3.0
    assert _placed(np.zeros((3, 2)), "euclidean", []).coord_scale == 0.0


def test_coord_scale_is_derived_afresh():
    g = geometric_graph(200, 4, 3)
    scale = g.coord_scale
    halved = dataclasses.replace(g, weights=g.weights / 2)
    assert halved.coord_scale == pytest.approx(scale / 2, rel=1e-12)
    assert g.coord_scale == scale
    moved = g.with_coords(g.coords * 4, "euclidean")
    assert moved.coord_scale == pytest.approx(scale / 4, rel=1e-12)


@st.composite
def _placed_graph(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["euclidean", "spherical"]))
    lat = st.floats(-90, 90) if kind == "spherical" else st.floats(-1e3, 1e3)
    lon = st.floats(-180, 180) if kind == "spherical" else st.floats(-1e3, 1e3)
    coords = draw(st.lists(st.tuples(lat, lon), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(vertex, vertex, st.floats(0, 1e3)), max_size=16))
    g = sp.build_csr(n, edges, symmetrize=draw(st.booleans())).with_coords(coords, kind)
    return g, draw(vertex)


@settings(max_examples=200, deadline=None)
@given(_placed_graph())
def test_coordinate_heuristic_is_consistent(case):
    g, anchor = case
    sp.check_consistent(g, sp.heuristic_for_graph(g, anchor))


def test_memo_computes_once():
    calls = []

    def h(v):
        calls.append(np.array(v, copy=True))
        return v.astype(np.float64) * 2

    memo = MemoTable(np.full(10, np.nan), h)
    assert memo.get_many(np.array([3])).tolist() == [6.0]
    assert memo.get_many(np.array([3])).tolist() == [6.0]
    assert memo.computations == 1
    assert memo.requests == 2
    got = memo.get_many(np.array([3, 4, 4, 5]))
    assert got.tolist() == [6.0, 8.0, 8.0, 10.0]
    assert memo.computations == 3
    seen = np.concatenate(calls)
    assert len(seen) == len(np.unique(seen))


def test_memo_computes_a_vertex_given_twice_in_one_call_once():
    calls = []

    def h(v):
        calls.append(v.tolist())
        return v.astype(np.float64) + 0.5

    memo = MemoTable(np.full(10, np.nan), h)
    assert memo.get_many(np.array([7, 2, 7, 9, 2])).tolist() == [7.5, 2.5, 7.5, 9.5, 2.5]
    assert memo.computations == 3 and memo.requests == 5
    # a known vertex among the repeats computes only the fresh ones
    assert memo.get_many(np.array([4, 9, 4])).tolist() == [4.5, 9.5, 4.5]
    assert memo.computations == 4 and memo.requests == 8
    assert sorted(calls) == [[2, 7, 9], [4]]


def test_memo_distinct_lookups_count_as_any_other():
    calls = []

    def h(v):
        calls.append(v.tolist())
        return v.astype(np.float64) + 0.5

    memo = MemoTable(np.full(10, np.nan), h)
    assert memo.get_many(np.array([7, 2, 9]), distinct=True).tolist() == [7.5, 2.5, 9.5]
    assert memo.computations == 3 and memo.requests == 3
    assert memo.get_many(np.array([4, 9]), distinct=True).tolist() == [4.5, 9.5]
    assert memo.computations == 4 and memo.requests == 5
    assert calls == [[7, 2, 9], [4]]
    with pytest.raises(ValueError, match="non-finite"):
        MemoTable(np.full(3, np.nan), lambda v: np.full(v.size, np.inf)).get_many(np.array([0, 2]), distinct=True)


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_heuristic_is_inconsistent(value):
    # a NaN violation would compare False against the tolerance: a
    # non-finite value is an infinite violation, refused on its own
    g = g1()
    assert sp.consistency_violation(g, np.full(g.n, value)) == math.inf
    with pytest.raises(ValueError, match="non-finite"):
        sp.check_consistent(g, lambda v: np.full(np.shape(v), value))


def test_finite_heuristic_whose_slack_overflows_is_inconsistent():
    # every value is finite, but 1 - 1.7e308 - 1.7e308 overflows to -inf:
    # an infinite violation, reported as such and without a numpy warning
    g = sp.build_csr(2, [(0, 1, 1.0)], symmetrize=True)
    h = np.array([1.7e308, -1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sp.consistency_violation(g, h) == math.inf
        with pytest.raises(ValueError, match=r"^heuristic is inconsistent: worst arc violation inf"):
            sp.check_consistent(g, lambda v: h[v])


def test_induced_weights_nonnegative_and_mirrored():
    g = geometric_graph(120, 4, 9)
    h = sp.heuristic_for_graph(g, 11)
    potential = h(np.arange(g.n))
    fwd = sp.induced_arc_weights(g, potential)
    assert fwd.shape == (g.m,) and fwd.min() >= 0
    # an arc's backward reweighting, w + p(u) - p(v), is its mirror's forward weight
    src = g.arc_sources()
    order = {}
    for a, (u, v) in enumerate(zip(src.tolist(), g.targets.tolist())):
        order.setdefault((u, v), []).append(a)
    for (u, v), arcs in order.items():
        mirrors = order[(v, u)]
        for a, b in zip(arcs, mirrors):
            assert abs(g.weights[a] + potential[u] - potential[v] - fwd[b]) < 1e-12


def test_induced_weights_reject_wild_potential():
    g = g1()
    with pytest.raises(ValueError):
        sp.induced_arc_weights(g, np.array([50.0, 0.0, 0.0, 0.0]))
