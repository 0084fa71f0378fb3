from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import steppath as sp
import steppath.graph
from steppath import (
    PATTERNS,
    CsrGraph,
    build_csr,
    generate_uniform_weights,
    largest_component,
    mirror_closed,
    pattern_pairs,
    percentile_pairs,
)
from helpers import g1, random_graph, reachable_mask, two_triangles


def test_g1_shape():
    g = g1()
    assert g.n == 4
    assert g.m == 8
    assert g.symmetric
    assert g.offsets[0] == 0 and g.offsets[-1] == g.m
    assert np.all(np.diff(g.offsets) >= 0)


def test_single_vertex_graph():
    g = build_csr(1, [])
    assert g.n == 1 and g.m == 0
    assert g.offsets.tolist() == [0, 0]


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        build_csr(3, [(0, 1, -2.0)])


def test_endpoint_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_csr(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        build_csr(3, [(-1, 1, 1.0)])


def test_symmetrize_closes_arc_multiset():
    for seed in range(6):
        g = random_graph(40, 3, seed)
        assert mirror_closed(g)
        assert g.symmetric


def test_self_loop_is_its_own_mirror():
    g = build_csr(3, [(0, 0, 2.0), (0, 1, 1.0)], symmetrize=True)
    # one loop arc plus the mirrored pair
    assert g.m == 3
    assert mirror_closed(g)


def _two_sided(weights):
    # vertex 0 holds two parallel arcs to 1, vertex 1 two arcs back to 0
    offsets = np.array([0, 2, 4], dtype=np.int64)
    targets = np.array([1, 1, 0, 0], dtype=np.int32)
    return CsrGraph(2, offsets, targets, np.asarray(weights, dtype=np.float64))


def test_mirror_closed_pairs_parallel_arcs_by_weight():
    # weights 3 and 7 stored in opposite orders on the two sides
    assert mirror_closed(_two_sided([3.0, 7.0, 7.0, 3.0]))


def test_mirror_closed_rejects_weight_mismatch():
    # the same arcs both ways, but one mirror weighs 4 instead of 3
    assert not mirror_closed(_two_sided([3.0, 7.0, 7.0, 4.0]))


_ARC = st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from([0.0, -0.0, 1.0, 2.5, 3.0]))


@st.composite
def _arc_lists(draw):
    """Small multigraph arcs: arbitrary, or mirror-closed with at most one arc perturbed."""
    arcs = draw(st.lists(_ARC, max_size=12))
    if draw(st.booleans()):
        arcs += [(v, u, w) for u, v, w in arcs]
        change = draw(st.sampled_from(["none", "reweigh", "replace", "drop", "add"]))
        if change == "add":
            arcs.append(draw(_ARC))
        elif change != "none" and arcs:
            k = draw(st.integers(0, len(arcs) - 1))
            if change == "reweigh":
                arcs[k] = (*arcs[k][:2], draw(_ARC)[2])
            elif change == "replace":
                arcs[k] = draw(_ARC)
            else:
                del arcs[k]
    # shuffled, so parallel arcs may sit in another order on the two sides
    return draw(st.permutations(arcs))


@settings(max_examples=300, deadline=None)
@given(_arc_lists())
def test_mirror_closed_matches_arc_counter(arcs):
    g = build_csr(5, arcs)
    want = Counter(arcs) == Counter((v, u, w) for u, v, w in arcs)
    assert mirror_closed(g) == want


def test_build_csr_input_forms():
    rows = [(0, 1, 1.5), (2, 0, 0.0), (1, 1, 2.0), (0, 1, 1.5), (3, 2, 4.0), (0, 3, 7.0)]
    for symmetrize in (False, True):
        want = build_csr(4, np.array(rows), symmetrize=symmetrize)
        for edges in (rows, (row for row in rows)):
            got = build_csr(4, edges, symmetrize=symmetrize)
            for name in ("offsets", "targets", "weights"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert got.symmetric == want.symmetric == symmetrize
    empty = build_csr(3, np.empty((0, 3)))
    assert empty.m == 0 and empty.offsets.tolist() == [0, 0, 0, 0]
    for bad in (np.array([0.0, 1.0, 1.0]), np.array([[0, 1], [1, 2]]), np.array(5.0)):
        with pytest.raises(ValueError):
            build_csr(3, bad)


def test_parallel_edges_kept():
    g = build_csr(2, [(0, 1, 3.0), (0, 1, 7.0)], symmetrize=True)
    assert g.m == 4
    tgts, ws = g.neighbors(0)
    assert sorted(ws.tolist()) == [3.0, 7.0]


def test_neighbors_and_degrees():
    g = g1()
    tgts, ws = g.neighbors(2)
    got = sorted(zip(tgts.tolist(), ws.tolist()))
    assert got == [(0, 5.0), (1, 2.0), (3, 1.0)]
    assert g.degrees.tolist() == [2, 2, 3, 1]


def test_uniform_weights_range_and_mirrors():
    g = generate_uniform_weights(g1(), seed=7, lo=1, hi=2**18)
    assert np.all(g.weights >= 1) and np.all(g.weights <= 2**18)
    assert mirror_closed(g)


def test_uniform_weights_degenerate_range():
    g = generate_uniform_weights(g1(), seed=0, lo=5, hi=5)
    assert np.all(g.weights == 5.0)


def test_uniform_weights_deterministic():
    a = generate_uniform_weights(g1(), seed=13, lo=1, hi=1000)
    b = generate_uniform_weights(g1(), seed=13, lo=1, hi=1000)
    assert np.array_equal(a.weights, b.weights)
    c = generate_uniform_weights(g1(), seed=14, lo=1, hi=1000)
    assert not np.array_equal(a.weights, c.weights)


def test_uniform_weights_preserve_topology():
    g = g1()
    h = generate_uniform_weights(g, seed=3, lo=1, hi=9)
    assert np.array_equal(g.offsets, h.offsets)
    assert np.array_equal(g.targets, h.targets)


def test_components_g1_connected():
    info = largest_component(g1())
    assert info.count == 1
    assert info.largest_size == 4


def test_components_two_triangles():
    info = largest_component(two_triangles())
    assert info.count == 2
    assert sorted(info.sizes().tolist()) == [3, 3]
    # equal sizes tie toward the lower label, which vertex 0 anchors
    assert info.largest == info.labels[0] == 0
    assert sorted(info.members(info.largest).tolist()) == [0, 1, 2]


def test_components_single_edge():
    info = largest_component(build_csr(5, [(0, 1, 1.0)], symmetrize=True))
    assert info.largest_size == 2
    assert info.count == 4


def test_component_labels_match_reachability():
    for seed in range(8):
        g = random_graph(120, 1.2, seed)
        info = largest_component(g)
        for src in (0, 17, 63):
            mask = reachable_mask(g, src)
            assert np.array_equal(mask, info.labels == info.labels[src])


def test_max_weight():
    assert g1().max_weight() == 5.0
    assert build_csr(2, []).max_weight() == 0.0


def test_max_weight_computed_once_per_graph():
    calls = []

    class CountingWeights(np.ndarray):
        def max(self, *args, **kwargs):
            calls.append(1)
            return np.asarray(self).max(*args, **kwargs)

    base = random_graph(200, 3, 4)
    g = replace(base, weights=base.weights.view(CountingWeights))
    top = g.max_weight()
    for _ in range(3):
        assert sp.default_policy(g).delta == top / 16.0
        sp.sssp(g, 0)
        sp.ppsp(g, 0, 5, "bids")
    assert g.max_weight() == top == float(base.weights.max())
    assert len(calls) == 1
    heavier = replace(g, weights=2.0 * base.weights)
    assert heavier.max_weight() == 2.0 * top
    assert g.max_weight() == top


def test_build_csr_rejects_ids_past_int32():
    # targets are int32; the check comes before the offsets are allocated
    with pytest.raises(ValueError, match="2\\*\\*31"):
        build_csr(2**31 + 1, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="2\\*\\*31"):
        build_csr(3_000_000_000, [])


def test_components_labelled_once_per_graph(monkeypatch):
    calls = []

    def counting_cc(*args, **kwargs):
        calls.append(1)
        return label(*args, **kwargs)

    label = steppath.graph._cc
    monkeypatch.setattr(steppath.graph, "_cc", counting_cc)
    g = random_graph(200, 3, 4)
    info = largest_component(g)
    for seed, pattern in enumerate(PATTERNS):
        pattern_pairs(g, pattern, 6, seed)
    percentile_pairs(g, 3, 90, 1)
    assert largest_component(g) is info
    assert len(calls) == 1


def test_component_info_is_frozen_and_read_only():
    info = largest_component(two_triangles())
    with pytest.raises(FrozenInstanceError):
        info.largest = 1
    with pytest.raises(ValueError):
        info.labels[3] = 0
    assert info.labels.tolist() == [0, 0, 0, 1, 1, 1]


def test_derived_graph_gets_fresh_labels():
    g = two_triangles()
    assert largest_component(g).count == 2
    bridged = build_csr(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)], symmetrize=True)
    h = replace(g, targets=bridged.targets, offsets=bridged.offsets, weights=bridged.weights)
    assert largest_component(h).count == 1
    assert largest_component(g).count == 2
    placed = g.with_coords(np.zeros((6, 2)), "euclidean")
    assert largest_component(placed) is not largest_component(g)
    assert np.array_equal(largest_component(placed).labels, largest_component(g).labels)
