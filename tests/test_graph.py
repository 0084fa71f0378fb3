import tracemalloc
from collections import Counter, defaultdict
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import steppath as sp
import steppath.graph
from steppath import io as gio
from steppath import (
    PATTERNS,
    CsrGraph,
    build_csr,
    generate_uniform_weights,
    largest_component,
    pattern_pairs,
    percentile_pairs,
)
from helpers import g1, heap_dijkstra, random_graph, reachable_mask, two_triangles, zero_heuristic


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
    # the graph build_csr makes refuses it, symmetrized or not
    for weight in (-2.0, np.nan, np.inf):
        for symmetrize in (False, True):
            with pytest.raises(ValueError, match="^graph: weights must be finite and nonnegative"):
                build_csr(3, [(0, 1, weight)], symmetrize=symmetrize)


def test_weights_whose_path_sums_overflow_rejected():
    # on the path 0 - 1 - 2 of two 1e308 arcs the distance to 2 is 2e308,
    # past the float maximum: every search (and the oracle) would say +inf
    # for a reachable vertex, so the graph refuses the weights
    message = "^graph: path sums overflow"
    with pytest.raises(ValueError, match=message):
        build_csr(3, [(0, 1, 1e308), (1, 2, 1e308)], symmetrize=True)
    offsets = np.array([0, 1, 3, 4], dtype=np.int64)
    targets = np.array([1, 0, 2, 1], dtype=np.int32)
    with pytest.raises(ValueError, match=message):
        CsrGraph(3, offsets, targets, np.full(4, 1e308))
    # the rule is max_weight * 2 * (n - 1): one vertex bounds nothing, and
    # weights just under the bound pass with every path sum finite
    assert build_csr(1, [(0, 0, 1e308)]).max_weight == 1e308
    g = CsrGraph(3, offsets, targets, np.full(4, 4e307))
    assert sp.ppsp(g, 0, 2, "bids").distance == sp.sssp(g, 0)[2] == 8e307


def test_endpoint_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_csr(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        build_csr(3, [(-1, 1, 1.0)])


def test_symmetrize_closes_arc_multiset():
    for seed in range(6):
        g = random_graph(40, 3, seed)
        assert g.symmetric


def test_self_loop_is_its_own_mirror():
    g = build_csr(3, [(0, 0, 2.0), (0, 1, 1.0)], symmetrize=True)
    # one loop arc plus the mirrored pair
    assert g.m == 3
    assert g.symmetric


def _two_sided(weights):
    # vertex 0 holds two parallel arcs to 1, vertex 1 two arcs back to 0
    offsets = np.array([0, 2, 4], dtype=np.int64)
    targets = np.array([1, 1, 0, 0], dtype=np.int32)
    return CsrGraph(2, offsets, targets, np.asarray(weights, dtype=np.float64))


def test_mirror_closed_pairs_parallel_arcs_by_weight():
    # weights 3 and 7 stored in opposite orders on the two sides
    assert _two_sided([3.0, 7.0, 7.0, 3.0]).symmetric


def test_mirror_closed_rejects_weight_mismatch():
    # the same arcs both ways, but one mirror weighs 4 instead of 3
    assert not _two_sided([3.0, 7.0, 7.0, 4.0]).symmetric


def test_mirror_closed_compares_weights_per_arc_key():
    # the triangle weighs 3 one way round and 1 the other: every vertex
    # sends and receives one 1 and one 3, so only weights compared per
    # (u, v) key, not per vertex, show that no arc matches its mirror
    arcs = [(0, 1, 3.0), (1, 2, 3.0), (2, 0, 3.0), (1, 0, 1.0), (2, 1, 1.0), (0, 2, 1.0)]
    assert not build_csr(3, arcs).symmetric


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


# vertex ids spread over 200,003 vertices, so ids need more than 16 bits
SPREAD_N = 200_003


def _spread(ids):
    return np.asarray(ids) * 40_009 % SPREAD_N


@settings(max_examples=300, deadline=None)
@given(_arc_lists(), st.booleans())
def test_mirror_closed_matches_arc_counter(arcs, spread):
    n = 5
    if spread:
        n = SPREAD_N
        arcs = [(int(_spread(u)), int(_spread(v)), w) for u, v, w in arcs]
    g = build_csr(n, arcs)
    want = Counter(arcs) == Counter((v, u, w) for u, v, w in arcs)
    assert g.symmetric == want


BLOCK = steppath.graph._BLOCK  # entries per block of the blockwise passes


def _loop_and_pairs(count):
    """A self-loop at 0, then vertices 2i+1 and 2i+2 joined both ways, weight 1.

    Each vertex has one arc, so arc k is stored at position k, and the odd
    arc k and arc k + 1 are mirrors.
    """
    a = np.arange(1, 2 * count, 2)
    u = np.concatenate([[0], np.column_stack([a, a + 1]).ravel()])
    v = np.concatenate([[0], np.column_stack([a + 1, a]).ravel()])
    return np.column_stack([u, v, np.ones(u.size)])


# arc 65,535 and its mirror straddle the end of the first block; arc
# 80,000 and its mirror sit in the last, partial block
@pytest.mark.parametrize("arc", [BLOCK - 1, 80_000])
def test_mirror_closed_finds_a_mismatch_by_the_block_edges(arc):
    edges = _loop_and_pairs(40_000)  # 80,001 arcs: one whole block and a partial one
    n = 80_001
    assert build_csr(n, edges).symmetric
    edges[arc, 2] = 2.0
    assert not build_csr(n, edges).symmetric


def _spread_multigraph(seed, m=3_000):
    """(u, v, w) rows on 40 spread vertex ids: parallel arcs and self-loops."""
    rng = np.random.default_rng(seed)
    u, v = _spread(rng.integers(0, 40, (2, m)))
    return np.column_stack([u, v, rng.integers(1, 4, m)]).astype(np.float64)


def _symmetrized_by_loop(edges):
    """The input, then a mirror of each arc left over by occurrence-rank pairing.

    The k-th (u, v, w) given, in input order, pairs with the k-th
    (v, u, w); the (u, v, w) arcs past the count of (v, u, w) ones gain
    mirrors, which follow the input in the order of their originals.
    """
    edges = [tuple(e) for e in edges]
    lone = _lone_by_loop(edges)
    return edges + [(v, u, w) for k, (u, v, w) in enumerate(edges) if lone[k]]


def _lone_by_loop(edges):
    """Mask of the arcs that occurrence-rank pairing leaves without a mirror."""
    edges = [tuple(e) for e in edges]
    given = defaultdict(list)
    for k, arc in enumerate(edges):
        given[arc].append(k)
    lone = np.zeros(len(edges), dtype=bool)
    for (u, v, w), mine in given.items():
        if u != v:
            lone[mine[len(given.get((v, u, w), ())) :]] = True
    return lone


def test_build_csr_order_past_16_bit_ids():
    # arcs sorted stably by source: input order, originals before mirrors
    rows = _spread_multigraph(0)
    for symmetrize in (False, True):
        src, tgt, w = np.array(_symmetrized_by_loop(rows)).T if symmetrize else rows.T
        order = np.argsort(src, kind="stable")
        g = build_csr(SPREAD_N, rows, symmetrize=symmetrize)
        assert np.array_equal(g.offsets, np.searchsorted(src[order], np.arange(SPREAD_N + 1)))
        assert np.array_equal(g.targets, tgt[order])
        assert np.array_equal(g.weights, w[order])


@st.composite
def _edges_with_copies(draw):
    """Arcs on 5 vertices, some copied and some also given the other way."""
    edges = draw(st.lists(_ARC, max_size=10))
    if edges:
        pick = st.sampled_from(edges)
        edges += draw(st.lists(pick, max_size=6))
        edges += [(v, u, w) for u, v, w in draw(st.lists(pick, max_size=10))]
    return draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(_edges_with_copies())
@example([(0, 1, 1.0), (1, 0, 1.0)])  # one edge given both ways
@example([(0, 1, 1.0), (1, 0, 1.0), (0, 1, 1.0), (0, 1, 2.0), (2, 2, 0.0), (2, 2, 0.0)])
def test_symmetrize_is_the_smallest_mirror_closed_multiset(edges):
    n = 5
    g = build_csr(n, edges, symmetrize=True)
    count = Counter(edges)
    want = Counter()
    for u, v, w in count | Counter((v, u, w) for u, v, w in edges):
        want[u, v, w] = count[u, v, w] if u == v else max(count[u, v, w], count[v, u, w])
    assert Counter(zip(g.arc_sources().tolist(), g.targets.tolist(), g.weights.tolist())) == want
    assert g.symmetric
    # the input first, in input order within each row, then the added mirrors
    src, tgt, w = np.array(_symmetrized_by_loop(edges), dtype=np.float64).reshape(-1, 3).T
    order = np.argsort(src, kind="stable")
    assert np.array_equal(g.targets, tgt[order]) and np.array_equal(g.weights, w[order])
    # no distance moves from the graph that mirrors every arc
    doubled = build_csr(n, edges + [(v, u, w) for u, v, w in edges if u != v])
    for s in range(n):
        assert np.array_equal(heap_dijkstra(g, s), heap_dijkstra(doubled, s))


def _by_reference_sort(n, edges):
    """The CSR arrays of ``edges`` in their given order, by numpy's stable argsort."""
    src, tgt, w = np.asarray(edges, dtype=np.float64).reshape(-1, 3).T
    order = np.argsort(src, kind="stable")
    offsets = np.searchsorted(src[order], np.arange(n + 1)).astype(np.int64)
    return offsets, tgt[order].astype(np.int32), w[order]


@settings(max_examples=200, deadline=None)
@given(_edges_with_copies(), st.booleans(), st.booleans())
@example([(0, 0, 1.0), (0, 1, 2.0), (0, 1, 2.0), (1, 0, 2.0), (3, 3, 0.0)], True, False)
def test_build_csr_matches_a_reference_sort(edges, symmetrize, spread):
    # self-loops, parallel arcs and mirrored pairs; ids past 16 bits when spread
    n = 5
    if spread:
        n = SPREAD_N
        edges = [(int(_spread(u)), int(_spread(v)), w) for u, v, w in edges]
    g = build_csr(n, edges, symmetrize=symmetrize)
    want = _by_reference_sort(n, _symmetrized_by_loop(edges) if symmetrize else edges)
    for got, ref, dtype in zip((g.offsets, g.targets, g.weights), want, (np.int64, np.int32, np.float64)):
        assert got.dtype == dtype and np.array_equal(got, ref)


def _traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _random_edges(n, m, seed):
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, n, (2, m))
    return np.column_stack([u, v, rng.integers(1, 2**18 + 1, m)]).astype(np.float64)


def _graph_bytes(g):
    return g.offsets.nbytes + g.targets.nbytes + g.weights.nbytes


def test_build_csr_memory_stays_near_the_graph_size():
    # the peak, result included, against the finished graph's bytes: the
    # bound build_csr documents (the mirror check's is checked below)
    edges = _random_edges(50_000, 200_000, 1)
    g, peak = _traced_peak(lambda: build_csr(50_000, edges, symmetrize=True))
    assert peak <= 2.5 * _graph_bytes(g)


def test_mirror_check_memory_stays_near_the_graph_size():
    g = build_csr(50_000, _random_edges(50_000, 200_000, 1), symmetrize=True)
    symmetric, peak = _traced_peak(lambda: g.symmetric)
    assert symmetric and peak <= 1.75 * _graph_bytes(g)


def test_labelling_memory_stays_near_the_graph_size():
    g = build_csr(50_000, _random_edges(50_000, 200_000, 1), symmetrize=True)
    info, peak = _traced_peak(lambda: largest_component(g))
    assert info.count >= 1 and peak <= 1.25 * _graph_bytes(g)


def _check_partners(src, tgt, w, n, lone):
    """The pairing's partners: mutual, mirrored, loops their own, -1 exactly where ``lone``."""
    partner = steppath.graph._mirror_partners(src, tgt, w, n)
    assert partner.dtype == np.int32 and np.array_equal(partner < 0, lone)
    a = np.flatnonzero(partner >= 0)
    b = partner[a]
    assert np.array_equal(partner[b], a)
    assert np.array_equal(src[a], tgt[b]) and np.array_equal(tgt[a], src[b]) and np.array_equal(w[a], w[b])
    loops = np.flatnonzero(src == tgt)
    assert np.array_equal(partner[loops], loops)


def test_unmatched_arcs_with_ids_past_packed_keys():
    # ids near 2**31 leave key and position no room in 64 bits, so the
    # pairing falls back to a stable argsort; a few arcs reach that path
    rows = np.array(
        [(0, 1, 1.0), (1, 0, 1.0), (0, 1, 1.0), (2, 2, 0.0), (1, 2, 2.0), (2, 1, 3.0), (0, 1, 1.0), (1, 0, 1.0)]
    )
    src, tgt, w = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64), rows[:, 2]
    want = [False, False, False, False, True, True, True, False]
    assert _lone_by_loop(rows.tolist()).tolist() == want
    _check_partners(src, tgt, w, 3, want)
    n = 2**31
    assert not steppath.graph._packs(n * n, src.size)
    _check_partners(n - 1 - src, n - 1 - tgt, w, n, want)


def test_unmatched_arcs_across_blocks():
    # more arcs than three blocks on 1,000 vertices: keys held by one, two
    # and more arcs, given one way or both, straddle the block edges; on
    # one weight column the arcs pair on their ends alone
    rng = np.random.default_rng(5)
    m = 3 * BLOCK + 7
    src, tgt = rng.integers(0, 1_000, (2, m)).astype(np.int32)
    n = 2**31
    assert not steppath.graph._packs(n * n, m)
    for w in (rng.integers(1, 3, m).astype(np.float64), np.broadcast_to(0.0, (m,))):
        want = _lone_by_loop(np.column_stack([src, tgt, w]).tolist())
        _check_partners(src, tgt, w, 1_000, want)
        # ids mirrored near 2**31, where key and position do not pack
        _check_partners(n - 1 - src, n - 1 - tgt, w, n, want)


def test_uniform_weights_past_16_bit_ids():
    # one draw per arc with source <= target in storage order, shared by its
    # mirror: the k-th (u, v) arc pairs with the k-th (v, u) arc
    g = build_csr(SPREAD_N, _spread_multigraph(1), symmetrize=True)
    h = generate_uniform_weights(g, seed=5, lo=1, hi=100)
    src, tgt = g.arc_sources().tolist(), g.targets.tolist()
    arcs = defaultdict(list)
    for a, key in enumerate(zip(src, tgt)):
        arcs[key].append(a)
    draws = iter(np.random.default_rng(5).uniform(1, 100, size=sum(u <= v for u, v in zip(src, tgt))))
    want = np.full(g.m, np.nan)
    for a, (u, v) in enumerate(zip(src, tgt)):
        if u <= v:
            want[a] = want[arcs[v, u][arcs[u, v].index(a)]] = next(draws)
    assert np.array_equal(h.weights, want)
    for (u, v), mine in arcs.items():
        assert np.array_equal(h.weights[mine], h.weights[arcs[v, u]])
    assert h.symmetric


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
    # a vertex count that is not a nonnegative int meets the graph's own
    # refusal before it sizes any array (3.0 and "3" once failed inside numpy)
    for n in (3.0, "3", -1, True):
        with pytest.raises(ValueError, match="^graph: n must be a nonnegative int, got"):
            build_csr(n, rows[:2])


def test_parallel_edges_kept():
    g = build_csr(2, [(0, 1, 3.0), (0, 1, 7.0)], symmetrize=True)
    assert g.m == 4
    lo, hi = g.offsets[0], g.offsets[1]
    assert g.targets[lo:hi].tolist() == [1, 1]
    assert sorted(g.weights[lo:hi].tolist()) == [3.0, 7.0]


def test_neighbors_and_degrees():
    g = g1()
    lo, hi = g.offsets[2], g.offsets[3]
    got = sorted(zip(g.targets[lo:hi].tolist(), g.weights[lo:hi].tolist()))
    assert got == [(0, 5.0), (1, 2.0), (3, 1.0)]
    assert g.degrees.tolist() == [2, 2, 3, 1]


def test_uniform_weights_range_and_mirrors():
    g = generate_uniform_weights(g1(), seed=7, lo=1, hi=2**18)
    assert np.all(g.weights >= 1) and np.all(g.weights <= 2**18)
    assert g.symmetric


def test_uniform_weights_pair_arcs_on_their_ends_alone():
    # a directed cycle has no mirrors, whatever its weights
    with pytest.raises(ValueError, match="not symmetrized"):
        generate_uniform_weights(build_csr(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]), seed=1, lo=1, hi=9)
    # mirrors of different weights: not symmetric, yet one shared draw
    g = build_csr(2, [(0, 1, 3.0), (1, 0, 4.0)])
    assert not g.symmetric
    h = generate_uniform_weights(g, seed=1, lo=1, hi=9)
    assert h.weights.tolist() == 2 * np.random.default_rng(1).uniform(1, 9, size=1).tolist()
    assert h.symmetric


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
    assert np.bincount(info.labels).tolist() == [3, 3]
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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25) if n else st.just([]),
        )
    ),
    st.sampled_from(["directed", "symmetrized", "both ways"]),
    st.integers(1, 3),
)
@example((0, []), "symmetrized", 1)
@example((1, []), "symmetrized", 1)
@example((2, [(0, 1)]), "symmetrized", 2)  # the doubled edge
@example((4, [(0, 0), (1, 1), (2, 3), (3, 3)]), "symmetrized", 2)  # self-loops
@example((7, [(5, 2)]), "both ways", 3)  # isolated 0, 1, 3, 4 and 6
@example((4, [(0, 1), (1, 2)]), "directed", 1)  # weak: 0 -> 1 -> 2 is one component
def test_component_labels_match_sort_based_ranking(case, form, copies):
    # copies and repeated pairs give parallel arcs; arcs given both ways
    # are flagged symmetric by the mirror check; every form takes the
    # one weak pass
    n, pairs = case
    edges = [(u, v, 1.0) for u, v in pairs] * copies
    if form == "both ways":
        edges += [(v, u, w) for u, v, w in edges]
    g = build_csr(n, edges, symmetrize=form == "symmetrized")
    assert g.symmetric or form == "directed"
    info = largest_component(g)  # conftest refuses the strong pass
    if n == 0:
        assert (info.labels.size, info.count, info.largest, info.largest_size) == (0, 0, 0, 0)
        return
    # the ranking by first vertex, made the sorting way: np.unique finds
    # each raw label's first vertex
    mat = csr_matrix((np.ones(g.m), g.targets, g.offsets), shape=(n, n))
    count, raw = connected_components(mat, directed=False)
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    labels = rank[raw]
    sizes = np.bincount(labels)
    assert info.labels.dtype == np.int64 and np.array_equal(info.labels, labels)
    assert (info.count, info.largest, info.largest_size) == (count, sizes.argmax(), sizes.max())


def test_set_up_never_writes_into_a_graph(tmp_path):
    # read-only arrays make any in-place write raise: the labelling's
    # matrix shares the graph's arrays, and it, the mirror check and the
    # weight draw must never write into them
    directed = build_csr(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 4, 2.0)])
    graphs = [random_graph(300, 3, 7), _two_sided([3.0, 7.0, 7.0, 3.0]), directed]
    for g in graphs:
        saved = [a.copy() for a in (g.offsets, g.targets, g.weights)]
        for a in (g.offsets, g.targets, g.weights):
            a.flags.writeable = False
        largest_component(g)
        assert g.symmetric is (g is not directed)
        if g is not directed:
            generate_uniform_weights(g, seed=3, lo=1.0, hi=2.0)
        gio.save_binary(g, tmp_path / "g.bin")
        for a, before in zip((g.offsets, g.targets, g.weights), saved):
            assert np.array_equal(a, before)


def test_max_weight():
    assert g1().max_weight == 5.0
    assert build_csr(2, []).max_weight == 0.0


def test_max_weight_computed_once_per_graph():
    calls = []

    class CountingWeights(np.ndarray):
        def max(self, *args, **kwargs):
            calls.append(1)
            return np.asarray(self).max(*args, **kwargs)

    base = random_graph(200, 3, 4)
    g = replace(base, weights=base.weights.view(CountingWeights))
    top = g.max_weight
    for _ in range(3):
        assert sp.default_policy(g).delta == top / 16.0
        sp.sssp(g, 0)
        sp.ppsp(g, 0, 5, "bids")
    assert g.max_weight == top == float(base.weights.max())
    assert len(calls) == 1
    heavier = replace(g, weights=2.0 * base.weights)
    assert heavier.max_weight == 2.0 * top
    assert g.max_weight == top


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


def test_symmetric_flag_agrees_with_binary_round_trip(tmp_path):
    # arcs given both ways, and no arcs at all, are mirror-closed without
    # symmetrizing; the flag must not depend on how the graph was made
    both_ways = build_csr(2, [(0, 1, 1.0), (1, 0, 1.0)])
    edgeless = build_csr(2**20, [])
    directed = build_csr(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 10.0)])
    # every in-degree equals its out-degree, yet no arc has its mirror
    cycle = build_csr(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], symmetrize=False)
    for g, want in ((both_ways, True), (edgeless, True), (directed, False), (cycle, False)):
        path = tmp_path / "g.bin"
        gio.save_binary(g, path)
        assert g.symmetric is want
        loaded = sp.load_graph(path)
        assert "symmetric" not in vars(loaded)  # derived on first use, not on load
        assert loaded.symmetric is want
    assert sp.ppsp(both_ways, 0, 1, "bids").distance == 1.0
    assert sp.multi_bids(edgeless, sp.build_query_graph([(0, 5)], edgeless.n)).distances.tolist() == [np.inf]
    gio.save_edge_list(both_ways, tmp_path / "g.txt")
    with pytest.raises(ValueError, match="symmetrized"):
        sp.ppsp(directed, 0, 2, "bids")
    with pytest.raises(ValueError, match="symmetrized"):
        sp.multi_bids(directed, sp.build_query_graph([(0, 2)], directed.n))
    with pytest.raises(ValueError, match="not symmetric"):
        gio.save_edge_list(directed, tmp_path / "d.txt")


def _path_by_hand():
    # 0 -> 1 -> 2, each arc one way only
    offsets = np.array([0, 1, 2, 2], dtype=np.int64)
    return CsrGraph(3, offsets, np.array([1, 2], dtype=np.int32), np.array([1.0, 1.0]))


def test_labelling_does_not_derive_symmetric():
    for g in (random_graph(300, 3, 7), _path_by_hand()):
        largest_component(g)
        assert "symmetric" not in vars(g)


def test_labels_do_not_depend_on_weight_values():
    # 0 - 1 by a zero-weight arc, 1 -> 2 huge, 3 -> 4
    # tiny, a self-loop at 5, and 6 alone: the labelling reads the
    # structure only (a negative or NaN weight no longer makes a graph)
    offsets = np.array([0, 1, 2, 2, 3, 3, 4, 4], dtype=np.int64)
    targets = np.array([1, 2, 4, 5], dtype=np.int32)
    odd = CsrGraph(7, offsets, targets, np.array([0.0, 1e300, 5e-324, 3.0]))
    ones = CsrGraph(7, offsets, targets, np.ones(4))
    got, want = largest_component(odd), largest_component(ones)
    assert got.labels.tolist() == want.labels.tolist() == [0, 0, 0, 1, 1, 2, 3]
    assert (got.count, got.largest, got.largest_size) == (want.count, want.largest, want.largest_size) == (4, 0, 3)
    zero = build_csr(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.0)], symmetrize=True)
    assert largest_component(zero).count == 1


def test_symmetric_is_derived_from_the_arcs():
    g = _path_by_hand()
    assert not g.symmetric
    info = largest_component(g)
    assert info.count == 1 and info.labels.tolist() == [0, 0, 0]
    assert sp.ppsp(g, 0, 2, "et").distance == sp.dijkstra(g, 0)[2] == 2.0
    zero = zero_heuristic()
    qg = sp.build_query_graph([(0, 2)], g.n)
    refused = [
        lambda: sp.ppsp(g, 0, 2, "bids"),
        lambda: sp.ppsp(g, 0, 2, "bidastar", heuristic=(zero, zero)),
        lambda: sp.multi_bids(g, qg),
        lambda: sp.vc_sssp_batch(g, qg),
        lambda: sp.baseline_batch(g, qg, "plain-bids"),
        lambda: sp.baseline_batch(g, qg, "plain-sssp"),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="symmetrized"):
            call()


def test_symmetric_can_be_neither_passed_nor_set():
    offsets = np.array([0, 1, 2, 2], dtype=np.int64)
    with pytest.raises(TypeError):
        CsrGraph(3, offsets, np.array([1, 2], dtype=np.int32), np.array([1.0, 1.0]), symmetric=True)
    g = build_csr(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(FrozenInstanceError):
        g.symmetric = True
    assert not g.symmetric
    with pytest.raises(FrozenInstanceError):
        g.symmetric = True  # cached or not, the flag stays derived
    with pytest.raises(ValueError, match="symmetrized"):
        sp.ppsp(g, 0, 2, "bids")


def test_derived_graph_derives_symmetric_afresh():
    g = build_csr(3, [(0, 1, 1.0), (1, 2, 1.0)], symmetrize=True)
    assert "symmetric" not in vars(g)  # build_csr does not seed it
    assert g.symmetric
    assert "symmetric" not in vars(replace(g)) and replace(g).symmetric
    # arcs in storage order: (0, 1), (1, 2), (1, 0), (2, 1)
    heavier = replace(g, weights=np.array([1.0, 1.0, 5.0, 1.0]))
    assert not heavier.symmetric and g.symmetric
    one_way = _path_by_hand()
    h = replace(g, offsets=one_way.offsets, targets=one_way.targets, weights=one_way.weights)
    assert not h.symmetric
    placed = g.with_coords(np.zeros((3, 2)), "euclidean")
    assert "symmetric" not in vars(placed) and placed.symmetric
    assert not h.with_coords(np.zeros((3, 2)), "euclidean").symmetric


def test_uniform_weights_output_is_symmetric():
    h = generate_uniform_weights(random_graph(60, 3, 2), seed=4, lo=1.0, hi=9.0)
    assert "symmetric" not in vars(h)
    assert h.symmetric
