import dataclasses
import re

import numpy as np
import pytest

import steppath as sp
from steppath.engine import SsspSearch, run_search
from steppath.ppsp import AstarSearch, BidAstarSearch, BidsSearch, EtSearch
from helpers import (
    g1,
    geometric_graph,
    latlon_graph,
    random_graph,
    random_pairs_same_component,
    two_triangles,
    watch_hook,
    zero_heuristic,
)


def test_et_on_g1():
    assert sp.ppsp(g1(), 0, 3, "et").distance == 4.0


def test_all_strategies_match_oracle_on_g1():
    g = g1()
    zero = zero_heuristic()
    want = {s: sp.dijkstra(g, s) for s in range(4)}
    for s in range(4):
        for t in range(4):
            for strat in sp.STRATEGIES:
                if strat == "astar":
                    kw = {"heuristic": zero}
                elif strat == "bidastar":
                    kw = {"heuristic": (zero, zero)}
                else:
                    kw = {}
                got = sp.ppsp(g, s, t, strat, **kw).distance
                assert got == want[s][t], (s, t, strat)


def test_source_equals_target():
    g = g1()
    for strat in ("sssp", "et", "bids"):
        a = sp.ppsp(g, 2, 2, strat)
        assert a.distance == 0.0
        assert a.steps == 0


def test_vertex_out_of_range():
    with pytest.raises(ValueError):
        sp.ppsp(g1(), 0, 9, "et")
    with pytest.raises(ValueError):
        sp.ppsp(g1(), 9, 0, "bids")


@pytest.mark.parametrize("bad", [0.5, True, np.nan, "1", np.array([1])], ids=repr)
def test_vertex_id_must_be_integral(bad):
    # 0.5 used to answer inf under bids and vertex 0's distance under et,
    # sssp(g, 1.5) returned vertex 1's row and True passed as vertex 1
    g, zero = g1(), zero_heuristic()
    heuristics = {"astar": {"heuristic": zero}, "bidastar": {"heuristic": (zero, zero)}}
    for strategy in sp.STRATEGIES:
        kw = heuristics.get(strategy, {})
        with pytest.raises(ValueError, match=re.escape(f"source must be an integer vertex id, got {bad!r}")):
            sp.ppsp(g, bad, 3, strategy, **kw)
        with pytest.raises(ValueError, match=re.escape(f"target must be an integer vertex id, got {bad!r}")):
            sp.ppsp(g, 0, bad, strategy, **kw)
    # checked before the source == target shortcut
    with pytest.raises(ValueError, match="source"):
        sp.ppsp(g, bad, bad, "et")
    with pytest.raises(ValueError, match="source"):
        sp.sssp(g, bad)


def test_integral_vertex_ids_accepted():
    g = g1()
    for s in (3, 3.0, np.int32(3), np.uint8(3), np.float64(3.0), np.array(3)):
        assert sp.ppsp(g, 0, s, "et").distance == 4.0
        assert sp.ppsp(g, s, 0, "bids").distance == 4.0
        assert sp.sssp(g, s).tolist() == sp.sssp(g, 3).tolist()
    with pytest.raises(ValueError, match="target 4 out of range"):
        sp.ppsp(g, 0, 4.0, "et")
    with pytest.raises(ValueError, match="source -1 out of range"):
        sp.sssp(g, -1)


def test_unknown_strategy():
    with pytest.raises(ValueError):
        sp.ppsp(g1(), 0, 1, "dfs")


def test_bids_requires_symmetric():
    directed = sp.build_csr(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        sp.ppsp(directed, 0, 1, "bids")


def test_astar_requires_coordinates_or_heuristic():
    with pytest.raises(ValueError):
        sp.ppsp(g1(), 0, 3, "astar")
    with pytest.raises(ValueError, match="^bidastar needs heuristics toward both endpoints$"):
        sp.ppsp(g1(), 0, 3, "bidastar", heuristic=zero_heuristic())


def test_malformed_heuristic_is_refused():
    # a triple once raised "too many values to unpack", and an int a
    # TypeError from inside the search
    zero = zero_heuristic()
    for bad in (5, (zero, zero, None), (zero,), (zero, 5), (None, zero), [zero, zero]):
        for strategy in ("et", "bids", "astar", "bidastar"):
            with pytest.raises(ValueError, match="^heuristic must be None, one callable or a pair of callables, got "):
                sp.ppsp(g1(), 0, 3, strategy, heuristic=bad)
    assert sp.ppsp(g1(), 0, 3, "astar", heuristic=(zero, zero)).distance == sp.dijkstra(g1(), 0)[3]


def test_disconnected_bids_early_out():
    # a triangle around the source and a 9-vertex path ending at the
    # target: the endpoints' component labels differ, so neither side is
    # seeded and no step runs
    path = [(v, v + 1, 1.0) for v in range(3, 11)]
    g = sp.build_csr(12, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), *path], symmetrize=True)
    zero = zero_heuristic()
    for search in (BidsSearch(g, 0, 11), BidAstarSearch(g, 0, 11, zero, zero)):
        stats = run_search(g, search, sp.StepPolicy(1.0))
        assert search.best == np.inf
        assert stats.steps == 0, type(search).__name__
    assert sp.ppsp(g, 0, 11, "bids").distance == np.inf
    assert sp.ppsp(g, 0, 11, "bidastar", heuristic=(zero, zero)).distance == np.inf


def test_disconnected_et_returns_inf():
    g = two_triangles()
    assert sp.ppsp(g, 1, 5, "et").distance == np.inf


def test_geometric_bidastar_matches_oracle():
    g = geometric_graph(1000, 5, 4)
    pairs = random_pairs_same_component(g, 50, 11)
    for s, t in pairs.tolist():
        want = sp.dijkstra(g, s)[t]
        got = sp.ppsp(g, s, t, "bidastar").distance
        assert got == pytest.approx(want, rel=1e-9)


def test_astar_geometric_matches_oracle():
    g = geometric_graph(600, 5, 8)
    pairs = random_pairs_same_component(g, 25, 3)
    for s, t in pairs.tolist():
        want = sp.dijkstra(g, s)[t]
        assert sp.ppsp(g, s, t, "astar").distance == pytest.approx(want, rel=1e-9)


EARTH_KM = 6371.0088
KM_PER_MILE = 1.609344


def _halved_weights():
    g = geometric_graph(5000, 6, 1)
    return dataclasses.replace(g, weights=g.weights / 2)


@pytest.mark.parametrize(
    "make, scale",
    [
        (_halved_weights, 0.5),
        (lambda: latlon_graph(3000, 6, 1, EARTH_KM), EARTH_KM),
        (lambda: latlon_graph(3000, 6, 1, EARTH_KM / KM_PER_MILE), EARTH_KM / KM_PER_MILE),
    ],
    ids=["halved-weights", "latlon-km", "latlon-miles"],
)
def test_astar_exact_whatever_the_weight_units(make, scale):
    # weights shorter than the coordinate lengths, or in other units than
    # the coordinates, scale the heuristic instead of misleading it
    g = make()
    assert g.coord_scale == pytest.approx(scale, rel=1e-9)
    for s, t in sp.percentile_pairs(g, 20, 90, 1).tolist():
        want = sp.dijkstra(g, s)[t]
        for strategy in ("astar", "bidastar"):
            assert sp.ppsp(g, s, t, strategy).distance == pytest.approx(want, rel=1e-9), (strategy, s, t)


def test_symmetry_of_endpoints():
    g = geometric_graph(300, 4, 17)
    pairs = random_pairs_same_component(g, 8, 5)
    for s, t in pairs.tolist():
        for strat in sp.STRATEGIES:
            assert sp.ppsp(g, s, t, strat).distance == pytest.approx(
                sp.ppsp(g, t, s, strat).distance, rel=1e-12
            )


def test_best_trace_nonincreasing():
    g = random_graph(150, 4, 9)
    pairs = random_pairs_same_component(g, 5, 7)
    for s, t in pairs.tolist():
        for search in (EtSearch(g, s, t), BidsSearch(g, s, t)):
            trace = []  # the best answer after each on_improved call
            watch_hook(search, "on_improved", lambda cells, search=search: trace.append(search.best))
            run_search(g, search)
            finite = [x for x in trace if np.isfinite(x)]
            assert finite and all(a >= b for a, b in zip(finite, finite[1:]))
            assert trace[-1] == sp.dijkstra(g, s)[t]


def test_memoization_counts():
    g = geometric_graph(500, 5, 20)
    evaluated = []
    base = sp.heuristic_for_graph(g, 400)

    def h(vertices):
        evaluated.append(np.array(vertices, copy=True))
        return base(vertices)

    a = sp.ppsp(g, 3, 400, "astar", heuristic=h)
    seen = np.concatenate(evaluated)
    assert a.extras["heuristic_computations"] == seen.size == np.unique(seen).size <= g.n
    # requests count what an uncached table would have computed
    assert a.extras["heuristic_computations"] < a.extras["heuristic_requests"]
    assert a.distance == sp.ppsp(g, 3, 400, "astar").distance


def test_et_prune_boundary():
    g = g1()
    search = EtSearch(g, 0, 3)
    search.best = 10.0
    search.dist[1] = 10.0
    search.dist[2] = 9.9
    keep_or_prune = search.prune(np.array([1, 2]))
    assert keep_or_prune.tolist() == [True, False]


def test_bids_prune_boundary():
    g = g1()
    search = BidsSearch(g, 0, 3)
    search.best = 10.0
    # cell v * 2 + 0 is the forward copy of vertex v
    search.dist[2] = 4.9
    search.dist[4] = 5.0
    out = search.prune(np.array([2, 4]))
    assert out.tolist() == [False, True]


def test_astar_prune_uses_keys():
    search = AstarSearch(g1(), 0, 3, lambda v: np.full(np.shape(v), 2.0))
    search.best = 10.0
    search.dist[1] = 8.0  # key 10: at the bound
    search.dist[2] = 7.9
    search.on_improved(np.array([1, 2]))  # reached, as the engine reports them
    assert search.prune(np.array([1, 2])).tolist() == [True, False]


def test_bidastar_prune_uses_keys():
    g = g1().with_coords(np.zeros((4, 2)), "euclidean")
    zeros = lambda v: np.zeros(np.shape(v))
    fours = lambda v: 4.0 * np.ones(np.shape(v))
    search = BidAstarSearch(g, 0, 3, zeros, fours)  # forward estimate is +2
    search.best = 10.0
    cell = 2  # forward copy of vertex 1, with estimate +2
    search.dist[cell] = 3.0
    search.on_improved(np.array([cell]))  # reached, as the engine reports it
    assert search.prune(np.array([cell])).tolist() == [True]
    search.dist[cell] = 2.9
    search.on_improved(np.array([cell]))
    assert search.prune(np.array([cell])).tolist() == [False]


def _counting(base, seen):
    def h(vertices):
        seen.append(np.asarray(vertices, dtype=np.int64).copy())
        return base(vertices)

    return h


def test_heuristic_computed_once_per_vertex():
    # a heuristic is looked up when a cell is reached, and the memo table
    # computes each vertex at most once over the whole search
    g = geometric_graph(2_000, 5, 12)
    for s, t in random_pairs_same_component(g, 4, 13).tolist():
        seen = []
        a = sp.ppsp(g, s, t, "astar", heuristic=_counting(sp.heuristic_for_graph(g, t), seen))
        computed = np.concatenate(seen)
        assert np.unique(computed).size == computed.size == a.extras["heuristic_computations"]
        assert a.extras["heuristic_requests"] >= computed.size
        seen_s, seen_t = [], []
        pair = (_counting(sp.heuristic_for_graph(g, s), seen_s), _counting(sp.heuristic_for_graph(g, t), seen_t))
        b = sp.ppsp(g, s, t, "bidastar", heuristic=pair)
        for part in (seen_s, seen_t):
            computed = np.concatenate(part)
            assert np.unique(computed).size == computed.size == b.extras["heuristic_computations"]


def test_keys_are_distance_plus_signed_heuristic():
    # on every reached cell a key is dist + h (astar) or dist +/- h
    # (bidastar: + forward, - backward), bit for bit
    g = geometric_graph(2_000, 5, 14)
    for s, t in random_pairs_same_component(g, 3, 15).tolist():
        h_s, h_t = sp.heuristic_for_graph(g, s), sp.heuristic_for_graph(g, t)
        astar = AstarSearch(g, s, t, h_t)
        run_search(g, astar)
        cells = np.flatnonzero(np.isfinite(astar.dist))
        want = astar.dist[cells] + h_t(cells)
        assert np.array_equal(astar.keys(cells).view(np.uint64), want.view(np.uint64))
        bid = BidAstarSearch(g, s, t, h_s, h_t)
        run_search(g, bid)
        cells = np.flatnonzero(np.isfinite(bid.dist))
        forward = 0.5 * (h_t(cells >> 1) - h_s(cells >> 1))
        want = bid.dist[cells] + np.where(cells & 1, -forward, forward)
        assert np.array_equal(bid.keys(cells).view(np.uint64), want.view(np.uint64))


def test_bids_update_sum_rule():
    g = g1()
    search = BidsSearch(g, 0, 3)
    fwd, bwd = 2, 3  # the two copies of vertex 1
    search.dist[fwd] = 3.0
    assert search.on_improved(np.array([fwd])) is False
    assert search.best == np.inf  # opposite side unreached
    search.dist[bwd] = 4.0
    assert search.on_improved(np.array([bwd])) is True  # the prune bound tightened
    assert search.best == 7.0
    assert search.on_improved(np.array([bwd])) is False  # same sum: no tighter bound


def test_et_update_on_target():
    g = g1()
    search = EtSearch(g, 0, 3)
    search.best = 9.0
    search.dist[3] = 6.0
    assert search.on_improved(np.array([3])) is True
    assert search.best == 6.0
    search.dist[1] = 1.0
    assert search.on_improved(np.array([1])) is False
    assert search.best == 6.0


def test_answer_counters_present():
    a = sp.ppsp(g1(), 0, 3, "bids")
    assert a.steps >= 1
    assert a.relaxations >= 1
    assert a.settled_copies >= 2


def test_ppsp_adds_nothing_to_the_schedule():
    # ppsp hands its policy to run_search unchanged: same counters as
    # driving the same Search directly
    g = geometric_graph(800, 5, 31)
    h = lambda anchor: sp.heuristic_for_graph(g, anchor)
    makers = {
        "sssp": lambda s, t: SsspSearch(g, s),
        "et": lambda s, t: EtSearch(g, s, t),
        "bids": lambda s, t: BidsSearch(g, s, t),
        "astar": lambda s, t: AstarSearch(g, s, t, h(t)),
        "bidastar": lambda s, t: BidAstarSearch(g, s, t, h(s), h(t)),
    }
    assert set(makers) == set(sp.STRATEGIES)
    top = g.max_weight
    policies = [sp.default_policy(g), sp.StepPolicy(top / 4), sp.StepPolicy(top / 16, min_copies=16)]
    for s, t in random_pairs_same_component(g, 4, 8).tolist():
        for strategy, make in makers.items():
            for policy in policies:
                a = sp.ppsp(g, s, t, strategy, policy=policy)
                stats = run_search(g, make(s, t), policy)
                got = (a.steps, a.relaxations, a.settled_copies)
                assert got == (stats.steps, stats.relaxations, stats.settled_copies), (strategy, policy)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at_seed", [True, False])
@pytest.mark.parametrize("strategy", ["astar", "bidastar"])
def test_non_finite_heuristic_rejected(strategy, at_seed, bad):
    # the bad value sits on the source (checked as the seed enters the
    # frontier) or on vertex 2 (first asked for mid-search)
    where = 0 if at_seed else 2

    def broken(vertices):
        return np.where(vertices == where, bad, 0.0)

    zero = zero_heuristic()
    heuristic = broken if strategy == "astar" else (zero, broken)
    with pytest.raises(ValueError, match="heuristic .* non-finite"):
        sp.ppsp(g1(), 0, 3, strategy, heuristic=heuristic)
