import numpy as np
import pytest

import steppath as sp
from steppath.engine import SsspSearch, run_search
from steppath.ppsp import AstarSearch, BidAstarSearch, BidsSearch, EtSearch
from helpers import (
    g1,
    geometric_graph,
    random_graph,
    random_pairs_same_component,
    two_triangles,
    watch_hook,
)


def test_et_on_g1():
    assert sp.ppsp(g1(), 0, 3, "et").distance == 4.0


def test_all_strategies_match_oracle_on_g1():
    g = g1()
    zero = sp.zero_heuristic()
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
    with pytest.raises(ValueError):
        sp.ppsp(g1(), 0, 3, "bidastar", heuristic=sp.zero_heuristic())


def test_disconnected_bids_early_out():
    # a triangle around the source and a 9-vertex path ending at the
    # target: at Δ = 1 the forward side is done after two steps, while
    # the backward side would need eight more
    path = [(v, v + 1, 1.0) for v in range(3, 11)]
    g = sp.build_csr(12, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), *path], symmetrize=True)
    search = BidsSearch(g, 0, 11)
    forward_pending = []  # per extraction: is an even (forward) cell pending?
    watch_hook(search, "keys", lambda cells: forward_pending.append(bool(np.any(cells % 2 == 0))))
    stats = run_search(g, search, sp.StepPolicy(1.0))
    assert search.best == np.inf
    # the loop stops as soon as the forward side is exhausted
    assert forward_pending and all(forward_pending)
    assert stats.steps == 2
    assert sp.ppsp(g, 0, 11, "bids").distance == np.inf


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


def test_validate_heuristic_rejects_inconsistent():
    g = geometric_graph(80, 4, 12)
    too_big = lambda v: 100.0 * np.ones(np.shape(v))

    def anchored(v):
        est = 100.0 * np.ones(np.shape(v))
        est[np.asarray(v) == 5] = 0.0
        return est

    with pytest.raises(ValueError):
        sp.ppsp(g, 0, 5, "astar", heuristic=anchored, validate_heuristic=True)
    # the zero heuristic passes validation
    sp.ppsp(g, 0, 5, "astar", heuristic=sp.zero_heuristic(), validate_heuristic=True)


def test_memoization_counts():
    g = geometric_graph(500, 5, 20)
    a = sp.ppsp(g, 3, 400, "astar")
    assert a.extras["heuristic_computations"] <= g.n
    assert a.extras["heuristic_computations"] <= a.extras["heuristic_requests"]
    b = sp.ppsp(g, 3, 400, "astar", memoize=False)
    assert b.distance == a.distance
    assert a.extras["heuristic_computations"] <= b.extras["heuristic_computations"]


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


def test_bidastar_prune_uses_keys():
    g = g1().with_coords(np.zeros((4, 2)), "euclidean")
    zeros = lambda v: np.zeros(np.shape(v))
    fours = lambda v: 4.0 * np.ones(np.shape(v))
    search = BidAstarSearch(g, 0, 3, zeros, fours)  # forward estimate is +2
    search.best = 10.0
    cell = 2  # forward copy of vertex 1, with estimate +2
    search.dist[cell] = 3.0
    assert search.prune(np.array([cell])).tolist() == [True]
    search.dist[cell] = 2.9
    assert search.prune(np.array([cell])).tolist() == [False]


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
    top = g.max_weight()
    policies = [sp.default_policy(g), sp.StepPolicy(top / 4), sp.StepPolicy(top / 16, min_copies=16)]
    for s, t in random_pairs_same_component(g, 4, 8).tolist():
        for strategy, make in makers.items():
            for policy in policies:
                a = sp.ppsp(g, s, t, strategy, policy=policy)
                stats = run_search(g, make(s, t), policy)
                got = (a.steps, a.relaxations, a.settled_copies)
                assert got == (stats.steps, stats.relaxations, stats.settled_copies), (strategy, policy)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("memoize", [True, False])
@pytest.mark.parametrize("strategy", ["astar", "bidastar"])
def test_non_finite_heuristic_rejected(strategy, memoize, bad):
    def broken(vertices):
        return np.where(vertices == 2, bad, 0.0)

    zero = sp.zero_heuristic()
    heuristic = broken if strategy == "astar" else (zero, broken)
    with pytest.raises(ValueError, match="heuristic .* non-finite"):
        sp.ppsp(g1(), 0, 3, strategy, heuristic=heuristic, memoize=memoize)
