import numpy as np
import pytest

import steppath as sp
from steppath.ppsp import AstarSearch, BidAstarSearch, BidsSearch, EtSearch
from helpers import g1, geometric_graph, random_graph, random_pairs_same_component, two_triangles


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
    g = two_triangles()
    a = sp.ppsp(g, 0, 4, "bids")
    assert a.distance == np.inf
    last_fwd = a.extras["dir_last_step"][0]
    assert a.steps <= last_fwd + 2


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


def test_pruning_off_same_answer():
    g = random_graph(120, 3, 6)
    zero = sp.zero_heuristic()
    pairs = random_pairs_same_component(g, 10, 2)
    for s, t in pairs.tolist():
        for strat in ("et", "bids"):
            a = sp.ppsp(g, s, t, strat)
            b = sp.ppsp(g, s, t, strat, pruning=False)
            assert a.distance == b.distance
        a = sp.ppsp(g, s, t, "astar", heuristic=zero)
        b = sp.ppsp(g, s, t, "astar", heuristic=zero, pruning=False)
        assert a.distance == b.distance


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
        for strat in ("et", "bids"):
            trace = sp.ppsp(g, s, t, strat, collect_best_trace=True).extras["best_trace"]
            finite = [x for x in trace if np.isfinite(x)]
            assert all(a >= b for a, b in zip(finite, finite[1:]))


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
    search.state.values[1] = 10.0
    search.state.values[2] = 9.9
    keep_or_prune = search.prune(np.array([1, 2]))
    assert keep_or_prune.tolist() == [True, False]


def test_bids_prune_boundary():
    g = g1()
    search = BidsSearch(g, 0, 3)
    search.best = 10.0
    # cell v * 2 + 0 is the forward copy of vertex v
    search.state.values[2] = 4.9
    search.state.values[4] = 5.0
    out = search.prune(np.array([2, 4]))
    assert out.tolist() == [False, True]


def test_bidastar_prune_uses_keys():
    g = g1().with_coords(np.zeros((4, 2)), "euclidean")
    zeros = lambda v: np.zeros(np.shape(v))
    fours = lambda v: 4.0 * np.ones(np.shape(v))
    search = BidAstarSearch(g, 0, 3, zeros, fours)  # forward estimate is +2
    search.best = 10.0
    cell = 2  # forward copy of vertex 1, with estimate +2
    search.state.values[cell] = 3.0
    assert search.prune(np.array([cell])).tolist() == [True]
    search.state.values[cell] = 2.9
    assert search.prune(np.array([cell])).tolist() == [False]


def test_bids_update_sum_rule():
    g = g1()
    search = BidsSearch(g, 0, 3)
    fwd, bwd = 2, 3  # the two copies of vertex 1
    search.state.values[fwd] = 3.0
    search.on_improved(np.array([fwd]))
    assert search.best == np.inf  # opposite side unreached
    search.state.values[bwd] = 4.0
    search.on_improved(np.array([bwd]))
    assert search.best == 7.0


def test_et_update_on_target():
    g = g1()
    search = EtSearch(g, 0, 3)
    search.best = 9.0
    search.state.values[3] = 6.0
    search.on_improved(np.array([3]))
    assert search.best == 6.0
    search.state.values[1] = 1.0
    search.on_improved(np.array([1]))
    assert search.best == 6.0


def test_directional_weights_follow_potential():
    # reweighting by a vertex potential keeps both travel directions
    # consistent while making forward and backward arc costs differ
    g = g1()
    potential = np.array([0.0, 0.3, 0.1, 0.5])
    fwd, bwd = sp.induced_arc_weights(g, potential)
    assert not np.array_equal(fwd, bwd)
    a = sp.ppsp(g, 0, 3, "bids", directional_weights=(fwd, bwd))
    shifted = sp.build_csr(4, np.column_stack([g.arc_sources(), g.targets, fwd]))
    want = sp.sssp(shifted, 0)[3]
    assert a.distance == pytest.approx(want, rel=1e-12)
    assert a.distance == pytest.approx(4.0 - potential[0] + potential[3], rel=1e-12)


def test_answer_counters_present():
    a = sp.ppsp(g1(), 0, 3, "bids")
    assert a.steps >= 1
    assert a.relaxations >= 1
    assert a.settled_copies >= 2


@pytest.mark.parametrize(
    "strategy, make",
    [
        ("bids", lambda m: (np.ones(3), np.ones(3))),
        ("bids", lambda m: (np.full(m, np.nan), np.full(m, np.nan))),
        ("bids", lambda m: (np.full(m, -1.0), np.full(m, -1.0))),
        # valid arrays, but only bids applies them
        *((s, lambda m: (np.ones(m), np.ones(m))) for s in ("sssp", "et", "astar", "bidastar")),
    ],
    ids=["wrong-shape", "nan", "negative", "sssp", "et", "astar", "bidastar"],
)
def test_directional_weights_validated(strategy, make):
    g = g1()
    for source, target in ((0, 3), (2, 2)):  # s == t is checked too
        with pytest.raises(ValueError, match="directional weights"):
            sp.ppsp(g, source, target, strategy, directional_weights=make(g.m))


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
