import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import steppath as sp
from steppath.batch import MultiBidsSearch
from steppath.engine import Frontier, SsspSearch, _scatter_min, run_search
from steppath.ppsp import AstarSearch, BidAstarSearch, BidsSearch, EtSearch
from helpers import g1, geometric_graph, random_graph, random_pairs_same_component, two_triangles, watch_hook


def test_scatter_min_contract():
    vals = np.array([5.0, 3.0, 3.0, 9.0, 6.0])
    # unsorted keys with duplicates; key 4 gets no candidate
    keys = np.array([3, 2, 0, 1, 0, 2, 3, 1])
    cand = np.array([2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 1.0, 5.0])
    changed = _scatter_min(vals, keys, cand)
    # strict decreases 5 -> 4 and 9 -> 1, each key reported once, ascending
    assert changed.tolist() == [0, 3]
    # key 1 only saw larger candidates, key 2 tied its current value
    assert vals.tolist() == [4.0, 3.0, 3.0, 1.0, 6.0]
    empty = _scatter_min(vals, np.empty(0, dtype=np.int64), np.empty(0))
    assert empty.size == 0
    assert vals.tolist() == [4.0, 3.0, 3.0, 1.0, 6.0]
    # every candidate ties or exceeds its cell: nothing to group
    none = _scatter_min(vals, np.array([2, 0, 2, 4]), np.array([3.0, 4.0, 7.0, 6.0]))
    assert none.dtype == np.int64 and none.size == 0
    assert vals.tolist() == [4.0, 3.0, 3.0, 1.0, 6.0]
    # an unreached cell offered an unreachable candidate does not improve
    unreached = np.array([np.inf, 2.0])
    assert _scatter_min(unreached, np.array([0, 0]), np.array([np.inf, np.inf])).size == 0
    assert unreached.tolist() == [np.inf, 2.0]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(0, 8).map(float), st.just(np.inf)), min_size=1, max_size=6),
    st.lists(
        st.tuples(st.integers(0, 5), st.one_of(st.integers(0, 9).map(float), st.just(np.inf))),
        max_size=40,
    ),
)
def test_scatter_min_matches_write_min_loop(cells, offers):
    vals = np.array(cells)
    pairs = [(k % len(cells), c) for k, c in offers]
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    cand = np.array([c for _, c in pairs], dtype=np.float64)
    # reference: one write-min per candidate, in input order
    want = list(cells)
    improved = set()
    for k, c in pairs:
        if c < want[k]:
            want[k] = c
            improved.add(k)
    changed = _scatter_min(vals, keys, cand)
    assert changed.tolist() == sorted(improved)
    assert vals.tolist() == want


def test_step_policy_thresholds():
    pol = sp.StepPolicy(2.0)
    assert [pol.threshold(i) for i in range(3)] == [0.0, 2.0, 4.0]
    assert pol.index_covering(0.0) == 0
    assert pol.index_covering(2.0) == 1
    assert pol.index_covering(2.1) == 2
    with pytest.raises(ValueError):
        sp.StepPolicy(0.0)
    with pytest.raises(ValueError):
        sp.StepPolicy(-1.0)
    with pytest.raises(ValueError):
        sp.StepPolicy(np.inf)
    assert sp.StepPolicy(2.0).min_copies == 1
    assert sp.StepPolicy(2.0, min_copies=np.int64(64)).min_copies == 64
    for bad in (0, -3, 2.5, True):
        with pytest.raises(ValueError):
            sp.StepPolicy(2.0, min_copies=bad)


def test_frontier_add_dedup():
    f = Frontier(10)
    assert f.add_many(np.array([2])) == 1
    assert f.size == 1
    assert f.add_many(np.array([2])) == 0
    assert f.size == 1
    assert f.add_many(np.array([2, 3])) == 1
    assert f.size == 2


def test_frontier_distinct_copies_of_same_vertex():
    # cells 4 and 5 are the two search copies of vertex 2
    f = Frontier(12)
    assert f.add_many(np.array([4])) == 1
    assert f.add_many(np.array([5])) == 1
    assert f.size == 2
    assert sorted(f.pending.tolist()) == [4, 5]


def test_frontier_extract_inclusive():
    keys = np.array([2.0, 7.0, np.inf])
    f = Frontier(3)
    f.add_many(np.array([0, 1]))
    out, left = f.extract(5.0, lambda cells: keys[cells])
    assert out.tolist() == [0]
    assert left == 7.0
    f.add_many(np.array([0]))
    out, left = f.extract(7.0, lambda cells: keys[cells])
    assert sorted(out.tolist()) == [0, 1]
    assert left == np.inf
    out, left = f.extract(100.0, lambda cells: keys[cells])
    assert out.size == 0 and left == np.inf


def test_frontier_extract_min_copies():
    keys = np.array([5.0, 1.0, 3.0, 3.0, 9.0, 3.0, 7.0])

    def key_fn(cells):
        return keys[cells]

    def full():
        f = Frontier(keys.size)
        f.add_many(np.arange(keys.size))
        return f

    # the window <= 1 holds one copy; the 3rd smallest key is 3.0 and all
    # three copies tied with it come along
    f = full()
    out, left = f.extract(1.0, key_fn, min_copies=3)
    assert sorted(out.tolist()) == [1, 2, 3, 5]
    assert left == 5.0 and f.size == 3
    # three copies pending, none in the window: all of them are taken
    out, left = f.extract(0.0, key_fn, min_copies=3)
    assert sorted(out.tolist()) == [0, 4, 6]
    assert left == np.inf and f.size == 0
    f = full()
    out, left = f.extract(0.0, key_fn, min_copies=100)
    assert sorted(out.tolist()) == list(range(keys.size))
    # a window that already holds min_copies copies is taken unchanged
    f = full()
    out, left = f.extract(5.0, key_fn, min_copies=5)
    assert sorted(out.tolist()) == [0, 1, 2, 3, 5]
    assert left == 7.0
    # min_copies=1 is the plain window, empty or not
    for threshold in (0.0, 1.0, 3.0, 8.0, 100.0):
        f = full()
        out, left = f.extract(threshold, key_fn, min_copies=1)
        assert sorted(out.tolist()) == np.flatnonzero(keys <= threshold).tolist()
        rest = keys[keys > threshold]
        assert left == (rest.min() if rest.size else np.inf)
        assert f.size == rest.size


def test_frontier_discard():
    f = Frontier(10)
    assert f.discard(lambda cells: np.ones(cells.shape, dtype=bool)) == 0  # empty: no-op
    assert f.size == 0
    f.add_many(np.array([1, 4, 6, 9]))
    assert f.discard(lambda cells: cells % 2 == 0) == 2
    assert sorted(f.pending.tolist()) == [1, 9] and f.size == 2
    assert f.discard(lambda cells: np.zeros(cells.shape, dtype=bool)) == 0
    assert sorted(f.pending.tolist()) == [1, 9]
    # a dropped cell is no longer a member, so it can come back
    assert f.add_many(np.array([4, 9])) == 1
    out, left = f.extract(np.inf, lambda cells: cells.astype(float))
    assert sorted(out.tolist()) == [1, 4, 9] and left == np.inf and f.size == 0


def test_frontier_single_direction():
    # a bidirectional search gives up while it has no answer and only one
    # side (even cells forward, odd cells backward) is still pending
    search = BidsSearch(two_triangles(), 0, 4)
    f = Frontier(12)
    f.add_many(np.array([0, 2, 4]))
    assert search.early_out(f)
    f.add_many(np.array([1]))
    assert not search.early_out(f)
    f.extract(np.inf, search.keys)
    f.add_many(np.array([3, 7]))
    assert search.early_out(f)
    search.best = 5.0  # with an answer the search runs on
    assert not search.early_out(f)
    with pytest.raises(ValueError):
        f.pending[0] = 9  # the accessor is read-only


def test_sssp_g1():
    g = g1()
    assert sp.sssp(g, 0).tolist() == [0.0, 1.0, 3.0, 4.0]
    assert sp.sssp(g, 3).tolist() == [4.0, 3.0, 1.0, 0.0]


def test_sssp_single_vertex():
    g = sp.build_csr(1, [])
    assert sp.sssp(g, 0).tolist() == [0.0]


def test_sssp_source_out_of_range():
    with pytest.raises(ValueError):
        sp.sssp(g1(), 7)


def test_sssp_unreachable_inf():
    g = sp.build_csr(4, [(0, 1, 2.0)], symmetrize=True)
    assert sp.sssp(g, 0).tolist() == [0.0, 2.0, np.inf, np.inf]


def test_sssp_matches_oracle_across_deltas():
    for seed in range(8):
        g = random_graph(150, 3, seed)
        want = sp.dijkstra(g, 0)
        for delta in (1.0, 2.0**9, 2.0**18, 1e30):
            got = sp.sssp(g, 0, policy=sp.StepPolicy(delta))
            assert np.array_equal(got, want), (seed, delta)


def test_step_counting_on_g1():
    g = g1()
    _, stats = sp.sssp(g, 0, policy=sp.StepPolicy(1.0), return_stats=True)
    # thresholds 0,1,3,4 each extract; 2 is skipped by the fast-forward
    assert stats.steps == 4
    assert stats.settled_copies == 4
    _, wide = sp.sssp(g, 0, policy=sp.StepPolicy(1e30), return_stats=True)
    assert wide.settled_copies == 4
    assert wide.steps <= 4


def test_fast_forward_skips_empty_thresholds():
    # weights make distances 0 and 2^17, so delta=1 must jump, not crawl
    g = sp.build_csr(2, [(0, 1, float(2**17))], symmetrize=True)
    _, stats = sp.sssp(g, 0, policy=sp.StepPolicy(1.0), return_stats=True)
    assert stats.steps == 2


def test_improvements_are_strictly_decreasing():
    seen = {}

    class Probe(SsspSearch):
        def on_improved(self, cells):
            for c in cells.tolist():
                now = float(self.dist[c])
                assert now < seen.get(c, np.inf)
                seen[c] = now

    g = random_graph(100, 3, 2)
    probe = Probe(g, 0)
    run_search(g, probe, policy=sp.StepPolicy(64.0))
    assert np.array_equal(probe.dist, sp.dijkstra(g, 0))


@st.composite
def _integer_graphs(draw):
    """Small integer-weight multigraphs: zero weights, parallel arcs,
    self-loops and several components are all allowed."""
    n = draw(st.integers(2, 24))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 6)), max_size=3 * n))
    return sp.build_csr(n, [(u, v, float(w)) for u, v, w in edges], symmetrize=True)


def _half_distance_heuristic(graph, target):
    """Consistent integer heuristic: floor(d(v, target) / 2), 0 off the target's component."""
    d = sp.dijkstra(graph, target)
    h = np.where(np.isfinite(d), np.floor(d / 2.0), 0.0)
    return lambda v: h[v]


@settings(max_examples=200, deadline=None)
@given(
    _integer_graphs(),
    st.floats(0.25, 16.0),
    st.integers(1, 40),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=6),
)
def test_step_rule_keeps_integer_answers_exact(g, delta, min_copies, raw_pairs):
    policy = sp.StepPolicy(delta, min_copies=min_copies)
    pairs = [(s % g.n, t % g.n) for s, t in raw_pairs]
    rows = {s: sp.dijkstra(g, s) for s, _ in pairs}
    for s, t in pairs:
        assert np.array_equal(sp.sssp(g, s, policy=policy), rows[s])
        heuristics = {
            "astar": _half_distance_heuristic(g, t),
            "bidastar": (_half_distance_heuristic(g, s), _half_distance_heuristic(g, t)),
        }
        for strategy in sp.STRATEGIES:
            got = sp.ppsp(g, s, t, strategy, policy=policy, heuristic=heuristics.get(strategy))
            assert got.distance == rows[s][t], (strategy, s, t)
    qg = sp.build_query_graph(pairs, g.n)
    want = [rows[s][t] for s, t in pairs]
    for algo in sp.BATCH_ALGOS:
        if algo == "multi":
            ans = sp.multi_bids(g, qg, policy=policy)
        elif algo == "vc":
            ans = sp.vc_sssp_batch(g, qg, policy=policy)
        else:
            ans = sp.baseline_batch(g, qg, algo, policy=policy)
        assert ans.distances.tolist() == want, algo


@settings(max_examples=100, deadline=None)
@given(
    _integer_graphs(),
    st.floats(0.25, 16.0),
    st.integers(1, 40),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=4),
)
# the answer 2 arrives while vertex 3 (distance 5) is pending: a tightening
# must drop it, for every strategy
@example(sp.build_csr(5, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0), (3, 4, 1.0)], symmetrize=True), 1.0, 1, [(0, 2)])
def test_frontier_never_holds_a_prunable_copy(g, delta, min_copies, raw_pairs):
    # early_out runs right before each extraction and is handed the
    # frontier, so watching it sees the whole pending set a step takes from
    policy = sp.StepPolicy(delta, min_copies=min_copies)
    pairs = [(s % g.n, t % g.n) for s, t in raw_pairs]
    rows = {s: sp.dijkstra(g, s) for s, _ in pairs}

    def run(search):
        flagged = []
        watch_hook(search, "early_out", lambda f: flagged.append(int(search.prune(f.pending).sum())))
        run_search(g, search, policy)
        assert flagged and not any(flagged), type(search).__name__

    for s, t in pairs:
        if s == t:
            continue
        h_s, h_t = _half_distance_heuristic(g, s), _half_distance_heuristic(g, t)
        for search in (
            EtSearch(g, s, t),
            AstarSearch(g, s, t, h_t),
            BidsSearch(g, s, t),
            BidAstarSearch(g, s, t, h_s, h_t),
        ):
            run(search)
            assert search.best == rows[s][t], type(search).__name__
    qg = sp.build_query_graph(pairs, g.n)
    if len(qg.edges):
        search = MultiBidsSearch(g, qg)
        run(search)
        ends = qg.endpoints[qg.edges]
        assert search.edge_best.tolist() == [rows[s][t] if s in rows else rows[t][s] for s, t in ends]


def _under_reporting(cls):
    class Quiet(cls):
        def on_improved(self, cells):
            super().on_improved(cells)
            return False

    return Quiet


def test_under_reported_tightening_stays_exact():
    # a hook that never reports a tighter bound leaves prunable copies
    # pending; expanding them costs work but offers only real path lengths
    g = random_graph(300, 3, 5)
    pairs = random_pairs_same_component(g, 4, 6).tolist() + [[0, int(np.flatnonzero(g.degrees == 0)[0])]]
    for s, t in pairs:
        want = sp.dijkstra(g, s)[t]
        for cls in (EtSearch, BidsSearch):
            search = _under_reporting(cls)(g, s, t)
            run_search(g, search)
            assert search.best == want, (cls.__name__, s, t)
    qg = sp.build_query_graph(pairs, g.n)
    search = _under_reporting(MultiBidsSearch)(g, qg)
    run_search(g, search)
    want = [sp.dijkstra(g, int(s))[int(t)] for s, t in qg.endpoints[qg.edges]]
    assert search.edge_best.tolist() == want


@settings(max_examples=80, deadline=None)
@given(
    st.integers(20, 120),
    st.integers(2, 5),
    st.integers(0, 2**31),
    st.floats(0.01, 4.0),
    st.integers(1, 200),
    st.integers(0, 2**31),
)
def test_step_rule_on_float_weights(n, k, graph_seed, delta_share, min_copies, pair_seed):
    g = geometric_graph(n, k, graph_seed)
    policy = sp.StepPolicy(delta_share * g.max_weight(), min_copies=min_copies)
    rng = np.random.default_rng(pair_seed)
    for s, t in rng.integers(0, n, (3, 2)).tolist():
        want = sp.dijkstra(g, s)
        assert np.array_equal(sp.sssp(g, s, policy=policy), want)
        for strategy in ("et", "astar"):
            assert sp.ppsp(g, s, t, strategy, policy=policy).distance == want[t], strategy
        # the meeting-point sum is exact only up to rounding
        for strategy in ("bids", "bidastar"):
            got = sp.ppsp(g, s, t, strategy, policy=policy).distance
            assert got == want[t] or abs(got - want[t]) <= 1e-15 * want[t], strategy
