import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import steppath as sp
from steppath import engine
from steppath.batch import MultiBidsSearch
from steppath.engine import DEFAULT_MIN_COPIES, Frontier, SsspSearch, _scatter_min, run_search
from steppath.ppsp import AstarSearch, BidAstarSearch, BidsSearch, EtSearch
from helpers import g1, geometric_graph, random_graph, random_pairs_same_component


def _scatter(vals, keys, cand):
    """Run _scatter_min on a stamp full of junk; check each cell is reported once."""
    stamp = np.full(vals.size, 7, dtype=np.int64)
    changed = _scatter_min(vals, np.asarray(keys, dtype=np.int64), np.asarray(cand, dtype=np.float64), stamp)
    assert changed.dtype == np.int64
    assert np.unique(changed).size == changed.size, "a cell reported twice"
    return changed


def test_scatter_min_contract():
    vals = np.array([5.0, 3.0, 3.0, 9.0, 6.0])
    # unsorted keys with duplicates; key 4 gets no candidate
    keys = np.array([3, 2, 0, 1, 0, 2, 3, 1])
    cand = np.array([2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 1.0, 5.0])
    changed = _scatter(vals, keys, cand)
    # strict decreases 5 -> 4 and 9 -> 1, each key reported once, in any order
    assert sorted(changed.tolist()) == [0, 3]
    # key 1 only saw larger candidates, key 2 tied its current value
    assert vals.tolist() == [4.0, 3.0, 3.0, 1.0, 6.0]
    empty = _scatter(vals, np.empty(0, dtype=np.int64), np.empty(0))
    assert empty.size == 0
    assert vals.tolist() == [4.0, 3.0, 3.0, 1.0, 6.0]
    # every candidate ties or exceeds its cell: nothing to group
    none = _scatter(vals, np.array([2, 0, 2, 4]), np.array([3.0, 4.0, 7.0, 6.0]))
    assert none.size == 0
    assert vals.tolist() == [4.0, 3.0, 3.0, 1.0, 6.0]
    # an unreached cell offered an unreachable candidate does not improve
    unreached = np.array([np.inf, 2.0])
    assert _scatter(unreached, np.array([0, 0]), np.array([np.inf, np.inf])).size == 0
    assert unreached.tolist() == [np.inf, 2.0]


def test_scatter_min_repeated_keys_and_tied_candidates():
    # 3 cells, each offered many candidates: cell 0 ties at its new
    # minimum, cell 1 only ties its current value, cell 2 improves once
    rng = np.random.default_rng(3)
    keys = np.array([0] * 50 + [1] * 30 + [2] * 20 + [0] * 50)
    cand = np.concatenate([np.full(50, 2.0), np.full(30, 4.0), np.linspace(9.0, 5.0, 20), np.full(50, 2.0)])
    order = rng.permutation(keys.size)
    vals = np.array([6.0, 4.0, 8.0, 1.0])
    changed = _scatter(vals, keys[order], cand[order])
    assert sorted(changed.tolist()) == [0, 2]
    assert vals.tolist() == [2.0, 4.0, 5.0, 1.0]
    # the same candidates again: all tie, none improves
    assert _scatter(vals, keys[order], cand[order]).size == 0


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
    changed = _scatter(vals, keys, cand)
    assert sorted(changed.tolist()) == sorted(improved)
    assert vals.tolist() == want


def test_scatter_min_past_the_stamp_limit(monkeypatch):
    # a step with _STAMP_LIMIT survivors or more, whose positions int32
    # cannot hold, is deduplicated by a sort: same cells, same answers
    keys = np.array([3, 2, 0, 1, 0, 2, 3, 1])
    cand = np.array([2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 1.0, 5.0])
    g = geometric_graph(2_000, 6, 3)
    qg = sp.build_query_graph([(3, 1500), (40, 900), (3, 40)], g.n)

    def runs():
        vals = np.array([5.0, 3.0, 3.0, 9.0, 6.0])
        changed = sorted(_scatter(vals, keys, cand).tolist())
        answers = [sp.ppsp(g, 3, 1500, strategy) for strategy in ("et", "bids", "astar", "bidastar")]
        batch = sp.multi_bids(g, qg)
        return changed, vals.tolist(), answers, batch.distances.tolist(), batch.steps, batch.relaxations

    want = runs()
    monkeypatch.setattr(engine, "_STAMP_LIMIT", 2)
    assert runs() == want
    assert want[:2] == ([0, 3], [4.0, 3.0, 3.0, 1.0, 6.0])


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
    # a bool delta once ran as Δ = 1
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="delta must be finite and positive, got (np.)?True"):
            sp.StepPolicy(bad)
    # a non-number once raised numpy's TypeError from isfinite
    for bad in ("1", None, 1j):
        with pytest.raises(ValueError, match="delta must be finite and positive, got "):
            sp.StepPolicy(bad)
    assert sp.StepPolicy(2.0).min_copies == 1
    assert sp.StepPolicy(2.0, min_copies=np.int64(64)).min_copies == 64
    for bad in (0, -3, 2.5, True):
        with pytest.raises(ValueError):
            sp.StepPolicy(2.0, min_copies=bad)


def test_frontier_add_dedup():
    f = Frontier(np.zeros(10, bool))
    assert f.add_many(np.array([2])) == 1
    assert f.size == 1
    assert f.add_many(np.array([2])) == 0
    assert f.size == 1
    assert f.add_many(np.array([2, 3])) == 1
    assert f.size == 2


def test_frontier_distinct_copies_of_same_vertex():
    # cells 4 and 5 are the two search copies of vertex 2
    f = Frontier(np.zeros(12, bool))
    assert f.add_many(np.array([4])) == 1
    assert f.add_many(np.array([5])) == 1
    assert f.size == 2
    assert sorted(f._live().tolist()) == [4, 5]


def test_frontier_extract_inclusive():
    keys = np.array([2.0, 7.0, np.inf])
    f = Frontier(np.zeros(3, bool))
    f.add_many(np.array([0, 1]))
    out, left = f.extract(5.0, lambda cells: keys[cells])
    assert out.tolist() == [0]
    assert left is None  # something was taken: the smallest key is not read
    out, left = f.extract(5.0, lambda cells: keys[cells])
    assert out.size == 0 and left == 7.0  # nothing taken: the smallest pending key
    f.add_many(np.array([0]))
    out, left = f.extract(7.0, lambda cells: keys[cells])
    assert sorted(out.tolist()) == [0, 1]
    assert left is None
    out, left = f.extract(100.0, lambda cells: keys[cells])
    assert out.size == 0 and left == np.inf


def test_frontier_extract_min_copies():
    keys = np.array([5.0, 1.0, 3.0, 3.0, 9.0, 3.0, 7.0])

    def key_fn(cells):
        return keys[cells]

    def full():
        f = Frontier(np.zeros(keys.size, bool))
        f.add_many(np.arange(keys.size))
        return f

    # the window <= 1 holds one copy; the 3rd smallest key is 3.0 and all
    # three copies tied with it come along
    f = full()
    out, left = f.extract(1.0, key_fn, min_copies=3)
    assert sorted(out.tolist()) == [1, 2, 3, 5]
    assert left is None and f.size == 3
    # three copies pending, none in the window: all of them are taken
    out, left = f.extract(0.0, key_fn, min_copies=3)
    assert sorted(out.tolist()) == [0, 4, 6]
    assert left is None and f.size == 0
    f = full()
    out, left = f.extract(0.0, key_fn, min_copies=100)
    assert sorted(out.tolist()) == list(range(keys.size))
    # a window that already holds min_copies copies is taken unchanged
    f = full()
    out, left = f.extract(5.0, key_fn, min_copies=5)
    assert sorted(out.tolist()) == [0, 1, 2, 3, 5]
    assert left is None
    # min_copies=1 is the plain window, empty or not
    for threshold in (0.0, 1.0, 3.0, 8.0, 100.0):
        f = full()
        out, left = f.extract(threshold, key_fn, min_copies=1)
        assert sorted(out.tolist()) == np.flatnonzero(keys <= threshold).tolist()
        rest = keys[keys > threshold]
        assert left == (keys.min() if rest.size == keys.size else None)
        assert f.size == rest.size


def test_frontier_discard():
    f = Frontier(np.zeros(10, bool))
    assert f.discard(lambda cells: np.ones(cells.shape, dtype=bool)) == 0  # empty: no-op
    assert f.size == 0
    f.add_many(np.array([1, 4, 6, 9]))
    assert f.discard(lambda cells: cells % 2 == 0) == 2
    assert sorted(f._live().tolist()) == [1, 9] and f.size == 2
    assert f.discard(lambda cells: np.zeros(cells.shape, dtype=bool)) == 0
    assert sorted(f._live().tolist()) == [1, 9]
    # a dropped cell is no longer a member, so it can come back
    assert f.add_many(np.array([4, 9])) == 1
    out, left = f.extract(np.inf, lambda cells: cells.astype(float))
    assert sorted(out.tolist()) == [1, 4, 9] and left is None and f.size == 0


# cells of the model-based frontier test, and their keys: few distinct
# values, so steps meet many ties
N_MODEL = 2_600
MODEL_KEYS = np.random.default_rng(5).integers(0, 12, N_MODEL).astype(float)


@st.composite
def _frontier_ops(draw):
    """add (order seed, first cell, count, stride), extract (threshold, ρ),
    discard (key bound) and rekey (residue mod 5, ceiling) operations."""
    add = st.tuples(
        st.just("add"),
        st.integers(0, 2**16),
        st.integers(0, N_MODEL - 1),
        st.integers(0, 1_300),
        st.sampled_from([1, 2, 5]),
    )
    thresholds = st.sampled_from([-1.0, 0.0, 2.0, 5.0, 11.0, np.inf])
    extract = st.tuples(st.just("extract"), thresholds, st.sampled_from([1, 2, 3, 128]))
    discard = st.tuples(st.just("discard"), st.integers(0, 12))
    rekey = st.tuples(st.just("rekey"), st.integers(0, 4), st.integers(0, 11))
    return draw(st.lists(st.one_of(add, extract, discard, rekey), min_size=1, max_size=30))


@settings(max_examples=150, deadline=None)
@given(_frontier_ops())
# 2,600 cells pending at once: the id buffer grows past its first size
@example(
    [
        ("add", 0, 0, 1_300, 1),
        ("add", 1, 1_300, 1_300, 1),
        ("extract", 2.0, 128),
        ("discard", 9),
        ("add", 2, 0, 1_300, 2),
        ("extract", -1.0, 3),
        ("rekey", 1, 0),
        ("extract", 0.0, 1),
        ("extract", np.inf, 128),
    ]
)
def test_frontier_matches_a_set_model(ops):
    # a set of pending cells and their current keys is the reference
    keys = MODEL_KEYS.copy()
    reads = []

    def key_fn(cells):
        reads.append(cells.size)
        return keys[cells]

    mask = np.zeros(N_MODEL, bool)
    f = Frontier(mask)
    model = set()
    for op in ops:
        if op[0] == "add":
            _, seed, first, count, stride = op
            cells = np.unique(np.arange(first, first + count * stride, stride) % N_MODEL)
            cells = np.random.default_rng(seed).permutation(cells)
            fresh = set(cells.tolist()) - model
            assert f.add_many(cells) == len(fresh)
            model |= fresh
        elif op[0] == "extract":
            _, threshold, rho = op
            want = {c for c in model if keys[c] <= threshold}
            if rho > 1 and len(want) < rho:
                if len(model) <= rho:
                    want = set(model)
                else:
                    kth = sorted(keys[c] for c in model)[rho - 1]
                    want = {c for c in model if keys[c] <= kth}
            reads.clear()
            out, left = f.extract(threshold, key_fn, rho)
            assert out.size == len(want) and set(out.tolist()) == want
            assert left == (None if want else min((keys[c] for c in model), default=np.inf))
            if rho > 1 and 0 < len(model) <= rho:
                assert reads == [], "a step that takes every pending copy reads no key"
            model -= want
        elif op[0] == "discard":
            bound = op[1]
            doomed = {c for c in model if keys[c] >= bound}
            assert f.discard(lambda cells: keys[cells] >= bound) == len(doomed)
            model -= doomed
        else:
            _, residue, ceiling = op
            lowered = np.arange(residue, N_MODEL, 5)
            keys[lowered] = np.minimum(keys[lowered], ceiling)  # keys re-read at extraction
        pending = f._live().tolist()
        assert f.size == len(pending) == len(set(pending)) == len(model)
        assert set(pending) == model
        assert np.flatnonzero(mask).tolist() == sorted(model)


def test_frontier_add_leaves_out_what_prune_rejects():
    f = Frontier(np.zeros(10, bool))
    f.add_many(np.array([2, 3]))
    seen = []

    def prune(cells):
        seen.append(cells.tolist())
        return cells >= 6

    # 2 is pending and 6, 7 are pruned: only 4 enters
    assert f.add_many(np.array([2, 6, 4, 7]), prune) == 1
    assert seen == [[2, 6, 4, 7]]
    assert sorted(f._live().tolist()) == [2, 3, 4]
    assert f.add_many(np.array([6]), prune) == 0 and f.size == 3
    assert f.add_many(np.empty(0, dtype=np.int64), prune) == 0 and seen[-1] == [6]


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
    # a probe around Frontier.extract sees the whole pending set each
    # step takes from
    policy = sp.StepPolicy(delta, min_copies=min_copies)
    pairs = [(s % g.n, t % g.n) for s, t in raw_pairs]
    rows = {s: sp.dijkstra(g, s) for s, _ in pairs}

    def run(search, seeded=True):
        flagged = []
        extract = Frontier.extract

        def probe(frontier, *args):
            flagged.append(int(search.prune(frontier._live()).sum()))
            return extract(frontier, *args)

        with mock.patch.object(Frontier, "extract", probe):
            run_search(g, search, policy)
        if seeded:
            assert flagged and not any(flagged), type(search).__name__
        else:  # endpoints in two components seed nothing, so no step runs
            assert not flagged, type(search).__name__

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
            run(search, seeded=np.isfinite(rows[s][t]) or isinstance(search, EtSearch))
            assert search.best == rows[s][t], type(search).__name__
    qg = sp.build_query_graph(pairs, g.n)
    if len(qg.edges):
        search = MultiBidsSearch(g, qg)
        want = [rows[s][t] if s in rows else rows[t][s] for s, t in qg.endpoints[qg.edges]]
        run(search, seeded=np.isfinite(want).any())
        assert search.edge_best.tolist() == want


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
    policy = sp.StepPolicy(delta_share * g.max_weight, min_copies=min_copies)
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


def _delta_stepping_counts(g, source, delta):
    """Steps, relaxations and settled vertices of bulk Δ-stepping, in plain Python.

    Each step takes every pending vertex with distance up to ``i * delta``
    and offers its arcs from the distances at the start of the step; an
    empty window moves ``i`` straight to the first one holding a vertex.
    """
    dist = [np.inf] * g.n
    dist[source] = 0.0
    pending, settled = {source}, set()
    steps = relaxations = index = 0
    while pending:
        take = [v for v in pending if dist[v] <= index * delta]
        if not take:
            low = min(dist[v] for v in pending)
            index = max(index + 1, int(np.ceil(low / delta)))
            while index * delta < low:
                index += 1
            continue
        index += 1
        steps += 1
        pending.difference_update(take)
        settled.update(take)
        offers = []
        for u in take:
            for a in range(g.offsets[u], g.offsets[u + 1]):
                offers.append((int(g.targets[a]), dist[u] + float(g.weights[a])))
        relaxations += len(offers)
        for v, d in offers:
            if d < dist[v]:
                dist[v] = d
                pending.add(v)
    return steps, relaxations, len(settled)


def test_min_copies_one_is_pure_delta_stepping():
    graphs = [random_graph(300, 3, 21), geometric_graph(300, 4, 22)]
    for g in graphs:
        for delta in (g.max_weight / 16, g.max_weight / 2, g.max_weight * 4):
            for source in (0, 7, 150):
                _, stats = sp.sssp(g, source, policy=sp.StepPolicy(delta), return_stats=True)
                got = (stats.steps, stats.relaxations, stats.settled_copies)
                assert got == _delta_stepping_counts(g, source, delta), (delta, source)


def test_step_width_stays_within_bounds(monkeypatch):
    # record the ρ that run_search hands to every extraction
    widths = []
    extract = Frontier.extract

    def watched(self, threshold, key_fn, min_copies=1):
        widths.append(min_copies)
        return extract(self, threshold, key_fn, min_copies)

    monkeypatch.setattr(Frontier, "extract", watched)
    g = geometric_graph(5_000, 6, 23)
    pairs = sp.percentile_pairs(g, 3, 90.0, 24).tolist()
    for min_copies in (1, 2, 40, 128):
        policy = sp.StepPolicy(g.max_weight / 16, min_copies=min_copies)
        seen = set()
        for s, t in pairs:
            for strategy in ("et", "bids", "astar", "bidastar"):
                widths.clear()
                sp.ppsp(g, s, t, strategy, policy=policy)
                assert widths[0] == min_copies
                seen.update(widths)
        assert max(1, min_copies // 2) <= min(seen) and max(seen) <= 2 * min_copies, (min_copies, seen)
        if min_copies == 1:
            assert seen == {1}
        if min_copies == 128:
            # A* re-expansions narrow the step; waste-free steps widen it
            assert min(seen) < 128 < max(seen)


def test_step_width_grows_only_when_it_binds(monkeypatch):
    # on a path the frontier holds one copy, so every step takes all of it
    # and no step says whether a wider one would waste work
    widths = []
    extract = Frontier.extract

    def watched(self, threshold, key_fn, min_copies=1):
        widths.append(min_copies)
        return extract(self, threshold, key_fn, min_copies)

    monkeypatch.setattr(Frontier, "extract", watched)
    n = 300
    g = sp.build_csr(n, [(v, v + 1, 1.0) for v in range(n - 1)], symmetrize=True)
    assert sp.ppsp(g, 0, n - 1, "et").distance == n - 1
    assert set(widths) == {DEFAULT_MIN_COPIES}


def test_et_and_astar_answers_identical_across_policies():
    # float weights: a pruned single-direction answer is the fixpoint
    # distance of the target, whatever the step width
    g = geometric_graph(3_000, 6, 25)
    top = g.max_weight
    policies = [
        sp.default_policy(g),
        sp.StepPolicy(top / 16),
        sp.StepPolicy(top / 64, min_copies=32),
        sp.StepPolicy(top * 4, min_copies=256),
    ]
    for s, t in sp.percentile_pairs(g, 6, 90.0, 26).tolist():
        want = sp.dijkstra(g, s)[t].hex()
        for strategy in ("et", "astar"):
            got = {sp.ppsp(g, s, t, strategy, policy=p).distance.hex() for p in policies}
            assert got == {want}, (strategy, s, t)


def test_astar_expands_a_copy_about_once():
    # a consistent heuristic needs one expansion per vertex; the step
    # width keeps A* near that: relaxations per settled copy stay close to
    # the mean degree (7.1 here) instead of about 20 at a fixed width
    g = geometric_graph(25_000, 6, 1)
    relaxations = settled = 0
    for s, t in sp.percentile_pairs(g, 7, 90.0, 1).tolist():
        a = sp.ppsp(g, s, t, "astar")
        relaxations += a.relaxations
        settled += a.settled_copies
    assert relaxations / settled < 15


def _scratch_graph():
    # a kNN graph with coordinates (for astar) and several components
    g = geometric_graph(300, 2, 3)
    assert sp.largest_component(g).count > 1
    return g


# what each pooled array holds between searches; the stamp's contents are ignored
_POOL_FILLS = {
    "mask": False,
    "settled": False,
    "dist": np.inf,
    "h": np.nan,
    "signed_h": np.nan,
    "owner": -1,
    "shared": False,
}


def _assert_pool_clean(g, where):
    for name, array in vars(g)["_pool"].items():
        if name != "stamp":
            clean = np.full(array.size, _POOL_FILLS[name], array.dtype)
            assert np.array_equal(array, clean, equal_nan=True), (name, where)


def _connected_pairs(g):
    """Four pairs within the largest component, and one that leaves it."""
    comp = sp.largest_component(g)
    big = np.flatnonzero(comp.labels == comp.largest).tolist()
    far = int(np.flatnonzero(comp.labels != comp.largest)[0])
    return [(big[0], big[-1]), (big[3], big[40]), (big[77], big[20]), (big[12], big[100])], (big[5], far)


def _interleaved_calls(g):
    """sssp, bids, astar, bidastar, multi, bids again, vc and plain-sssp.

    The first six take 1, 2, 1, 2, 10 and 2 copies; the two batches run
    one 1-copy sssp per cover vertex.

    Each call takes the graph object to run on and returns the answer
    with its counters.
    """
    pairs, apart = _connected_pairs(g)
    s, t = pairs[0]
    qg = sp.build_query_graph([*pairs, apart], g.n)
    assert qg.order == 10

    def sssp(h):
        dist, stats = sp.sssp(h, 0, return_stats=True)
        return dist.tolist(), stats

    def ppsp(s, t, strategy):
        return lambda h: sp.ppsp(h, s, t, strategy)

    def multi(h):
        b = sp.multi_bids(h, qg)
        return b.distances.tolist(), b.steps, b.relaxations, b.settled_copies

    def cover(run):
        def call(h):
            b = run(h, qg)
            return b.distances.tolist(), b.runs, b.steps, b.relaxations, b.settled_copies, b.cover.tolist()

        return call

    # the second bids pair is disconnected: it seeds nothing and runs no step
    return [
        sssp,
        ppsp(s, t, "bids"),
        ppsp(s, t, "astar"),
        ppsp(s, t, "bidastar"),
        multi,
        ppsp(*apart, "bids"),
        cover(sp.vc_sssp_batch),
        cover(lambda h, qg: sp.baseline_batch(h, qg, "plain-sssp")),
    ]


def test_scratch_reuse_is_exact():
    # one graph object serving searches of every width answers exactly as
    # a fresh graph object does for each call, and gets every pooled array
    # back clean after every search; sssp's distances are the caller's,
    # so it pools none
    g = _scratch_graph()
    sizes = []
    for call in _interleaved_calls(g):
        assert call(g) == call(_scratch_graph()), call
        _assert_pool_clean(g, call)
        pool = vars(g)["_pool"]
        sizes.append((pool["mask"].size, pool["dist"].size if "dist" in pool else None))
    n = g.n
    assert sizes == [
        (n, None), (2 * n, 2 * n), (2 * n, 2 * n), (2 * n, 2 * n), (10 * n, 10 * n), (10 * n, 10 * n),
        (10 * n, 10 * n), (10 * n, 10 * n),
    ]
    pool = vars(g)["_pool"]
    assert pool["h"].size == n and pool["signed_h"].size == 2 * n
    assert pool["owner"].size == n and pool["shared"].size == n


def test_a_disconnected_pair_adds_no_work():
    # a pair across components is closed from the start in a batch and
    # seeds nothing alone, so it adds no step, arc or settled copy
    g = _scratch_graph()
    pairs, apart = _connected_pairs(g)
    alone = sp.multi_bids(g, sp.build_query_graph(pairs, g.n))
    both = sp.multi_bids(g, sp.build_query_graph(pairs + [apart], g.n))
    _assert_pool_clean(g, "multi")
    assert both.distances.tolist() == alone.distances.tolist() + [np.inf]
    assert (both.steps, both.relaxations, both.settled_copies) == (alone.steps, alone.relaxations, alone.settled_copies)
    for strategy in ("bids", "bidastar"):
        answer = sp.ppsp(g, *apart, strategy)
        _assert_pool_clean(g, strategy)
        assert answer.distance == np.inf
        assert (answer.steps, answer.relaxations, answer.settled_copies) == (0, 0, 0), strategy


def test_release_resets_only_the_written_cells():
    # a near query lists the cells it wrote, a far one writes too many to
    # list; both leave the pool clean once released
    g = geometric_graph(5_000, 6, 4)
    s = 0
    d = sp.dijkstra(g, s)
    near = int(g.targets[g.offsets[s]])
    far = int(np.argmax(np.where(np.isfinite(d), d, -1)))
    for t, listed in ((near, True), (far, False)):
        for search in (BidsSearch(g, s, t), BidAstarSearch(g, s, t, sp.heuristic_for_graph(g, s), sp.heuristic_for_graph(g, t))):
            run_search(g, search)
            assert search.best == pytest.approx(d[t], rel=1e-12)
            assert (search._written is not None) == listed, (t, type(search))
            if listed:
                # every finite cell was written, and only those were
                assert set(np.flatnonzero(np.isfinite(search.dist))) == set(search._written.tolist())
            search._release()
            _assert_pool_clean(g, (t, type(search)))
    qg = sp.build_query_graph([(s, near), (near, int(g.targets[g.offsets[near]]))], g.n)
    search = MultiBidsSearch(g, qg)
    run_search(g, search)
    assert search._written is not None
    search._release()
    _assert_pool_clean(g, "multi")


def test_scratch_dropped_when_a_hook_raises():
    # a search whose hook raises drops every array it took off the pool,
    # dirty; the next searches allocate clean ones and answer exactly
    g = _scratch_graph()
    ref = _scratch_graph()
    pairs, _ = _connected_pairs(g)
    (s, t), qg = pairs[0], sp.build_query_graph(pairs, g.n)
    want = sp.sssp(ref, 7, return_stats=True)
    want_multi = sp.multi_bids(ref, qg)
    want_astar = sp.ppsp(ref, s, t, "astar")
    assert np.isfinite(want_multi.distances).all() and np.isfinite(want_astar.distance)
    sp.sssp(g, 7)
    assert set(vars(g)["_pool"]) == {"mask", "settled", "stamp"}

    class Boom(SsspSearch):
        def on_improved(self, cells):
            if self.dist[cells].max() > 0.1:
                raise RuntimeError("boom")
            return False

    with pytest.raises(RuntimeError):
        run_search(g, Boom(g, 7))
    assert vars(g)["_pool"] == {}  # dropped, dirty, with the raising search
    dist, stats = sp.sssp(g, 7, return_stats=True)
    assert np.array_equal(dist, want[0]) and stats == want[1]
    assert np.array_equal(dist, sp.dijkstra(g, 7))

    sp.multi_bids(g, qg)
    assert set(vars(g)["_pool"]) == {"mask", "settled", "stamp", "dist", "owner", "shared"}

    class BoomMulti(MultiBidsSearch):
        def on_improved(self, cells):
            if self.dist[cells].max() > 0.1:
                raise RuntimeError("boom")
            return super().on_improved(cells)

    with pytest.raises(RuntimeError):
        run_search(g, BoomMulti(g, qg))
    assert vars(g)["_pool"] == {}
    got = sp.multi_bids(g, qg)
    assert np.array_equal(got.distances, want_multi.distances)
    assert (got.steps, got.relaxations, got.settled_copies) == (want_multi.steps, want_multi.relaxations, want_multi.settled_copies)

    # inside ppsp: a heuristic that fails past the source raises mid-run
    sp.ppsp(g, s, t, "astar")
    h = sp.heuristic_for_graph(g, t)

    def failing(vertices):
        return np.where(vertices == s, h(vertices), np.nan)

    with pytest.raises(ValueError, match="non-finite"):
        sp.ppsp(g, s, t, "astar", heuristic=failing)
    assert set(vars(g)["_pool"]) == {"owner", "shared"}  # multi's, which astar does not take
    assert sp.ppsp(g, s, t, "astar") == want_astar
    _assert_pool_clean(g, "after the raises")


def test_search_nested_in_a_hook_is_exact():
    g = _scratch_graph()
    (s, t), (a, b) = _connected_pairs(g)[0][:2]
    sp.ppsp(g, s, t, "bids")  # the outer search takes a warm pool
    inner = []

    class Nested(BidsSearch):
        def on_improved(self, cells):
            if not inner:
                inner.append(sp.ppsp(self.graph, a, b, "bids"))
            return super().on_improved(cells)

    outer = Nested(g, s, t)
    stats = run_search(g, outer)
    ref = _scratch_graph()
    want = BidsSearch(ref, s, t)
    want_stats = run_search(ref, want)
    assert outer.best == want.best < np.inf
    assert np.array_equal(outer.dist, want.dist) and stats == want_stats
    want_inner = sp.ppsp(ref, a, b, "bids")
    assert inner == [want_inner] and want_inner.distance == sp.dijkstra(ref, a)[b] < np.inf
    outer._release()
    _assert_pool_clean(g, "nested")


def test_warm_queries_allocate_nothing_of_the_graph_size():
    # on a warm graph object a near bids query and a near multi batch
    # take every per-cell array from the pool: no allocation reaches the
    # smallest array of their size (a mask, 1 B per cell)
    g = random_graph(50_000, 4, 5)
    s = 0
    near = int(g.targets[g.offsets[s]])
    qg = sp.build_query_graph([(s, near), (near, int(g.targets[g.offsets[near]]))], g.n)
    assert qg.order == 3

    def multi():
        b = sp.multi_bids(g, qg)
        return b.distances.tolist(), b.steps, b.relaxations, b.settled_copies

    for copies, call in ((2, lambda: sp.ppsp(g, s, near, "bids")), (3, multi)):
        want = call()  # warms the pool
        tracemalloc.start()
        try:
            got = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < g.n * copies, (copies, peak)
        _assert_pool_clean(g, copies)


def test_derived_graph_starts_without_scratch():
    g = _scratch_graph()
    assert vars(g).get("_pool") is None
    sp.ppsp(g, *_connected_pairs(g)[0][0], "bids")
    assert set(vars(g)["_pool"]) == {"mask", "settled", "stamp", "dist"}
    assert vars(replace(g)).get("_pool") is None
    assert vars(g.with_coords(g.coords, "euclidean")).get("_pool") is None
    assert "_pool" not in repr(g) and replace(g) == g


def test_concurrent_searches_on_one_graph_are_exact():
    # threads that share one graph object each take a pooled array off it
    # whole or allocate their own; an array shared by two searches would
    # corrupt answers or counters
    g = _scratch_graph()
    pairs, _ = _connected_pairs(g)
    jobs = [(s, t, strategy) for s, t in pairs for strategy in ("sssp", "bids", "astar", "bidastar")]
    ref = _scratch_graph()
    want = {job: sp.ppsp(ref, *job) for job in jobs}
    assert all(answer.distance < np.inf for answer in want.values())
    got, errors = [], []

    def worker(k):
        try:
            for i in range(12):
                job = jobs[(k * 5 + i) % len(jobs)]
                got.append((job, sp.ppsp(g, *job)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(got) == 6 * 12
    for job, answer in got:
        assert answer == want[job], job
    _assert_pool_clean(g, "threads")
