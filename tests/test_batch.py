import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import steppath as sp
import steppath.batch
import steppath.io
from steppath.batch import EXACT_COVER_LIMIT, MultiBidsSearch, _run_batch
from steppath.cli import main
from steppath.engine import run_search
from helpers import g1, random_graph, random_pairs_same_component, two_triangles


def test_query_graph_chain():
    qg = sp.build_query_graph([(1, 2), (2, 3)], 5)
    assert qg.endpoints.tolist() == [1, 2, 3]
    assert qg.edges.tolist() == [[0, 1], [1, 2]]
    assert qg.n_pairs == 2


def test_query_graph_dedup():
    qg = sp.build_query_graph([(1, 2), (2, 1), (1, 2)], 4)
    assert qg.endpoints.tolist() == [1, 2]
    assert qg.edges.tolist() == [[0, 1]]
    assert qg.n_pairs == 3
    assert qg.pair_edge.tolist() == [0, 0, 0]


def test_query_graph_self_pair():
    qg = sp.build_query_graph([(5, 5)], 6)
    assert qg.endpoints.tolist() == [5]
    assert len(qg.edges) == 0
    assert qg.pair_edge.tolist() == [-1]


def test_query_graph_endpoint_validation():
    with pytest.raises(ValueError):
        sp.build_query_graph([(0, 9)], 4)


def test_query_graph_rejects_malformed_pairs():
    # six numbers are not three pairs, and 2.7 is not a vertex id
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        sp.build_query_graph([(0, 1, 2), (3, 0, 1)], 4)
    with pytest.raises(ValueError, match="2.7"):
        sp.build_query_graph([(0.0, 2.7)], 4)
    with pytest.raises(ValueError, match="nan"):
        sp.build_query_graph([(0.0, np.nan)], 4)
    with pytest.raises(ValueError, match="shape"):
        sp.build_query_graph([0, 1], 4)
    with pytest.raises(ValueError, match="dtype"):
        sp.build_query_graph([("0", "1")], 4)
    # ids outside the graph, by the rules of QueryGraph and the batch algorithms
    with pytest.raises(ValueError, match="^query graph: endpoint 4 out of range for 4 vertices"):
        sp.build_query_graph([(0, 4)], 4)
    with pytest.raises(ValueError, match="^query graph: endpoints must be nonnegative"):
        sp.build_query_graph([(-1, 2)], 4)
    # integral floats and empty input are fine
    assert sp.build_query_graph([(0.0, 2.0)], 4).endpoints.tolist() == [0, 2]
    assert sp.build_query_graph([], 4).edges.shape == (0, 2)


def _reference_query_graph(pairs):
    """Plain-Python query graph: a dict of sorted endpoint-index pairs."""
    endpoints = sorted({v for pair in pairs for v in pair})
    index = {v: i for i, v in enumerate(endpoints)}
    keys = sorted({tuple(sorted((index[s], index[t]))) for s, t in pairs if s != t})
    edge_of = {key: e for e, key in enumerate(keys)}
    pair_edge = [edge_of[tuple(sorted((index[s], index[t])))] if s != t else -1 for s, t in pairs]
    # each endpoint lists the edges where it is the smaller index, then the others
    incident = [
        [(b, e) for e, (a, b) in enumerate(keys) if a == i] + [(a, e) for e, (a, b) in enumerate(keys) if b == i]
        for i in range(len(endpoints))
    ]
    offsets = np.cumsum([0] + [len(row) for row in incident])
    flat = [item for row in incident for item in row]
    return endpoints, keys, pair_edge, offsets, [m for m, _ in flat], [e for _, e in flat]


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16),
    n_vertices=st.sampled_from([None, 8]),
)
@example(pairs=[], n_vertices=None)
@example(pairs=[(3, 3)], n_vertices=8)
@example(pairs=[(1, 2), (2, 1), (1, 2), (4, 4)], n_vertices=None)
def test_query_graph_matches_reference(pairs, n_vertices):
    qg = sp.build_query_graph(pairs, n_vertices)
    endpoints, keys, pair_edge, offsets, neighbors, edge_ids = _reference_query_graph(pairs)
    assert qg.endpoints.tolist() == endpoints
    assert qg.edges.shape == (len(keys), 2)
    assert [tuple(e) for e in qg.edges.tolist()] == keys
    assert qg.pair_edge.tolist() == pair_edge
    # the joint search derives each endpoint's (mate, edge id) rows from the edges
    q_offsets, q_neighbors, q_edges = MultiBidsSearch(sp.build_csr(8, []), qg)._q_rows
    assert q_offsets.tolist() == offsets.tolist()
    assert q_neighbors.tolist() == neighbors
    assert q_edges.tolist() == edge_ids


def test_multi_bids_star_on_g1():
    g = g1()
    ans = sp.multi_bids(g, sp.build_query_graph([(0, 3), (0, 2)], g.n))
    assert ans.distances.tolist() == [4.0, 3.0]
    assert ans.runs == 1


def test_multi_bids_chain_on_g1():
    g = g1()
    ans = sp.multi_bids(g, sp.build_query_graph([(0, 1), (1, 2), (2, 3)], g.n))
    assert ans.distances.tolist() == [1.0, 2.0, 1.0]


def test_multi_bids_self_pair_answers_zero():
    g = g1()
    ans = sp.multi_bids(g, sp.build_query_graph([(2, 2)], g.n))
    assert ans.distances.tolist() == [0.0]
    assert ans.runs == 0


def test_multi_bids_disconnected_pair():
    g = two_triangles()
    ans = sp.multi_bids(g, sp.build_query_graph([(0, 4), (0, 2)], g.n))
    assert ans.distances.tolist() == [np.inf, 1.0]


def test_multi_bids_self_pair_costs_nothing():
    # an endpoint that only appears in (v, v) has no edge, so radius -inf:
    # its copy is pruned at the first step instead of running a full SSSP
    g = random_graph(400, 4, 3)
    pairs = random_pairs_same_component(g, 2, 5).tolist()
    info = sp.largest_component(g)
    used = {x for pair in pairs for x in pair}
    v = next(int(u) for u in np.flatnonzero(info.labels == info.largest) if u not in used)
    alone = sp.multi_bids(g, sp.build_query_graph(pairs, g.n))
    both = sp.multi_bids(g, sp.build_query_graph(pairs + [(v, v)], g.n))
    assert both.distances.tolist() == alone.distances.tolist() + [0.0]
    assert (both.steps, both.relaxations, both.settled_copies) == (
        alone.steps,
        alone.relaxations,
        alone.settled_copies,
    )


def test_multi_bids_reports_a_tighter_radius_only():
    # chain 0-1-2-3 of endpoints: cell v * 4 + i is copy i of vertex v
    g = g1()
    search = MultiBidsSearch(g, sp.build_query_graph([(0, 1), (1, 2), (2, 3)], g.n))
    cells, values = search.seeds()
    search.dist[cells] = values
    search.dist[1 * 4 + 1] = 0.0
    search.dist[1 * 4 + 2] = 2.0
    # edge (1, 2) gets an answer, but endpoints 1 and 2 each keep an
    # unanswered edge, so both radii stay +inf
    assert search.on_improved(np.array([1 * 4 + 2])) is False
    assert search.edge_best.tolist() == [np.inf, 2.0, np.inf]
    assert search.radius.tolist() == [np.inf] * 4
    search.dist[0 * 4 + 0] = 0.0
    search.dist[0 * 4 + 1] = 1.0
    # edge (0, 1) is endpoint 0's only edge: its radius falls to 1
    assert search.on_improved(np.array([0 * 4 + 1])) is True
    assert search.radius.tolist() == [1.0, 2.0, np.inf, np.inf]


def test_multi_bids_offers_a_sum_once_two_copies_meet():
    # endpoints 0 and 3 (copies 0 and 1): cell v * 2 + i is copy i of vertex v
    g = g1()
    search = MultiBidsSearch(g, sp.build_query_graph([(0, 3)], g.n))
    cells, values = search.seeds()
    search.dist[cells] = values
    # copy 0 alone at vertex 1 offers nothing
    search.dist[1 * 2 + 0] = 1.0
    search.on_improved(np.array([1 * 2 + 0]))
    assert search.edge_best.tolist() == [np.inf]
    # both copies first reach vertex 2 in one call: they meet there
    search.dist[2 * 2 + 0] = 3.0
    search.dist[2 * 2 + 1] = 2.0
    search.on_improved(np.array([2 * 2 + 0, 2 * 2 + 1]))
    assert search.edge_best.tolist() == [5.0]
    # either copy improving vertex 2 alone later offers the new sum
    search.dist[2 * 2 + 1] = 1.0
    search.on_improved(np.array([2 * 2 + 1]))
    assert search.edge_best.tolist() == [4.0]
    # copy 1 reaching vertex 1, where copy 0 already is, meets it
    search.dist[1 * 2 + 1] = 2.5
    search.on_improved(np.array([1 * 2 + 1]))
    assert search.edge_best.tolist() == [3.5]


def _isolated_pair(g):
    """(first vertex of the largest component, first vertex without arcs)."""
    info = sp.largest_component(g)
    return int(info.members(info.largest)[0]), int(np.flatnonzero(g.degrees == 0)[0])


def test_multi_bids_gives_up_on_a_disconnected_pair():
    # the isolated side runs dry at once; the big side must not then
    # explore its whole component (it did: 35 steps, 409,005 relaxations)
    g = random_graph(50_000, 4, 3)
    s, t = _isolated_pair(g)
    lone = sp.multi_bids(g, sp.build_query_graph([(s, t)], g.n))
    bids = sp.ppsp(g, s, t, "bids")
    assert lone.distances.tolist() == [np.inf] and bids.distance == np.inf
    assert lone.steps <= bids.steps and lone.relaxations <= bids.relaxations
    search = MultiBidsSearch(g, sp.build_query_graph([(s, t)], g.n))
    run_search(g, search)
    assert search.radius.tolist() == [-np.inf, -np.inf]


def test_multi_bids_disconnected_pair_costs_little_in_a_batch():
    g = random_graph(50_000, 4, 3)
    s, t = _isolated_pair(g)
    pairs = sp.percentile_pairs(g, 2, 10, 1)
    alone = sp.multi_bids(g, sp.build_query_graph(pairs, g.n))
    mixed = sp.multi_bids(g, sp.build_query_graph(np.concatenate([pairs, [[s, t]]]), g.n))
    assert mixed.distances.tolist() == alone.distances.tolist() + [np.inf]
    assert mixed.relaxations <= 1.01 * alone.relaxations


def test_multi_bids_duplicate_pairs_share_edge():
    g = g1()
    ans = sp.multi_bids(g, sp.build_query_graph([(0, 3), (3, 0), (0, 3)], g.n))
    assert ans.distances.tolist() == [4.0, 4.0, 4.0]


def test_multi_bids_cell_budget(monkeypatch):
    g = g1()
    qg = sp.build_query_graph([(0, 1), (1, 2), (2, 3)], g.n)
    monkeypatch.setattr(steppath.batch, "DEFAULT_CELL_CAP", qg.order * g.n)
    assert sp.multi_bids(g, qg).distances.tolist() == [1.0, 2.0, 1.0]
    monkeypatch.setattr(steppath.batch, "DEFAULT_CELL_CAP", qg.order * g.n - 1)
    with pytest.raises(sp.BatchTooLarge):
        sp.multi_bids(g, qg)


def test_edgeless_batch_is_answered_before_the_cap(monkeypatch):
    # five self-pairs on 300 vertices would take 1,500 cells in a joint
    # search; without an edge there is nothing to search
    g = sp.build_csr(300, [(v, v + 1, 1.0) for v in range(299)], symmetrize=True)
    qg = sp.build_query_graph([(v, v) for v in range(0, 250, 50)], g.n)
    monkeypatch.setattr(steppath.batch, "DEFAULT_CELL_CAP", 1_000)
    for algo in sp.BATCH_ALGOS:
        ans = _run_batch(g, qg, algo, None)
        assert ans.distances.tolist() == [0.0] * 5 and ans.runs == ans.steps == 0, algo
    assert _run_batch(g, qg, "vc", None).cover.tolist() == []


def test_multi_bids_default_cap_fires_before_allocating():
    # 257 endpoints on 2**20 vertices is just over 2**28 cells (about
    # 2.7 GB of search state); the default cap refuses it up front
    g = sp.build_csr(2**20, [], symmetrize=True)
    qg = sp.build_query_graph([(0, v) for v in range(1, 257)], g.n)
    assert qg.order * g.n > 2**28
    with pytest.raises(sp.BatchTooLarge):
        sp.multi_bids(g, qg)


def test_multi_bids_allocates_one_cell_per_vertex_copy():
    g = g1()
    qg = sp.build_query_graph([(0, 1), (2, 3)], g.n)
    search = MultiBidsSearch(g, qg)
    assert search.dist.size == g.n * qg.order


def test_search_radius_stays_above_true_distances():
    g = random_graph(200, 3, 4)
    pairs = random_pairs_same_component(g, 6, 9)
    qg = sp.build_query_graph(pairs, g.n)
    search = MultiBidsSearch(g, qg)
    run_search(g, search)
    radius, edge_d = search.radius, search.edge_best
    has = qg.pair_edge >= 0
    assert np.array_equal(sp.multi_bids(g, qg).distances[has], edge_d[qg.pair_edge[has]])
    for i in range(qg.order):
        incident = np.flatnonzero((qg.edges == i).any(axis=1))
        if incident.size:
            assert radius[i] >= edge_d[incident].max()
        else:
            assert radius[i] == -np.inf


def test_exact_cover_star():
    qg = sp.build_query_graph([(4, 0), (4, 1), (4, 2), (4, 3), (4, 5)], 6)
    center = int(np.flatnonzero(qg.endpoints == 4)[0])
    assert sp.exact_vertex_cover(qg).tolist() == [center]


def test_exact_cover_chain():
    qg = sp.build_query_graph([(0, 1), (1, 2), (2, 3)], 4)
    # both {0,2} and {1,2} have size 2; the lexicographic rule picks {0,2}
    assert sp.exact_vertex_cover(qg).tolist() == [0, 2]


def test_exact_cover_k4():
    pairs = list(itertools.combinations(range(4), 2))
    qg = sp.build_query_graph(pairs, 4)
    cover = sp.exact_vertex_cover(qg)
    assert len(cover) == 3
    assert cover.tolist() == [0, 1, 2]


def test_exact_cover_size_limit():
    pairs = [(i, i + 1) for i in range(24)]
    qg = sp.build_query_graph(pairs, 30)
    with pytest.raises(ValueError):
        sp.exact_vertex_cover(qg)


def _covers(qg, cover):
    got = set(cover.tolist())
    return all(a in got or b in got for a, b in qg.edges.tolist())


def _brute_min_cover_size(qg):
    k = len(qg.edges)
    for size in range(qg.order + 1):
        for subset in itertools.combinations(range(qg.order), size):
            chosen = set(subset)
            if all(a in chosen or b in chosen for a, b in qg.edges.tolist()):
                return size
    raise AssertionError("unreachable")


def test_exact_cover_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(25):
        order = int(rng.integers(2, 9))
        count = int(rng.integers(1, 10))
        pairs = rng.integers(0, order, (count, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if len(pairs) == 0:
            continue
        qg = sp.build_query_graph(pairs, order)
        cover = sp.exact_vertex_cover(qg)
        assert _covers(qg, cover)
        assert len(cover) == _brute_min_cover_size(qg)


def test_greedy_cover_star_and_single_edge():
    star = sp.build_query_graph([(4, 0), (4, 1), (4, 2)], 5)
    center = int(np.flatnonzero(star.endpoints == 4)[0])
    assert sp.greedy_vertex_cover(star).tolist() == [center]
    one = sp.build_query_graph([(2, 7)], 8)
    assert sp.greedy_vertex_cover(one).tolist() == [0]  # the smaller endpoint


def test_greedy_cover_k4():
    pairs = list(itertools.combinations(range(4), 2))
    qg = sp.build_query_graph(pairs, 4)
    cover = sp.greedy_vertex_cover(qg)
    assert _covers(qg, cover)
    assert len(cover) <= 3


def test_greedy_cover_always_covers():
    rng = np.random.default_rng(5)
    for trial in range(20):
        order = int(rng.integers(2, 12))
        pairs = rng.integers(0, order, (int(rng.integers(1, 14)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if len(pairs) == 0:
            continue
        qg = sp.build_query_graph(pairs, order)
        assert _covers(qg, sp.greedy_vertex_cover(qg))


def test_vc_sssp_star_on_g1():
    g = g1()
    ans = sp.vc_sssp_batch(g, sp.build_query_graph([(0, 3), (0, 2)], g.n))
    assert ans.runs == 1
    assert ans.cover.tolist() == [0]
    assert ans.distances.tolist() == [4.0, 3.0]


def test_vc_sssp_chain_on_g1():
    g = g1()
    ans = sp.vc_sssp_batch(g, sp.build_query_graph([(0, 1), (1, 2), (2, 3)], g.n))
    assert ans.runs == 2
    assert ans.distances.tolist() == [1.0, 2.0, 1.0]


def test_vc_sssp_empty_edge_set():
    g = g1()
    ans = sp.vc_sssp_batch(g, sp.build_query_graph([(1, 1)], g.n))
    assert ans.runs == 0
    assert ans.distances.tolist() == [0.0]


@pytest.mark.parametrize("order", [3, EXACT_COVER_LIMIT + 5])
def test_vc_sssp_edgeless_cover_is_empty_int64(order):
    # both sides of EXACT_COVER_LIMIT: the exact and the greedy cover
    g = sp.build_csr(40, [(v, v + 1, 1.0) for v in range(39)], symmetrize=True)
    ans = sp.vc_sssp_batch(g, sp.build_query_graph([(v, v) for v in range(order)], g.n))
    assert ans.cover.dtype == np.int64 and ans.cover.shape == (0,)
    assert (ans.runs, ans.steps, ans.relaxations, ans.settled_copies) == (0, 0, 0, 0)
    assert ans.distances.tolist() == [0.0] * order


@pytest.mark.parametrize("algo", ["vc", "plain-sssp", "plain-bids"])
def test_batch_counters_are_the_sums_over_its_runs(algo):
    g = random_graph(300, 3, 5)
    qg = sp.build_query_graph(random_pairs_same_component(g, 6, 3), g.n)
    ans = _run_batch(g, qg, algo, None)
    if algo == "plain-bids":
        runs = [sp.ppsp(g, int(qg.endpoints[a]), int(qg.endpoints[b]), "bids") for a, b in qg.edges]
    else:
        # vc: one SSSP per cover index; plain-sssp: one per edge's smaller index
        sources = ans.cover if algo == "vc" else np.unique(qg.edges[:, 0])
        runs = [sp.sssp(g, int(qg.endpoints[k]), return_stats=True)[1] for k in sources]
    assert ans.runs == len(runs) > 1
    for name in ("steps", "relaxations", "settled_copies"):
        assert getattr(ans, name) == sum(getattr(run, name) for run in runs) > 0, name


@pytest.mark.parametrize("algo", sp.BATCH_ALGOS)
def test_cli_batch_summary_carries_the_answer_counters(tmp_path, capsys, algo):
    g = random_graph(120, 3, 6)
    pairs = random_pairs_same_component(g, 5, 2)
    graph_file, queries = tmp_path / "g.txt", tmp_path / "q.txt"
    steppath.io.save_edge_list(g, graph_file)
    steppath.io.save_pairs(pairs, queries)
    assert main(["batch", "-g", str(graph_file), "--algo", algo, "--queries", str(queries)]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    policy = sp.default_policy(g)
    ans = _run_batch(g, sp.build_query_graph(pairs, g.n), algo, policy)
    assert summary == (
        f"record=batch algo={algo} pairs={len(pairs)} delta={policy.delta!r} min_copies={policy.min_copies} "
        f"runs={ans.runs} steps={ans.steps} relaxations={ans.relaxations} settled_copies={ans.settled_copies}"
    )


def test_vc_sssp_greedy_above_limit():
    g = random_graph(200, 3, 3)
    pairs = random_pairs_same_component(g, EXACT_COVER_LIMIT, 1)
    qg = sp.build_query_graph(pairs, g.n)
    assert qg.order > EXACT_COVER_LIMIT
    ans = sp.vc_sssp_batch(g, qg)
    assert np.array_equal(ans.cover, sp.greedy_vertex_cover(qg))
    for (s, t), d in zip(np.asarray(pairs).tolist(), ans.distances.tolist()):
        assert d == sp.dijkstra(g, s)[t]


def test_baseline_singleton_matches_bids():
    g = g1()
    qg = sp.build_query_graph([(0, 3)], g.n)
    ans = sp.baseline_batch(g, qg, "plain-bids")
    assert ans.distances.tolist() == [4.0]
    assert ans.runs == 1


def test_baseline_plain_sssp_run_counts():
    g = g1()
    star = sp.build_query_graph([(0, 3), (0, 2)], g.n)
    assert sp.baseline_batch(g, star, "plain-sssp").runs == 1
    chain = sp.build_query_graph([(0, 1), (1, 2), (2, 3)], g.n)
    assert sp.baseline_batch(g, chain, "plain-sssp").runs == 3


@pytest.mark.parametrize("algo", sp.BATCH_ALGOS)
def test_batch_rejects_a_directed_graph(algo):
    # dist(2 -> 0) is 10, dist(0 -> 2) is 2; vc and plain-sssp used to
    # answer 2.0 from the SSSP of the smaller endpoint
    g = sp.build_csr(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 10.0)])
    assert sp.dijkstra(g, 2)[0] == 10.0
    qg = sp.build_query_graph([(2, 0)], g.n)
    with pytest.raises(ValueError, match="^batch queries need a symmetrized graph$"):
        _run_batch(g, qg, algo, None)


def test_baseline_unknown_mode():
    g = g1()
    qg = sp.build_query_graph([(0, 1)], g.n)
    with pytest.raises(ValueError):
        sp.baseline_batch(g, qg, "warp")


def test_all_algos_agree_with_oracle():
    g = random_graph(300, 4, 8)
    pairs = random_pairs_same_component(g, 7, 21)
    qg = sp.build_query_graph(pairs, g.n)
    want = np.array([sp.dijkstra(g, s)[t] for s, t in np.asarray(pairs).tolist()])
    results = {
        "multi": sp.multi_bids(g, qg).distances,
        "vc": sp.vc_sssp_batch(g, qg).distances,
        "plain-bids": sp.baseline_batch(g, qg, "plain-bids").distances,
        "plain-sssp": sp.baseline_batch(g, qg, "plain-sssp").distances,
    }
    for name, got in results.items():
        assert np.array_equal(got, want), name
