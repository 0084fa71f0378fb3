"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single ``criterion N: PASS|FAIL`` verdict outside of
pytest's capture so the verdicts are readable in any test log, then
asserts.  Shared workloads are built once and cached at module level
because several criteria reuse them.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

import steppath as sp
from steppath.bench import DEFAULT_ROUNDS, DEFAULT_WARMUP
from steppath.cli import _build_parser
from steppath.engine import run_search
from steppath.ppsp import BidsSearch
from helpers import (
    bfs_hops,
    g1,
    geometric_graph,
    grid_graph,
    random_graph,
    random_pairs_same_component,
    watch_hook,
)

_CACHE = {}
_LIVE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    global _LIVE
    _LIVE = capfd
    yield
    _LIVE = None


def _report(k, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"criterion {k}: {'PASS' if ok else 'FAIL'}{tail}"
    if _LIVE is None:
        print(line, flush=True)
    else:
        with _LIVE.disabled():
            print(line, flush=True)
    assert ok, f"criterion {k} failed: {detail}"


def _small_suite():
    """50 random graphs (n in [2, 200], edge factor 1-8) with 20 pairs each."""
    if "small" not in _CACHE:
        rng = np.random.default_rng(20260814)
        suite = []
        for _ in range(50):
            n = int(rng.integers(2, 201))
            factor = int(rng.integers(1, 9))
            g = random_graph(n, factor, seed=int(rng.integers(0, 2**31)))
            pairs = random_pairs_same_component(g, 20, seed=int(rng.integers(0, 2**31)))
            suite.append((g, pairs))
        _CACHE["small"] = suite
    return _CACHE["small"]


def _geo_suite():
    """10^4-vertex 5-nearest-neighbor geometric graph with 100 pairs."""
    if "geo" not in _CACHE:
        g = geometric_graph(10_000, 5, seed=7)
        _CACHE["geo"] = (g, random_pairs_same_component(g, 100, seed=11))
    return _CACHE["geo"]


def test_criterion_01_small_graph_oracle_equivalence():
    t0 = time.perf_counter()
    suite = _small_suite()
    checked = 0
    mismatches = 0
    for g, pairs in suite:
        oracle = {}
        for s, t in pairs.tolist():
            if s not in oracle:
                oracle[s] = sp.dijkstra(g, s)
            want = oracle[s][t]
            for strategy in ("et", "bids"):
                got = sp.ppsp(g, s, t, strategy).distance
                checked += 1
                mismatches += got != want
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(1, ok, f"{checked} runs, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_geometric_oracle_equivalence():
    g, pairs = _geo_suite()
    vertices = np.arange(g.n)
    oracle = {}
    worst_rel = 0.0
    worst_slack = 0.0
    for s, t in pairs.tolist():
        if s not in oracle:
            oracle[s] = sp.dijkstra(g, s)
        want = oracle[s][t]
        toward_target = sp.euclidean_heuristic(g.coords, t)(vertices)
        averaged = 0.5 * (toward_target - sp.euclidean_heuristic(g.coords, s)(vertices))
        worst_slack = max(
            worst_slack,
            sp.consistency_violation(g, toward_target),
            sp.consistency_violation(g, averaged),
        )
        for strategy in ("astar", "bidastar"):
            got = sp.ppsp(g, s, t, strategy).distance
            worst_rel = max(worst_rel, abs(got - want) / want)
    ok = worst_rel <= 1e-9 and worst_slack <= 1e-9
    _report(2, ok, f"{2 * len(pairs)} runs, worst rel err {worst_rel:.1e}, worst arc slack {worst_slack:.1e}")


def test_criterion_03_reweighted_graph_equivalence():
    worst = 0.0
    runs = 0
    for k in range(10):
        g = geometric_graph(500, 5, seed=100 + k)
        pairs = random_pairs_same_component(g, 5, seed=200 + k)
        vertices = np.arange(g.n)
        for s, t in pairs.tolist():
            at_target = sp.euclidean_heuristic(g.coords, t)(vertices)
            at_source = sp.euclidean_heuristic(g.coords, s)(vertices)
            potential = 0.5 * (at_target - at_source)
            on_g = sp.ppsp(g, s, t, "bidastar").distance
            # the directed graph of the forward reweighted arcs
            fwd, _ = sp.induced_arc_weights(g, potential)
            shifted = sp.build_csr(g.n, np.column_stack([g.arc_sources(), g.targets, fwd]))
            on_shifted = sp.sssp(shifted, s)[t]
            worst = max(worst, abs(on_g - (on_shifted - potential[t] + potential[s])))
            runs += 1
    ok = worst <= 1e-9
    _report(3, ok, f"{runs} pairs, worst shift mismatch {worst:.1e}")


def test_criterion_04_batch_pattern_equivalence():
    checked = 0
    failures = []
    for gk in range(5):
        g = random_graph(10_000, 4, seed=1000 + gk)
        oracle = {}
        for pattern in sp.PATTERNS:
            pairs = sp.pattern_pairs(g, pattern, 6, seed=3000 + gk)
            qg = sp.build_query_graph(pairs, g.n)
            want = []
            for s, t in pairs.tolist():
                lo, hi = (s, t) if s < t else (t, s)
                if lo not in oracle:
                    oracle[lo] = sp.dijkstra(g, lo)
                want.append(oracle[lo][hi])
            want = np.asarray(want)
            for algo in sp.BATCH_ALGOS:
                if algo == "multi":
                    got = sp.multi_bids(g, qg).distances
                elif algo == "vc":
                    got = sp.vc_sssp_batch(g, qg).distances
                else:
                    got = sp.baseline_batch(g, qg, algo).distances
                checked += len(pairs)
                if not np.array_equal(got, want):
                    failures.append((gk, pattern, algo))
    ok = not failures
    detail = f"{checked} answered pairs across 5 graphs x 7 patterns x {len(sp.BATCH_ALGOS)} algorithms"
    if failures:
        detail += f"; first failure {failures[0]}"
    _report(4, ok, detail)


def _covers(qg, cover):
    chosen = set(cover.tolist())
    return all(a in chosen or b in chosen for a, b in qg.edges.tolist())


def _brute_min_cover_size(qg):
    for size in range(qg.order + 1):
        for subset in itertools.combinations(range(qg.order), size):
            chosen = set(subset)
            if all(a in chosen or b in chosen for a, b in qg.edges.tolist()):
                return size
    raise AssertionError("unreachable")


def test_criterion_05_vertex_cover():
    rng = np.random.default_rng(14)
    checked = 0
    bad_exact = 0
    bad_greedy = 0
    while checked < 100:
        order = int(rng.integers(2, 13))
        pairs = rng.integers(0, order, (int(rng.integers(1, 2 * order)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if len(pairs) == 0:
            continue
        qg = sp.build_query_graph(pairs, order)
        exact = sp.exact_vertex_cover(qg)
        if not _covers(qg, exact) or len(exact) != _brute_min_cover_size(qg):
            bad_exact += 1
        if not _covers(qg, sp.greedy_vertex_cover(qg)):
            bad_greedy += 1
        checked += 1
    ok = bad_exact == 0 and bad_greedy == 0
    _report(5, ok, f"{checked} query graphs, {bad_exact} exact / {bad_greedy} greedy failures")


def test_criterion_06_pruning_shrinks_settled_region():
    g = grid_graph(512)
    rng = np.random.default_rng(21)
    sources = rng.integers(0, g.n, 20)
    policy = sp.StepPolicy(1.0)
    settled = {"et": [], "bids": [], "sssp": []}
    for s in sources.tolist():
        hops = bfs_hops(g, s).astype(np.float64)
        t = sp.percentile_target(g, s, 1.0, distances=hops)
        settled["et"].append(sp.ppsp(g, s, t, "et", policy=policy).settled_copies)
        settled["bids"].append(sp.ppsp(g, s, t, "bids", policy=policy).settled_copies)
        _, stats = sp.sssp(g, s, policy=policy, return_stats=True)
        settled["sssp"].append(stats.settled_copies)
    med = {k: statistics.median(v) for k, v in settled.items()}
    ok = med["bids"] <= 0.75 * med["et"] and med["et"] <= med["sssp"]
    _report(6, ok, f"median settled copies bids={med['bids']:.0f} et={med['et']:.0f} sssp={med['sssp']:.0f}")


def _recording(base):
    batches = []

    def h(vertices):
        arr = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        batches.append(arr.copy())
        return base(arr)

    return h, batches


def test_criterion_07_heuristic_memoization():
    g, pairs = _geo_suite()
    duplicate_runs = 0
    savings_failures = 0
    ratios = []
    for s, t in pairs.tolist():
        base = sp.euclidean_heuristic(g.coords, t)
        h_memo, memo_batches = _recording(base)
        memo_run = sp.ppsp(g, s, t, "astar", heuristic=h_memo, memoize=True)
        computed = np.concatenate(memo_batches) if memo_batches else np.empty(0, np.int64)
        if computed.size != np.unique(computed).size:
            duplicate_runs += 1
        if memo_run.extras["heuristic_computations"] != computed.size:
            duplicate_runs += 1
        h_plain, plain_batches = _recording(base)
        plain_run = sp.ppsp(g, s, t, "astar", heuristic=h_plain, memoize=False)
        plain_count = sum(b.size for b in plain_batches)
        if computed.size > plain_count or plain_run.extras["heuristic_computations"] != plain_count:
            savings_failures += 1
        if computed.size:
            ratios.append(plain_count / computed.size)
    ok = duplicate_runs == 0 and savings_failures == 0
    _report(7, ok, f"{len(pairs)} runs, no vertex computed twice, median saving {statistics.median(ratios):.0f}x")


def test_criterion_08_determinism_across_threads_and_deltas():
    deltas = (1.0, float(2**10), float(2**18))
    repeats = 2
    runs = 0
    mismatches = 0

    def sweep(g, s, t, strategy):
        nonlocal runs, mismatches
        reference = None
        for delta in deltas:
            for _ in range(repeats):
                got = sp.ppsp(g, s, t, strategy, policy=sp.StepPolicy(delta)).distance
                runs += 1
                if reference is None:
                    reference = got
                elif got != reference:
                    mismatches += 1

    for g, pairs in _small_suite():
        for s, t in pairs.tolist():
            sweep(g, s, t, "et")
            sweep(g, s, t, "bids")
    g, pairs = _geo_suite()
    for s, t in pairs.tolist():
        sweep(g, s, t, "astar")
        sweep(g, s, t, "bidastar")
    ok = mismatches == 0
    _report(8, ok, f"{runs} runs, {mismatches} distance mismatches")


def test_criterion_09_disconnected_early_out():
    rng = np.random.default_rng(33)

    def component(lo, count, extra, max_w):
        ids = np.arange(lo, lo + count)
        path = np.column_stack([ids[:-1], ids[1:]])
        u = rng.integers(lo, lo + count, extra)
        v = rng.integers(lo, lo + count, extra)
        keep = u != v
        pairs = np.concatenate([path, np.column_stack([u[keep], v[keep]])])
        w = rng.integers(1, max_w + 1, len(pairs)).astype(np.float64)
        return np.column_stack([pairs, w])

    # small component gets tiny weights so it exhausts long before the
    # big one would; the search must then stop instead of draining the
    # other side
    g = sp.build_csr(
        10_100,
        np.concatenate([component(0, 10_000, 30_000, 2**18), component(10_000, 100, 200, 16)]),
        symmetrize=True,
    )
    info = sp.largest_component(g)
    sizes = sorted(np.bincount(info.labels).tolist())
    search = BidsSearch(g, 10_050, 17)
    source_pending = []  # per extraction: is an even (source side) cell pending?
    watch_hook(search, "keys", lambda cells: source_pending.append(bool(np.any(cells % 2 == 0))))
    stats = run_search(g, search, sp.StepPolicy(float(2**10)))
    ok = (
        info.count == 2
        and sizes == [100, 10_000]
        and math.isinf(search.best)
        and all(source_pending)
        and stats.settled_copies < g.n // 2
    )
    _report(
        9,
        ok,
        f"+inf in {stats.steps} steps; source side pending at {sum(source_pending)} of "
        f"{len(source_pending)} extractions; {stats.settled_copies} copies settled of {2 * g.n} cells",
    )


def test_criterion_10_bench_protocol_defaults():
    report = sp.run_bench(g1(), sp.BenchConfig(mode="query", pairs=np.asarray([[0, 3]]), strategy="et"))
    (rec,) = report.records
    cli_args = _build_parser().parse_args(["bench", "-g", "unused", "--source", "0", "--target", "3"])
    ok = (
        DEFAULT_WARMUP == 1
        and DEFAULT_ROUNDS == 5
        and cli_args.warmup == 1
        and cli_args.rounds == 5
        and rec["warmup_rounds"] == 1
        and rec["timed_rounds"] == 5
        and len(rec["round_times"]) == 5
        and rec["mean_time"] == sum(rec["round_times"]) / 5.0
        and rec["distances"] == [4.0]
    )
    _report(10, ok, f"warmup={rec['warmup_rounds']} rounds={rec['timed_rounds']} mean={rec['mean_time']:.2e}s")
