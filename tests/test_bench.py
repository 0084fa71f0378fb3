import numpy as np
import pytest

import steppath as sp
from steppath.batch import _run_batch
from helpers import g1, random_graph, random_pairs_same_component


def test_run_bench_query_mode():
    g = g1()
    cfg = sp.BenchConfig(mode="query", pairs=[(0, 3)], strategy="et", delta=1.0, warmup=1, rounds=5)
    report = sp.run_bench(g, cfg)
    assert report.resolved_delta == 1.0
    (rec,) = report.records
    assert rec["distances"] == [4.0]
    assert rec["source"] == 0 and rec["target"] == 3
    assert len(rec["round_times"]) == 5
    assert rec["mean_time"] == pytest.approx(sum(rec["round_times"]) / 5)
    assert rec["strategy"] == "et"
    assert rec["requested_delta"] == 1.0
    assert rec["min_copies"] == 1
    assert rec["workload"] == "0->3"


def test_run_bench_one_record_per_pair():
    g = g1()
    cfg = sp.BenchConfig(mode="query", pairs=[(0, 3), (1, 2)], strategy="bids", delta=2.0, rounds=2)
    report = sp.run_bench(g, cfg)
    assert [r["distances"] for r in report.records] == [[4.0], [2.0]]


def test_run_bench_batch_mode():
    g = g1()
    pairs = [(0, 3), (0, 2), (0, 1), (1, 3), (1, 2)]
    cfg = sp.BenchConfig(mode="batch", pairs=pairs, algo="multi", delta=1.0, warmup=0, rounds=1)
    report = sp.run_bench(g, cfg)
    (rec,) = report.records
    want = [sp.dijkstra(g, s)[t] for s, t in pairs]
    assert rec["distances"] == want
    assert rec["n_pairs"] == 5
    assert rec["strategy"] == "multi"
    assert rec["mean_time"] == rec["round_times"][0]


def test_run_bench_auto_delta_resolves():
    g = random_graph(120, 3, 9)
    pairs = random_pairs_same_component(g, 2, 4)
    cfg = sp.BenchConfig(mode="query", pairs=pairs, strategy="bids", delta="auto", warmup=0, rounds=1)
    report = sp.run_bench(g, cfg)
    policy = sp.default_policy(g)
    assert report.resolved_delta == policy.delta
    for rec, (s, t) in zip(report.records, pairs.tolist()):
        assert rec["requested_delta"] == "auto"
        assert rec["delta"] == report.resolved_delta
        # the default policy itself runs, floor included
        assert rec["min_copies"] == policy.min_copies
        assert rec["steps"] == sp.ppsp(g, s, t, "bids").steps


def test_run_bench_echoes_config():
    g = g1()
    cfg = sp.BenchConfig(mode="query", pairs=[(0, 3)], strategy="et", delta=1.0,
                         warmup=0, rounds=1, seed=7)
    (rec,) = sp.run_bench(g, cfg).records
    assert rec["strategy"] == "et" and rec["requested_delta"] == 1.0
    assert rec["seed"] == 7
    assert rec["warmup_rounds"] == 0
    assert rec["timed_rounds"] == 1


def test_run_bench_validation():
    g = g1()
    with pytest.raises(ValueError):
        sp.run_bench(g, sp.BenchConfig(mode="stroll", pairs=[(0, 3)]))
    with pytest.raises(ValueError):
        sp.run_bench(g, sp.BenchConfig(mode="query", pairs=[(0, 3)], rounds=0))
    with pytest.raises(ValueError):
        sp.run_bench(g, sp.BenchConfig(mode="query", pairs=[(0, 3)], strategy="teleport"))
    with pytest.raises(ValueError):
        sp.run_bench(g, sp.BenchConfig(mode="batch", pairs=[(0, 3)], algo="teleport"))


def test_run_bench_batch_algos_agree():
    g = random_graph(150, 3, 17)
    pairs = random_pairs_same_component(g, 6, 2)
    base = None
    for algo in sp.BATCH_ALGOS:
        cfg = sp.BenchConfig(mode="batch", pairs=pairs, algo=algo, delta=256.0, warmup=0, rounds=1)
        (rec,) = sp.run_bench(g, cfg).records
        if base is None:
            base = rec["distances"]
        assert rec["distances"] == base, algo


RECORD_KEYS = ["kind", "workload", "strategy", "delta", "min_copies", "requested_delta", "seed",
               "warmup_rounds", "timed_rounds", "round_times", "mean_time", "distances",
               "steps", "relaxations", "settled_copies"]


@pytest.mark.parametrize("algo", sp.BATCH_ALGOS)
def test_run_bench_batch_record_carries_the_answer_counters(algo):
    g = random_graph(150, 3, 17)
    pairs = random_pairs_same_component(g, 6, 2)
    cfg = sp.BenchConfig(mode="batch", pairs=pairs, algo=algo, delta=256.0, warmup=1, rounds=2)
    (rec,) = sp.run_bench(g, cfg).records
    ans = _run_batch(g, sp.build_query_graph(pairs, g.n), algo, sp.StepPolicy(256.0))
    assert list(rec) == RECORD_KEYS + ["n_pairs"]
    assert rec["distances"] == ans.distances.tolist()
    assert (rec["steps"], rec["relaxations"], rec["settled_copies"]) == (
        ans.steps, ans.relaxations, ans.settled_copies)


def test_run_bench_query_record_keys_and_counters():
    g = random_graph(150, 3, 17)
    (s, t) = random_pairs_same_component(g, 1, 4).tolist()[0]
    cfg = sp.BenchConfig(mode="query", pairs=[(s, t)], strategy="et", delta=256.0, warmup=0, rounds=1)
    (rec,) = sp.run_bench(g, cfg).records
    ans = sp.ppsp(g, s, t, "et", policy=sp.StepPolicy(256.0))
    assert list(rec) == RECORD_KEYS + ["source", "target"]
    assert rec["distances"] == [ans.distance]
    assert (rec["steps"], rec["relaxations"], rec["settled_copies"]) == (
        ans.steps, ans.relaxations, ans.settled_copies)
