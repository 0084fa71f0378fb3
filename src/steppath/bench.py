"""Benchmark protocol: warmup plus timed rounds, reports.

A bench run executes each workload item ``warmup`` times untimed, then
``rounds`` timed repetitions, reports the arithmetic mean of the timed
rounds only, and fails loudly if any round disagrees on the distances
(the runs are supposed to be value-deterministic).  Records are plain
dicts that echo every configuration field so a report line can be
replayed.  A step width of ``"auto"`` runs the graph's
:func:`~steppath.engine.default_policy` itself (its Δ and its adaptive
per-step copy count ρ), the same schedule ``query``, ``batch`` and the
library use; a number runs ``StepPolicy(delta)``.  The distances are the same for
every schedule, so the choice only moves the timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .batch import BATCH_ALGOS, _run_batch, build_query_graph
from .engine import StepPolicy, default_policy
from .graph import CsrGraph
from .io import as_pairs
from .ppsp import STRATEGIES, ppsp

DEFAULT_WARMUP = 1
DEFAULT_ROUNDS = 5


class BenchError(RuntimeError):
    """Internal inconsistency: rounds of one workload disagreed."""


@dataclass
class BenchConfig:
    """What to run and how to time it."""

    mode: str  # "query" or "batch"
    pairs: np.ndarray
    strategy: str = "bids"  # query mode: one of STRATEGIES
    algo: str = "multi"  # batch mode: one of BATCH_ALGOS
    delta: float | str = "auto"
    warmup: int = DEFAULT_WARMUP
    rounds: int = DEFAULT_ROUNDS
    seed: int = 0


@dataclass
class BenchReport:
    resolved_delta: float
    records: list[dict] = field(default_factory=list)


def step_policy(graph: CsrGraph, delta: float | str) -> StepPolicy:
    """``"auto"`` is the graph's default policy; a number is ``StepPolicy(delta)``."""
    return default_policy(graph) if delta == "auto" else StepPolicy(float(delta))


def _query_runner(graph, cfg, s, t):
    def run(policy):
        ans = ppsp(graph, s, t, cfg.strategy, policy=policy)
        return np.asarray([ans.distance]), ans.steps, ans.relaxations, ans.settled_copies

    return run


def _batch_runner(graph, cfg, qg):
    def run(policy):
        ans = _run_batch(graph, qg, cfg.algo, policy)
        return ans.distances, ans.steps, ans.relaxations, ans.settled_copies

    return run


def run_bench(graph: CsrGraph, cfg: BenchConfig) -> BenchReport:
    """Execute the configured workload under the warmup+rounds protocol."""
    if cfg.mode not in ("query", "batch"):
        raise ValueError("mode must be 'query' or 'batch'")
    if cfg.warmup < 0 or cfg.rounds < 1:
        raise ValueError("need warmup >= 0 and rounds >= 1")
    if cfg.mode == "query" and cfg.strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if cfg.mode == "batch" and cfg.algo not in BATCH_ALGOS:
        raise ValueError(f"algo must be one of {BATCH_ALGOS}")
    pairs = as_pairs(cfg.pairs)

    if cfg.mode == "query":
        runners = [(f"{s}->{t}", _query_runner(graph, cfg, int(s), int(t)), {"source": int(s), "target": int(t)})
                   for s, t in pairs]
    else:
        qg = build_query_graph(pairs, graph.n)
        runners = [(cfg.algo, _batch_runner(graph, cfg, qg), {"n_pairs": int(pairs.shape[0])})]

    policy = step_policy(graph, cfg.delta)

    report = BenchReport(resolved_delta=policy.delta)
    for name, run, meta in runners:
        for _ in range(cfg.warmup):
            baseline = run(policy)[0]
        times = []
        last = None
        for _ in range(cfg.rounds):
            t0 = time.perf_counter()
            out = run(policy)
            times.append(time.perf_counter() - t0)
            if last is not None and not np.array_equal(last[0], out[0]):
                raise BenchError(f"{name}: distances changed between timed rounds")
            last = out
        if cfg.warmup and not np.array_equal(baseline, last[0]):
            raise BenchError(f"{name}: warmup and timed distances disagree")
        distances, steps, relaxations, settled = last
        record = {
            "kind": cfg.mode,
            "workload": name,
            "strategy": cfg.strategy if cfg.mode == "query" else cfg.algo,
            "delta": policy.delta,
            "min_copies": policy.min_copies,
            "requested_delta": cfg.delta,
            "seed": cfg.seed,
            "warmup_rounds": cfg.warmup,
            "timed_rounds": cfg.rounds,
            "round_times": times,
            "mean_time": sum(times) / len(times),
            "distances": distances.tolist(),
            "steps": steps,
            "relaxations": relaxations,
            "settled_copies": settled,
        }
        record.update(meta)
        report.records.append(record)
    return report
