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
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .batch import BATCH_ALGOS, _run_batch, build_query_graph
from .engine import SearchStats, StepPolicy, default_policy
from .graph import CsrGraph
from .io import as_pairs
from .ppsp import STRATEGIES, PpspAnswer, ppsp

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


def _counters(stats: SearchStats) -> dict:
    """A record's counter fields, one per :class:`SearchStats` field, in its order."""
    return {f.name: getattr(stats, f.name) for f in fields(SearchStats)}


def _distances(answer) -> np.ndarray:
    """A batch answer's distances, or a query answer's one distance, as an array."""
    return np.asarray([answer.distance]) if isinstance(answer, PpspAnswer) else answer.distances


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

    # each runner takes the policy and returns the answer
    if cfg.mode == "query":
        runners = [(f"{s}->{t}", partial(ppsp, graph, int(s), int(t), cfg.strategy),
                    {"source": int(s), "target": int(t)}) for s, t in pairs]
    else:
        qg = build_query_graph(pairs, graph.n)
        runners = [(cfg.algo, partial(_run_batch, graph, qg, cfg.algo), {"n_pairs": int(pairs.shape[0])})]

    policy = step_policy(graph, cfg.delta)

    report = BenchReport(resolved_delta=policy.delta)
    for name, run, meta in runners:
        for _ in range(cfg.warmup):
            baseline = _distances(run(policy=policy))
        times = []
        distances = None
        for _ in range(cfg.rounds):
            t0 = time.perf_counter()
            answer = run(policy=policy)
            times.append(time.perf_counter() - t0)
            got = _distances(answer)
            if distances is not None and not np.array_equal(distances, got):
                raise BenchError(f"{name}: distances changed between timed rounds")
            distances = got
        if cfg.warmup and not np.array_equal(baseline, distances):
            raise BenchError(f"{name}: warmup and timed distances disagree")
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
            **_counters(answer),
        }
        record.update(meta)
        report.records.append(record)
    return report
