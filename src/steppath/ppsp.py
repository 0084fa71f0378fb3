"""Point-to-point shortest-path searches with pruned stepping.

Four strategies share the engine loop and differ only in their seed,
prune, and answer-update rules:

* ``et`` seeds the source and prunes copies at or past the best answer.
* ``astar`` is ``et`` with keys and prunes shifted by a consistent
  heuristic toward the target.
* ``bids`` seeds both endpoints and prunes copies at or past half the
  best answer; the answer is the best forward+backward sum seen at any
  vertex relaxed by either side.
* ``bidastar`` is ``bids`` with opposing averaged heuristics layered on
  the keys and prune checks.

Every strategy returns the exact distance (+inf when disconnected); the
pruning only shrinks how much of the graph gets expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import INF, Search, SsspSearch, StepPolicy, run_search
from .graph import CsrGraph
from .heuristics import (
    EARTH_RADIUS_KM,
    MemoTable,
    check_consistent,
    heuristic_for_graph,
    make_bidirectional_heuristics,
)

STRATEGIES = ("sssp", "et", "bids", "astar", "bidastar")


@dataclass
class PpspAnswer:
    """Distance plus the instrumentation counters of the run."""

    distance: float
    steps: int
    relaxations: int
    settled_copies: int
    extras: dict = field(default_factory=dict)


class EtSearch(Search):
    """Single-direction search that stops paying for copies past the answer."""

    def __init__(self, graph: CsrGraph, source: int, target: int):
        super().__init__(graph, copies=1)
        self.source = source
        self.target = target
        self.best = INF

    def seeds(self):
        return np.asarray([self.source], dtype=np.int64), np.zeros(1)

    def prune(self, cells):
        return self.dist[cells] >= self.best

    def on_improved(self, cells):
        if np.any(cells == self.target):
            d = float(self.dist[self.target])
            if d < self.best:
                self.best = d
                return True
        return False


class AstarSearch(EtSearch):
    """Early termination with keys ordered by distance plus heuristic."""

    def __init__(self, graph, source, target, heuristic, memoize=True):
        super().__init__(graph, source, target)
        self.memo = MemoTable(graph.n, heuristic, enabled=memoize)

    def keys(self, cells):
        return self.dist[cells] + self.memo.get_many(cells)

    def prune(self, cells):
        return self.keys(cells) >= self.best


class BidsSearch(Search):
    """Concurrent forward and backward searches meeting in the middle.

    Even cells are the forward copy (from the source), odd cells the
    backward copy (from the target; meaningful on symmetric graphs).
    Whenever either copy of a vertex improves, the sum of its two copies
    is offered as an answer candidate, and copies at or past half the
    best answer are pruned.
    """

    def __init__(self, graph: CsrGraph, source: int, target: int):
        if not graph.symmetric:
            raise ValueError("bidirectional search needs a symmetrized graph")
        super().__init__(graph, copies=2)
        self.source = source
        self.target = target
        self.best = INF

    def seeds(self):
        cells = np.asarray([2 * self.source, 2 * self.target + 1], dtype=np.int64)
        return cells, np.zeros(2)

    def prune(self, cells):
        return self.dist[cells] >= 0.5 * self.best

    def on_improved(self, cells):
        sums = self.dist[cells] + self.dist[cells ^ 1]
        if sums.size:
            low = float(sums.min())
            if low < self.best:
                self.best = low
                return True
        return False

    def early_out(self, frontier):
        # with the two sides disconnected no meeting point exists; once
        # one side exhausts, no later step can change the answer
        if self.best < INF:
            return False
        backward = np.count_nonzero(frontier.pending & 1)
        return backward == 0 or backward == frontier.size


class BidAstarSearch(BidsSearch):
    """Bidirectional search steered by opposing averaged heuristics."""

    def __init__(self, graph, source, target, h_source, h_target, memoize=True):
        super().__init__(graph, source, target)
        forward_h, _ = make_bidirectional_heuristics(h_source, h_target)
        self.memo = MemoTable(graph.n, forward_h, enabled=memoize)

    def keys(self, cells):
        h = self.memo.get_many(cells >> 1)
        sign = 1.0 - 2.0 * (cells & 1)  # +h forward, -h backward
        return self.dist[cells] + h * sign

    def prune(self, cells):
        return self.keys(cells) >= 0.5 * self.best


def _heuristic_pair(graph, source, target, heuristic, radius):
    if heuristic is None:
        return (
            heuristic_for_graph(graph, source, radius),
            heuristic_for_graph(graph, target, radius),
        )
    if isinstance(heuristic, tuple):
        return heuristic
    return None, heuristic  # single callable: estimates distance to target


def ppsp(
    graph: CsrGraph,
    source: int,
    target: int,
    strategy: str = "bids",
    *,
    policy: StepPolicy | None = None,
    heuristic=None,
    radius: float = EARTH_RADIUS_KM,
    memoize: bool = True,
    validate_heuristic: bool = False,
) -> PpspAnswer:
    """One point-to-point query; returns the exact distance and counters.

    ``heuristic`` feeds the A* strategies: a single vectorized callable
    estimating distance *to the target* for ``astar``, or a
    ``(h_source, h_target)`` pair for ``bidastar``.  When omitted the
    heuristics come from the graph's coordinates.  ``policy`` (default:
    :func:`~steppath.engine.default_policy`) is handed to
    :func:`~steppath.engine.run_search` unchanged, so every strategy's
    thresholds are ``i * delta`` from 0 and the counters are those of
    the engine run.  To search a potential-reweighted graph, build it
    from :func:`~steppath.heuristics.induced_arc_weights` and query that.
    """
    for name, v in (("source", source), ("target", target)):
        if not 0 <= v < graph.n:
            raise ValueError(f"{name} {v} out of range for n={graph.n}")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if source == target:
        return PpspAnswer(0.0, 0, 0, 0)

    if strategy == "sssp":
        search: Search = SsspSearch(graph, source)
    elif strategy == "et":
        search = EtSearch(graph, source, target)
    elif strategy == "astar":
        _, h_target = _heuristic_pair(graph, source, target, heuristic, radius)
        if h_target is None:
            raise ValueError("astar needs a target heuristic")
        if validate_heuristic:
            check_consistent(graph, h_target)
        search = AstarSearch(graph, source, target, h_target, memoize=memoize)
    elif strategy == "bids":
        search = BidsSearch(graph, source, target)
    else:
        h_source, h_target = _heuristic_pair(graph, source, target, heuristic, radius)
        if h_source is None or h_target is None:
            raise ValueError("bidastar needs heuristics toward both endpoints")
        if validate_heuristic:
            check_consistent(graph, h_source)
            check_consistent(graph, h_target)
        search = BidAstarSearch(graph, source, target, h_source, h_target, memoize=memoize)

    stats = run_search(graph, search, policy=policy)
    if strategy == "sssp":
        distance = float(search.dist[target])
    else:
        distance = float(search.best)
    answer = PpspAnswer(distance, stats.steps, stats.relaxations, stats.settled_copies)
    memo = getattr(search, "memo", None)
    if memo is not None:
        answer.extras["heuristic_computations"] = memo.computations
        answer.extras["heuristic_requests"] = memo.requests
    return answer
