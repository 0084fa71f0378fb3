"""Point-to-point shortest-path searches with pruned stepping.

Four strategies share the engine loop and differ only in their seed,
prune, and answer-update rules:

* ``et`` seeds the source and prunes copies at or past the best answer.
* ``astar`` is ``et`` with keys and prunes shifted by a consistent
  heuristic toward the target.
* ``bids`` seeds both endpoints (neither when they lie in two
  components) and prunes copies at or past half the best answer; the
  answer is the best forward+backward sum seen at any vertex relaxed by
  either side.
* ``bidastar`` is ``bids`` with opposing averaged heuristics layered on
  the keys and prune checks: ``(h_target - h_source) / 2`` forward and
  its negation backward, built inline by :class:`BidAstarSearch`.

Every strategy returns the exact distance (+inf when disconnected); the
pruning only shrinks how much of the graph gets expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import INF, Search, SearchStats, SsspSearch, StepPolicy, run_search
from .graph import CsrGraph, largest_component
from .heuristics import MemoTable, heuristic_for_graph
from .io import as_vertex

STRATEGIES = ("sssp", "et", "bids", "astar", "bidastar")


@dataclass(kw_only=True)
class PpspAnswer(SearchStats):
    """The distance, built by keyword, with the run's :class:`~steppath.engine.SearchStats` counters."""

    distance: float
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
        return self.keys(cells) >= self.best

    def on_improved(self, cells):
        # the target's distance falls below the answer only in a step that
        # improved it, so ``cells`` need not be searched for it
        d = float(self.dist[self.target])
        if d < self.best:
            self.best = d
            return True
        return False


class AstarSearch(EtSearch):
    """Early termination with keys ordered by distance plus heuristic.

    The heuristic of a cell is looked up when the cell is seeded or
    improved, so a key is one gather from the memo table's values.
    """

    def __init__(self, graph, source, target, heuristic):
        super().__init__(graph, source, target)
        self.memo = MemoTable(self._take("h", graph.n, np.nan), heuristic)

    def seeds(self):
        cells, values = super().seeds()
        self.memo.get_many(cells)
        return cells, values

    def keys(self, cells):
        return self.dist[cells] + self.memo.values[cells]

    def on_improved(self, cells):
        self.memo.get_many(cells, distinct=True)  # the improved cells of a step are distinct
        return super().on_improved(cells)


class BidsSearch(Search):
    """Concurrent forward and backward searches meeting in the middle.

    Even cells are the forward copy (from the source), odd cells the
    backward copy (from the target; meaningful on symmetric graphs).
    Whenever either copy of a vertex improves, the sum of its two copies
    is offered as an answer candidate, and copies at or past half the
    best answer are pruned.  Endpoints in two components (the graph's
    cached labels, :func:`~steppath.graph.largest_component`) seed
    nothing, so the answer +inf costs no step.
    """

    def __init__(self, graph: CsrGraph, source: int, target: int):
        if not graph.symmetric:
            raise ValueError("bidirectional search needs a symmetrized graph")
        super().__init__(graph, copies=2)
        self.source = source
        self.target = target
        self.best = INF

    def seeds(self):
        labels = largest_component(self.graph).labels
        if labels[self.source] != labels[self.target]:  # no meeting point: nothing to search
            return np.empty(0, dtype=np.int64), np.empty(0)
        cells = np.asarray([2 * self.source, 2 * self.target + 1], dtype=np.int64)
        return cells, np.zeros(2)

    def prune(self, cells):
        return self.keys(cells) >= 0.5 * self.best

    def on_improved(self, cells):
        sums = self.dist[cells] + self.dist[cells ^ 1]
        if sums.size:
            low = float(sums.min())
            if low < self.best:
                self.best = low
                return True
        return False


class BidAstarSearch(BidsSearch):
    """Bidirectional search steered by opposing averaged heuristics.

    The forward heuristic is h(v) = (h_target(v) - h_source(v)) / 2 and
    the backward one is -h, so the two sides' key spaces stay aligned;
    with both inputs consistent, so are both of these.  Each cell's
    signed heuristic (+h forward, -h backward) is stored in a per-cell
    array when the cell is seeded or improved, so a key is one gather
    from it.
    """

    def __init__(self, graph, source, target, h_source, h_target):
        super().__init__(graph, source, target)

        def forward_h(vertices):
            return 0.5 * (h_target(vertices) - h_source(vertices))

        self.memo = MemoTable(self._take("h", graph.n, np.nan), forward_h)
        self._signed_h = self._take("signed_h", graph.n * 2, np.nan)  # cell 2v: +h(v), 2v + 1: -h(v)

    def _fill(self, cells):
        h = self.memo.get_many(cells >> 1)
        self._signed_h[cells] = np.where(cells & 1, -h, h)

    def seeds(self):
        cells, values = super().seeds()
        self._fill(cells)
        return cells, values

    def keys(self, cells):
        return self.dist[cells] + self._signed_h[cells]

    def on_improved(self, cells):
        self._fill(cells)
        return super().on_improved(cells)


def _heuristic_pair(graph, source, target, heuristic):
    if heuristic is None:
        return heuristic_for_graph(graph, source), heuristic_for_graph(graph, target)
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
) -> PpspAnswer:
    """One point-to-point query; returns the exact distance and counters.

    ``heuristic`` feeds the A* strategies: a single vectorized callable
    estimating distance *to the target* for ``astar``, or a
    ``(h_source, h_target)`` pair of them for ``bidastar``; anything else
    raises ValueError, whatever the strategy.  When omitted the
    heuristics come from the graph's coordinates
    (:func:`~steppath.heuristics.heuristic_for_graph`), scaled to the arc
    weights so they are consistent whatever units the weights use.  A
    heuristic passed in is used unchecked;
    :func:`~steppath.heuristics.check_consistent` checks one.
    ``policy`` (default: :func:`~steppath.engine.default_policy`) is
    handed to :func:`~steppath.engine.run_search` unchanged, so every
    strategy's thresholds are ``i * delta`` from 0 and the counters are
    those of the engine run.  To search a potential-reweighted graph, build it
    from :func:`~steppath.heuristics.induced_arc_weights` and query that.
    """
    source = as_vertex(source, graph.n, "source")
    target = as_vertex(target, graph.n, "target")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    pair = isinstance(heuristic, tuple) and len(heuristic) == 2 and all(map(callable, heuristic))
    if not (heuristic is None or callable(heuristic) or pair):
        raise ValueError(f"heuristic must be None, one callable or a pair of callables, got {heuristic!r}")
    if source == target:
        return PpspAnswer(distance=0.0)

    if strategy == "sssp":
        search: Search = SsspSearch(graph, source)
    elif strategy == "et":
        search = EtSearch(graph, source, target)
    elif strategy == "astar":
        _, h_target = _heuristic_pair(graph, source, target, heuristic)
        search = AstarSearch(graph, source, target, h_target)
    elif strategy == "bids":
        search = BidsSearch(graph, source, target)
    else:
        h_source, h_target = _heuristic_pair(graph, source, target, heuristic)
        if h_source is None or h_target is None:
            raise ValueError("bidastar needs heuristics toward both endpoints")
        search = BidAstarSearch(graph, source, target, h_source, h_target)

    stats = run_search(graph, search, policy=policy)
    if strategy == "sssp":
        distance = float(search.dist[target])
    else:
        distance = float(search.best)
    search._release()  # the answer is read: the arrays go back to the pool
    answer = PpspAnswer(distance=distance, **vars(stats))
    memo = getattr(search, "memo", None)
    if memo is not None:
        answer.extras["heuristic_computations"] = memo.computations
        answer.extras["heuristic_requests"] = memo.requests
    return answer
