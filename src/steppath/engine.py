"""Stepping loop: distance cells, frontier, thresholds, relaxation.

A search runs over *copies*: cell ``v * copies + i`` holds the tentative
distance of vertex ``v`` in the i-th concurrent search (one copy for
plain SSSP, two for bidirectional searches, |V_q| for batches).  The loop
repeats: pick a threshold, extract every pending copy whose ordering key
is at most the threshold, relax their outgoing arcs, and feed every
strictly improved cell back into the frontier.

The frontier never holds a copy that the active strategy prunes, so
extraction does not check.  A copy is checked when it enters (as a seed
or an improved cell), and the whole pending set is checked whenever a
prune bound tightens.  That is exact: every prune rule has the form
"key >= bound", bounds only fall, and a pending copy's key only falls,
so a pending copy can only become prunable at a tightening.

The step rule combines Δ-stepping and ρ-stepping (Dong, Gu, Sun & Zhang,
SPAA 2021).  The i-th step's Δ window covers keys up to ``i * delta``,
for every search alike.  When that window holds fewer than
``min_copies`` pending copies, the step widens to the ``min_copies``
smallest keys (ties included), or to every pending copy if there are no
more than that.  So a step is never thinner than ``min_copies`` copies
while that many are pending, and a narrow frontier pays the fixed cost of
a step less often.  The default policy floors each step at
:data:`DEFAULT_MIN_COPIES`; ``min_copies=1`` is pure Δ-stepping.

Relaxations within a step are applied as one grouped scatter-min, which
is value-equivalent to a sequence of atomic write-min updates: each cell
ends the step at the minimum of its prior value and every candidate, and
counts as improved only on a strict decrease.  Candidates that cannot
improve their cell are dropped before the grouped minimum, so its sort
only sees the survivors.  Copies improved mid-step are simply
re-extracted at a later step, which keeps any schedule correct: a copy
stays pending until it is extracted or pruned, and the loop runs until
nothing is pending.  A minimum does not depend on the order of its inputs and every
schedule ends at the same fixpoint, so distances are bit-identical for
every step rule.  Answers assembled from sums at meeting points (the
bidirectional strategies and batches on float weights) may differ in the
last bit between schedules, because a schedule decides which meeting
points get offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import CsrGraph

INF = math.inf
# floor on the copies one step of the default policy extracts
DEFAULT_MIN_COPIES = 128


@dataclass
class StepPolicy:
    """Threshold schedule: the i-th step covers keys <= i * delta.

    The schedule starts at 0 for every search, including those whose
    keys carry a heuristic offset.

    A step whose window holds fewer than ``min_copies`` pending copies
    takes the ``min_copies`` smallest keys instead (see
    :meth:`Frontier.extract`).
    """

    delta: float
    min_copies: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and positive")
        m = self.min_copies
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"min_copies must be an integer >= 1, got {m!r}")

    def threshold(self, index: int) -> float:
        return index * self.delta

    def index_covering(self, key: float) -> int:
        """Smallest step index whose threshold reaches ``key``."""
        i = max(0, math.ceil(key / self.delta))
        while self.threshold(i) < key:  # float-rounding guard
            i += 1
        return i


def default_policy(graph: CsrGraph) -> StepPolicy:
    """Δ = max arc weight / 16, each step floored at DEFAULT_MIN_COPIES."""
    top = graph.max_weight()
    return StepPolicy(delta=top / 16.0 if top > 0 else 1.0, min_copies=DEFAULT_MIN_COPIES)


class Frontier:
    """Deduplicating pending set of copy cells with thresholded extraction.

    A boolean membership mask is the dedup authority; the pending cells
    themselves are kept as a compact id array, so extraction costs time
    in the number of pending cells, not in the capacity.
    """

    def __init__(self, capacity: int):
        self._mask = np.zeros(capacity, dtype=bool)
        self._ids = np.empty(0, dtype=np.int64)
        self.size = 0

    @property
    def pending(self) -> np.ndarray:
        """The pending cell ids, in no particular order (a read-only view)."""
        view = self._ids.view()
        view.flags.writeable = False
        return view

    def add_many(self, cells: np.ndarray) -> int:
        """Insert cells (unique ids); returns how many were newly pending."""
        if cells.size == 0:
            return 0
        fresh = cells[~self._mask[cells]]
        if fresh.size == 0:
            return 0
        self._mask[fresh] = True
        self.size += fresh.size
        self._ids = np.concatenate([self._ids, fresh])
        return int(fresh.size)

    def extract(self, threshold: float, key_fn, min_copies: int = 1) -> tuple[np.ndarray, float]:
        """Remove and return all pending cells with current key <= threshold.

        When fewer than ``min_copies`` keys lie within the threshold, the
        threshold is raised to the ``min_copies``-th smallest pending key
        (every copy tied with it is taken too), or every pending copy is
        taken if there are at most ``min_copies``.  Keys are re-read at
        extraction time, so a copy improved since it was added is
        classified by its current value.  Also returns the smallest key
        left pending (inf if none), which lets the caller fast-forward
        over empty thresholds.
        """
        if self.size == 0:
            return np.empty(0, dtype=np.int64), INF
        keys = key_fn(self._ids)
        take = keys <= threshold
        if min_copies > 1 and np.count_nonzero(take) < min_copies:
            if self.size <= min_copies:
                take = np.ones(self.size, dtype=bool)
            else:
                take = keys <= np.partition(keys, min_copies - 1)[min_copies - 1]
        out = self._ids[take]
        if out.size:
            self._mask[out] = False
            self.size -= int(out.size)
            self._ids = self._ids[~take]
        rest = keys[~take]
        return out, float(rest.min()) if rest.size else INF

    def discard(self, doomed) -> int:
        """Drop every pending cell for which ``doomed(cells)`` is true.

        ``doomed`` maps an id array to a boolean mask of the same shape;
        returns how many cells were dropped.  A dropped cell can be added
        again later.
        """
        if self.size == 0:
            return 0
        drop = doomed(self._ids)
        dropped = int(np.count_nonzero(drop))
        if dropped:
            self._mask[self._ids[drop]] = False
            self._ids = self._ids[~drop]
            self.size -= dropped
        return dropped


class Search:
    """Hook bundle consumed by :func:`run_search`.

    Subclasses fix the number of copies, seed the frontier, and define
    the ordering key, the prune predicate, and the reaction to improved
    cells (answer bookkeeping).  The base class is a full SSSP: nothing
    is ever pruned.

    ``prune`` must read "key >= bound" against bounds that only fall.
    ``on_improved`` returns True when it made a prune bound tighter; the
    loop then drops every pending copy that ``prune`` now rejects.  A hook
    that under-reports a tightening only costs work: the copies it leaves
    pending get expanded, and those expansions offer real path lengths.
    ``early_out`` runs before each extraction; a strategy that lowers a
    bound there drops the newly pruned copies itself with
    :meth:`Frontier.discard`.
    """

    def __init__(self, graph: CsrGraph, copies: int = 1):
        self.graph = graph
        self.copies = copies
        self.dist = np.full(graph.n * copies, INF)  # cell v * copies + i

    def seeds(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def keys(self, cells: np.ndarray) -> np.ndarray:
        return self.dist[cells]

    def prune(self, cells: np.ndarray) -> np.ndarray:
        return np.zeros(cells.shape, dtype=bool)

    def on_improved(self, cells: np.ndarray) -> bool:
        return False

    def early_out(self, frontier: Frontier) -> bool:
        return False


class SsspSearch(Search):
    """Single-source shortest paths: the degenerate, prune-free strategy."""

    def __init__(self, graph: CsrGraph, source: int):
        if not 0 <= source < graph.n:
            raise ValueError(f"source {source} out of range for n={graph.n}")
        super().__init__(graph, copies=1)
        self.source = source

    def seeds(self):
        return np.asarray([self.source], dtype=np.int64), np.zeros(1)


@dataclass
class SearchStats:
    steps: int = 0
    relaxations: int = 0
    settled_copies: int = 0


def _exclusive_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.empty(a.size, dtype=np.int64)
    if a.size:
        out[0] = 0
        np.cumsum(a[:-1], out=out[1:])
    return out


def _arc_ranges(offsets: np.ndarray, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the arc index ranges of ``verts`` (grouped, in order)."""
    deg = offsets[verts + 1] - offsets[verts]
    total = int(deg.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), deg
    shift = np.repeat(offsets[verts] - _exclusive_cumsum(deg), deg)
    return np.arange(total, dtype=np.int64) + shift, deg


def _candidates(graph, dist, cells, copies):
    """Push-phase relaxation candidates (target cell, candidate value)."""
    if copies == 1:
        verts = cells
    else:
        verts = cells // copies
    arc_idx, deg = _arc_ranges(graph.offsets, verts)
    if arc_idx.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0), 0
    tgt_v = graph.targets[arc_idx].astype(np.int64)
    cand = np.repeat(dist[cells], deg) + graph.weights[arc_idx]
    if copies == 1:
        tgt_cells = tgt_v
    else:
        tgt_cells = tgt_v * copies + np.repeat(cells - verts * copies, deg)
    return tgt_cells, cand, int(arc_idx.size)


def _scatter_min(values: np.ndarray, keys: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Grouped write-min of ``cand`` into ``values[keys]``.

    Each distinct key takes the minimum of its current value and all of
    its candidates; returns the distinct keys (ascending) that strictly
    decreased.  A tie with the current value is not an improvement.
    Candidates that cannot improve (``cand >= values[keys]``) are dropped
    before the grouped minimum, so only the survivors are sorted, and
    every surviving group strictly improves its cell.
    """
    live = cand < values[keys]
    keys = keys[live]
    if keys.size == 0:
        return keys
    order = np.argsort(keys)  # a minimum does not depend on input order
    sk = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
    uniq = sk[starts]
    values[uniq] = np.minimum.reduceat(cand[live][order], starts)
    return uniq


def run_search(
    graph: CsrGraph,
    search: Search,
    policy: StepPolicy | None = None,
) -> SearchStats:
    """Drive ``search`` to completion; returns instrumentation counters.

    Seeds enter the frontier unless ``search.prune`` rejects them.  Step
    ``i`` extracts the pending copies with keys up to
    ``policy.threshold(i)`` (``i * delta``, whatever the search), widened
    to the ``policy.min_copies`` smallest keys when that window holds
    fewer copies, and pushes their arcs as one scatter-min.  It reports
    the improved cells to ``search.on_improved``; when that tightens a
    prune bound, every pending copy ``search.prune`` now rejects is
    dropped.  Then the improved cells that ``prune`` accepts are re-added.
    Extraction itself never prunes: the frontier holds no prunable copy.
    The index advances by one per step, whether or not the step was
    widened.  ``steps`` counts rounds that extracted at least one copy;
    with ``min_copies == 1`` thresholds that cover nothing are skipped in
    one jump (a wider floor never leaves a step empty).  ``relaxations``
    counts scanned arcs and ``settled_copies`` counts distinct copies
    expanded at least once.
    """
    if policy is None:
        policy = default_policy(graph)
    copies = search.copies
    dist = search.dist
    frontier = Frontier(graph.n * copies)
    cells, values = search.seeds()
    dist[cells] = values
    frontier.add_many(cells[~search.prune(cells)])
    stats = SearchStats()
    settled = np.zeros(graph.n * copies, dtype=bool)
    index = 0
    while frontier.size > 0:
        # early_out may discard the last pending copies
        if search.early_out(frontier) or frontier.size == 0:
            break
        extracted, min_left = frontier.extract(
            policy.threshold(index), search.keys, policy.min_copies
        )
        if extracted.size == 0:
            index = max(index + 1, policy.index_covering(min_left))
            continue
        index += 1
        stats.steps += 1
        fresh = extracted[~settled[extracted]]
        settled[fresh] = True
        stats.settled_copies += int(fresh.size)
        tgt_cells, cand, scanned = _candidates(graph, dist, extracted, copies)
        stats.relaxations += scanned
        changed = _scatter_min(dist, tgt_cells, cand)
        if changed.size:
            if search.on_improved(changed):
                frontier.discard(search.prune)
            frontier.add_many(changed[~search.prune(changed)])
    return stats


def sssp(
    graph: CsrGraph,
    source: int,
    policy: StepPolicy | None = None,
    return_stats: bool = False,
):
    """Exact single-source distances via the stepping loop.

    The result is independent of ``policy``, which only steers how the
    work is scheduled.
    """
    search = SsspSearch(graph, source)
    stats = run_search(graph, search, policy=policy)
    dist = search.dist.copy()
    if return_stats:
        return dist, stats
    return dist
