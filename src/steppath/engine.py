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
for every search alike.  When that window holds fewer than ρ pending
copies, the step widens to the ρ smallest keys (ties included), or to
every pending copy if there are no more than ρ.  So a step is never
thinner than ρ copies while that many are pending, and a narrow frontier
pays the fixed cost of a step less often.

ρ starts at the policy's ``min_copies`` and follows the work each step
wastes: a copy taken again after it was already expanded is a
re-expansion.  When more than 1/8 of a step's copies were re-expansions,
ρ halves; when at most 1/32 were and the step took at least ρ copies, it
grows by 1/8.  A step that took the whole, smaller frontier says nothing
about a wider one, so it leaves ρ as it is.  ρ stays between half and
twice ``min_copies``.  An A* search, whose keys lie close
together along its corridor, then takes narrower steps and re-expands
less, while a search that wastes nothing takes wider ones and pays the
fixed cost of a step less often.  The default policy starts ρ at
:data:`DEFAULT_MIN_COPIES`; ``min_copies=1`` is pure Δ-stepping, with
ρ fixed at 1.

Relaxations within a step are applied as one grouped scatter-min, which
is value-equivalent to a sequence of atomic write-min updates: each cell
ends the step at the minimum of its prior value and every candidate, and
counts as improved only on a strict decrease.  Candidates that cannot
improve their cell are dropped first; the survivors go through one
unbuffered ``np.minimum.at`` and are deduplicated by stamping their
positions into a scratch array, so nothing is sorted and the improved
cells come back in no set order.  Order never matters: extraction takes
every pending copy up to a key, ties included, so the same copies are
taken whatever order the frontier holds them in.  Copies improved
mid-step are simply re-extracted at a later step, which keeps any
schedule correct: a copy stays pending until it is extracted or pruned,
and the loop runs until nothing is pending, its only exit.  A minimum
does not depend on the order of its inputs and every schedule ends at
the same fixpoint, so distances are bit-identical for every step rule.
Answers assembled from sums at meeting points (the bidirectional
strategies and batches on float weights) may differ in the last bit
between schedules, because a schedule decides which meeting points get
offered.

A step's arcs are the CSR rows of its extracted vertices, copied out
back to back by scipy's compiled ``csr_row_index`` (a private function
of ``scipy.sparse._sparsetools``, the loop behind ``csr_matrix[rows]``;
``tests/test_row_gather.py`` pins its contract).  It reads without
bounds checks: every ``CsrGraph`` is checked when it is made.

A query costs what it touches, not O(n).  Every per-cell array of a
search (the two masks, the stamp, the distances, a strategy's own) comes
from a pool on the graph object (``_pool`` in its ``__dict__``), under
one rule: a strategy names its arrays, and the engine resets and pools
them.  :meth:`Search._take` takes a named array off the pool in one
step, so a search nested in a hook, or running concurrently, finds it
empty and allocates its own, and a search whose hook raises drops what
it took.  :func:`run_search` takes its masks and stamp the same way and
records the cells a run writes; whoever reads the answer (``sssp``,
``ppsp``, ``multi_bids``) calls :meth:`Search._release`, which resets
every array the search took there and pools it again, filling an array
whole where that costs less (see ``_SCATTER_BYTES``).  The pool keeps
the widest search's arrays, about 14 B per cell (8 B distance, a 4 B
int32 stamp, two 1 B masks), for the life of the graph.  :func:`sssp`
hands its distances to the caller, so they are a new array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse._sparsetools import csr_row_index

from .graph import CsrGraph
from .io import as_vertex

INF = math.inf
# the default policy's ρ when a search starts: the fewest copies a step takes
DEFAULT_MIN_COPIES = 128
# ρ halves when more than 1/_RHO_SHRINK of a step re-expands settled copies,
# grows by 1/8 when at most 1/_RHO_GROW does in a step of at least ρ
# copies, and stays within _RHO_RANGE times min_copies either way.
# Measured on a 25k-vertex kNN graph, this cut A* relaxations per settled
# copy from about 20 (ρ fixed at 128) to 13; on a 200k-vertex random
# graph, doubling ρ in place of the 1/8 growth gave plain-bids batches 7%
# more relaxations and no gain, and growing after steps that took the
# whole, smaller frontier gave them 13% more.
_RHO_SHRINK = 8
_RHO_GROW = 32
_RHO_RANGE = 2
# an array is reset at the cells a run wrote only while those number fewer
# than its bytes / _SCATTER_BYTES, and filled whole past that.  Writing one
# cell by index costs 2-5 ns and filling 0.04 ns a byte (50k to 3.2M
# cells, 2-core host).  At 64, bidastar on a 25k-vertex kNN graph, which
# writes a tenth of its cells, ran about 3% slower than with a new array
# per query; at 128 it fills, and runs as fast
_SCATTER_BYTES = 128
# pending ids a frontier has room for when it starts; it doubles when full
_FRONTIER_SLOTS = 1024
# the scatter-min stamp holds int32 positions: a step with more survivors
# than that is deduplicated by a sort
_STAMP_LIMIT = 2**31


@dataclass
class StepPolicy:
    """Threshold schedule: the i-th step covers keys <= i * delta.

    The schedule starts at 0 for every search, including those whose
    keys carry a heuristic offset.

    A step whose window holds fewer than ρ pending copies takes the ρ
    smallest keys instead (see :meth:`Frontier.extract`).  ρ starts at
    ``min_copies`` and :func:`run_search` adapts it to the re-expansions
    of each step, within half and twice ``min_copies``;
    ``min_copies=1`` keeps ρ at 1, which is pure Δ-stepping.
    """

    delta: float
    min_copies: int = 1

    def __post_init__(self):
        d = self.delta
        if isinstance(d, (bool, np.bool_)) or not isinstance(d, numbers.Real) or not (math.isfinite(d) and d > 0):
            raise ValueError(f"delta must be finite and positive, got {d!r}")
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
    """Δ = max arc weight / 16, with ρ starting at DEFAULT_MIN_COPIES."""
    top = graph.max_weight
    return StepPolicy(delta=top / 16.0 if top > 0 else 1.0, min_copies=DEFAULT_MIN_COPIES)


class Frontier:
    """Deduplicating pending set of copy cells with thresholded extraction.

    A boolean membership mask is the dedup authority; the pending cells
    themselves are kept in the first ``size`` entries of an id buffer,
    which doubles when an insert overflows it and is compacted in place
    when cells leave, so extraction costs time in the number of pending
    cells, not in the capacity.  The buffer is the frontier's own, not
    pooled: 8 B per id, starting at ``_FRONTIER_SLOTS`` ids, so at most
    twice the most copies pending at once.  The frontier starts empty
    on ``mask``, one entry per cell, which must be all False.
    """

    def __init__(self, mask: np.ndarray):
        self._mask = mask
        self._ids = np.empty(_FRONTIER_SLOTS, dtype=np.int64)  # pending in [:size]
        self.size = 0

    def _live(self) -> np.ndarray:
        """The pending cell ids as a writable view of the buffer; read it, don't write it."""
        return self._ids[: self.size]

    def add_many(self, cells: np.ndarray, prune=None) -> int:
        """Insert cells (unique ids); returns how many were newly pending.

        With ``prune``, a predicate like :meth:`Search.prune`, the cells it
        rejects are left out as well.
        """
        if cells.size == 0:
            return 0
        skip = self._mask[cells]
        if prune is not None:
            skip |= prune(cells)
        fresh = cells[(~skip).nonzero()[0]]
        if fresh.size == 0:
            return 0
        self._mask[fresh] = True
        start, end = self.size, self.size + fresh.size
        if end > self._ids.size:
            grown = np.empty(max(2 * self._ids.size, end), dtype=np.int64)
            grown[:start] = self._ids[:start]
            self._ids = grown
        self._ids[start:end] = fresh
        self.size = end
        return int(fresh.size)

    def extract(self, threshold: float, key_fn, min_copies: int = 1) -> tuple[np.ndarray, float | None]:
        """Remove and return all pending cells with current key <= threshold.

        When fewer than ``min_copies`` keys lie within the threshold, the
        threshold is raised to the ``min_copies``-th smallest pending key
        (every copy tied with it is taken too), or every pending copy is
        taken if there are at most ``min_copies``; then no key is read.
        Keys are re-read at extraction time, so a copy improved since it
        was added is classified by its current value.  When nothing is
        taken, also returns the smallest pending key (inf if none is
        pending), which lets the caller fast-forward over empty
        thresholds; otherwise the second item is None.
        """
        size = self.size
        if size == 0:
            return np.empty(0, dtype=np.int64), INF
        ids = self._live()
        if min_copies > 1 and size <= min_copies:
            out = ids.copy()
            self._mask[out] = False
            self.size = 0
            return out, None
        keys = key_fn(ids)
        take = keys <= threshold
        if min_copies > 1 and np.count_nonzero(take) < min_copies:
            take = keys <= np.partition(keys, min_copies - 1)[min_copies - 1]
        # a step takes a mixed share of the frontier, and numpy gathers by
        # positions several times faster than it compresses by such a mask
        out = ids[take.nonzero()[0]]
        if out.size == 0:
            return out, float(keys.min())
        self._mask[out] = False
        self._keep((~take).nonzero()[0])
        return out, None

    def discard(self, doomed) -> int:
        """Drop every pending cell for which ``doomed(cells)`` is true.

        ``doomed`` maps an id array to a boolean mask of the same shape;
        returns how many cells were dropped.  A dropped cell can be added
        again later.
        """
        if self.size == 0:
            return 0
        ids = self._live()
        drop = doomed(ids)
        dropped = int(np.count_nonzero(drop))
        if dropped:
            self._mask[ids[drop]] = False
            self._keep((~drop).nonzero()[0])
        return dropped

    def _keep(self, positions: np.ndarray) -> None:
        """Keep only the pending ids at ``positions`` (rising), moved to the front."""
        self._ids[: positions.size] = self._ids[positions]
        self.size = int(positions.size)


class Search:
    """Hook bundle consumed by :func:`run_search`.

    Subclasses fix the number of copies and define four hooks: the
    seeds, the ordering key, the prune predicate, and the reaction to
    improved cells (answer bookkeeping).  The base class is a full SSSP:
    nothing is ever pruned.  The loop ends only when nothing is pending,
    so a search that can tell it has nothing to find (endpoints in two
    components) seeds nothing, or prunes its seeds, and runs no step.

    A cell has a key once it has been seeded or reported to
    ``on_improved``: the loop calls ``keys`` and ``prune`` only on such
    cells, so a search may fill what its keys read (an A* heuristic) in
    ``seeds`` and ``on_improved``.

    ``prune`` must read "key >= bound" against bounds that only fall.
    ``on_improved`` returns True when it made a prune bound tighter; the
    loop then drops every pending copy that ``prune`` now rejects.  A hook
    that under-reports a tightening only costs work: the copies it leaves
    pending get expanded, and those expansions offer real path lengths.

    One rule holds for every per-cell array: a strategy names its
    arrays, and the engine resets and pools them.  A strategy takes each
    with :meth:`_take`, as the distances (all +inf) and
    :func:`run_search`'s masks and stamp are taken, and the search holds
    it.  After a run, ``_written`` holds the cells the run wrote (None
    when it wrote too many to list), and :meth:`_release` resets every
    held array there and pools it again.  A search that is never
    released keeps its arrays, so ``dist`` can be read after
    :func:`run_search`.
    """

    # SsspSearch is the one exception: sssp hands its distances to the caller
    _pooled = True

    def __init__(self, graph: CsrGraph, copies: int = 1):
        self.graph = graph
        self.copies = copies
        self._held = []  # (name, array, fill) of each array taken off the pool
        self._written = None
        size = graph.n * copies  # cell v * copies + i
        self.dist = self._take("dist", size, INF) if self._pooled else np.full(size, INF)

    def seeds(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def keys(self, cells: np.ndarray) -> np.ndarray:
        return self.dist[cells]

    def prune(self, cells: np.ndarray) -> np.ndarray:
        return np.zeros(cells.shape, dtype=bool)

    def on_improved(self, cells: np.ndarray) -> bool:
        return False

    def _take(self, name: str, size: int, fill, dtype=np.float64) -> np.ndarray:
        """The first ``size`` cells of the pooled ``name`` array, each ``fill``; held till :meth:`_release`.

        The array is taken off the graph in one step, so a search nested
        in a hook, or running concurrently, finds none and gets a new one,
        as it does when the pooled one is too short.  ``fill`` None: the
        taker hands the array back clean or ignores what it holds, and a
        new one is zeros.
        """
        held = vars(self.graph).setdefault("_pool", {}).pop(name, None)  # not a field: the graph is frozen
        if held is None or held.size < size:
            held = np.full(size, fill, dtype) if fill else np.zeros(size, dtype)
        held = held[:size]
        self._held.append((name, held, fill))
        return held

    def _release(self) -> None:
        """Reset each held array where the run wrote and pool it again; the search is spent.

        An array of ``n * copies`` entries is reset at the written cells,
        one of ``n`` at their vertices, and one taken with fill None not
        at all.  An array is filled whole where that costs less than
        writing the cells one by one.  The pool keeps the longer of two
        arrays of one name: a search nested in a hook may have pooled one
        meanwhile.
        """
        cells, pool = self._written, vars(self.graph).setdefault("_pool", {})
        for name, array, fill in self._held:
            if fill is None:
                pass
            elif cells is None or cells.size * _SCATTER_BYTES >= array.nbytes:
                array.fill(fill)
            elif array.size == self.dist.size:
                array[cells] = fill
            else:
                array[cells // self.copies] = fill
            whole = array if array.base is None else array.base
            if name not in pool or pool[name].size < whole.size:
                pool[name] = whole
        self._held = []


class SsspSearch(Search):
    """Single-source shortest paths: the degenerate, prune-free strategy.

    Its distance array is the caller's: a new one, never pooled.
    """

    _pooled = False

    def __init__(self, graph: CsrGraph, source: int):
        super().__init__(graph, copies=1)
        self.source = as_vertex(source, graph.n, "source")

    def seeds(self):
        return np.asarray([self.source], dtype=np.int64), np.zeros(1)


@dataclass
class SearchStats:
    """The work counters of one :func:`run_search`, or a sum of runs with ``+=``.

    :class:`~steppath.ppsp.PpspAnswer` and
    :class:`~steppath.batch.BatchAnswer` extend it, so every answer
    carries the counters of the runs that made it.
    """

    steps: int = 0
    relaxations: int = 0
    settled_copies: int = 0

    def __iadd__(self, other: SearchStats) -> SearchStats:
        for f in fields(SearchStats):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


def _gather_rows(view, rows: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns and data of ``rows`` in a well-formed CSR view, and each row's length.

    ``view`` is a well-formed ``(offsets, cols, data)`` whose offsets and
    cols share one integer type (the graph's ``CsrGraph._rows``, or a
    joint search's query rows), and ``rows`` are int64 row ids in range,
    in any order and repeated at will, and ``lengths`` holds each row's
    length as int64 (``np.diff(offsets)``, kept beside the view so a call
    reads one array, not two).  The rows' slices
    come back concatenated in the order given, as one call to scipy's
    compiled ``csr_row_index``, which copies them without bounds checks.
    """
    offsets, cols, data = view
    deg = lengths[rows]
    total = int(deg.sum())
    out_cols = np.empty(total, dtype=cols.dtype)
    out_data = np.empty(total, dtype=data.dtype)
    if total:
        # every index array must share the offsets' type, or scipy converts them all
        csr_row_index(rows.size, rows.astype(offsets.dtype), offsets, cols, data, out_cols, out_data)
    return out_cols, out_data, deg


def _candidates(graph, dist, cells, copies):
    """Push-phase relaxation candidates (target cell, candidate value).

    Cell ``v * copies + i`` splits by shifts for two copies and by one
    floor division otherwise: numpy's ``%`` and ``divmod`` on int64 cost
    several times as much per entry.
    """
    if copies == 1:
        verts = cells
    elif copies == 2:
        verts = cells >> 1
    else:
        verts = cells // copies
    targets, weights, deg = _gather_rows(graph._rows, verts, graph._row_lengths)
    if targets.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0), 0
    tgt_cells = targets.astype(np.int64)
    cand = dist[cells].repeat(deg)
    cand += weights
    if copies == 2:
        tgt_cells <<= 1
        tgt_cells |= (cells & 1).repeat(deg)
    elif copies > 2:
        slots = cells - verts * copies
        tgt_cells *= copies
        tgt_cells += slots.repeat(deg)
    return tgt_cells, cand, int(targets.size)


def _scatter_min(values: np.ndarray, keys: np.ndarray, cand: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """Grouped write-min of ``cand`` into ``values[keys]``.

    Each distinct key takes the minimum of its current value and all of
    its candidates; returns the distinct keys that strictly decreased,
    each once, in no set order.  A tie with the current value is not an
    improvement.  Candidates that cannot improve (``cand >= values[keys]``)
    are dropped first, so every surviving key strictly improves its cell.
    The survivors go through one ``np.minimum.at``.  Then each writes its
    position into ``stamp[key]``, and a key is kept where its position
    reads back: whichever write to a cell landed, exactly one of that
    cell's survivors matches it.  Nothing is sorted, unless there are
    ``_STAMP_LIMIT`` survivors or more, whose positions int32 cannot hold.
    ``stamp`` is an int32 (or wider) scratch array at least as long as
    ``values``; what it held before is ignored and overwritten.
    """
    # positions, not a mask: about half the candidates survive, and numpy
    # gathers by positions faster than it compresses by a mixed mask
    live = (cand < values[keys]).nonzero()[0]
    keys = keys[live]
    if keys.size == 0:
        return keys
    np.minimum.at(values, keys, cand[live])
    if keys.size >= _STAMP_LIMIT:
        return np.unique(keys)
    pos = np.arange(keys.size, dtype=np.int32)
    stamp[keys] = pos
    return keys[stamp[keys] == pos]


def run_search(
    graph: CsrGraph,
    search: Search,
    policy: StepPolicy | None = None,
) -> SearchStats:
    """Drive ``search`` to completion; returns the run's :class:`SearchStats`.

    Seeds enter the frontier unless ``search.prune`` rejects them.  Step
    ``i`` extracts the pending copies with keys up to
    ``policy.threshold(i)`` (``i * delta``, whatever the search), widened
    to the ρ smallest keys when that window holds fewer copies, and
    pushes their arcs as one scatter-min.  ρ starts at
    ``policy.min_copies`` and, when that is above 1, halves after a step
    in which more than 1/8 of the copies had been expanded before and
    grows by 1/8 after one of at least ρ copies in which at most 1/32
    had, staying between half and twice ``min_copies``.  It reports
    the improved cells to ``search.on_improved``; when that tightens a
    prune bound, every pending copy ``search.prune`` now rejects is
    dropped.  Then the improved cells that ``prune`` accepts are re-added.
    Extraction itself never prunes: the frontier holds no prunable copy.
    The run ends when nothing is pending, and in no other way.
    The index advances by one per step, whether or not the step was
    widened.  ``steps`` counts rounds that extracted at least one copy;
    while ρ is 1, thresholds that cover nothing are skipped in one jump
    (a wider ρ never leaves a step empty).  ``relaxations``
    counts scanned arcs and ``settled_copies`` counts distinct copies
    expanded at least once, as each step expands them.

    A strategy names its arrays, and the engine resets and pools them:
    the run takes its masks and stamp with ``search._take``, as the
    strategy took its own, and records the cells it writes (the seeds and
    each step's improved cells) in ``search._written``.  There
    ``search._release`` resets the settled mask with the rest; the record
    is None once the run has written so many cells that even the distance
    array costs less to fill whole.  The frontier mask comes back clean,
    as the run ends only once nothing is pending, and what the stamp
    holds is ignored.
    """
    if policy is None:
        policy = default_policy(graph)
    copies = search.copies
    size = graph.n * copies
    mask = search._take("mask", size, None, bool)  # clean again once nothing is pending
    settled = search._take("settled", size, False, bool)
    stamp = search._take("stamp", size, None, np.int32)  # what it holds is ignored
    frontier = Frontier(mask)
    dist = search.dist
    cells, values = search.seeds()
    dist[cells] = values
    written, n_written = [cells], cells.size  # None once no array gains from the list
    frontier.add_many(cells, search.prune)
    stats = SearchStats()
    index = 0
    rho = policy.min_copies
    adapt = rho > 1
    rho_low, rho_high = max(1, rho // _RHO_RANGE), rho * _RHO_RANGE
    while frontier.size > 0:
        extracted, min_left = frontier.extract(policy.threshold(index), search.keys, rho)
        if extracted.size == 0:
            index = max(index + 1, policy.index_covering(min_left))
            continue
        index += 1
        stats.steps += 1
        again = int(np.count_nonzero(settled[extracted]))
        stats.settled_copies += extracted.size - again
        if adapt:
            if again * _RHO_SHRINK > extracted.size:
                rho = max(rho_low, rho // 2)
            elif extracted.size >= rho and again * _RHO_GROW <= extracted.size:
                rho = min(rho_high, rho + max(1, rho // 8))
        settled[extracted] = True
        tgt_cells, cand, scanned = _candidates(graph, dist, extracted, copies)
        stats.relaxations += scanned
        changed = _scatter_min(dist, tgt_cells, cand, stamp)
        if changed.size:
            if written is not None:
                n_written += changed.size
                if n_written * _SCATTER_BYTES >= dist.nbytes:
                    written = None
                else:
                    written.append(changed)
            if search.on_improved(changed):
                frontier.discard(search.prune)
            frontier.add_many(changed, search.prune)
    search._written = None if written is None else np.concatenate(written)
    return stats


def sssp(
    graph: CsrGraph,
    source: int,
    policy: StepPolicy | None = None,
    return_stats: bool = False,
):
    """Exact single-source distances via the stepping loop.

    The result is independent of ``policy``, which only steers how the
    work is scheduled.  With ``return_stats``, returns the distances and
    the run's :class:`SearchStats`.
    """
    search = SsspSearch(graph, source)
    stats = run_search(graph, search, policy=policy)
    search._release()  # the masks go back to the pool; the distances are the caller's
    if return_stats:
        return search.dist, stats
    return search.dist
