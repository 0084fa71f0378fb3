"""Distance heuristics: the coordinate lower bound, memoization, consistency.

A heuristic here is a vectorized callable mapping an int array of vertex
ids to float64 estimates.  Searches only ever evaluate heuristics through
:class:`MemoTable`, which computes each vertex at most once.  The
coordinate heuristic (:func:`heuristic_for_graph`) is
:attr:`~steppath.graph.CsrGraph.coord_scale` times the coordinate
length, so it is consistent on every graph whatever units its weights
use.  :func:`check_consistent` and :func:`consistency_violation` check
any other heuristic, and :func:`induced_arc_weights` reweights the arcs
by a potential.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import CsrGraph, coord_length
from .io import as_vertex

# largest arc violation check_consistent forgives (float rounding)
CONSISTENCY_TOL = 1e-9


def heuristic_for_graph(graph: CsrGraph, anchor: int):
    """The coordinate heuristic toward ``anchor``.

    Its estimate is the graph's ``coord_scale`` times the coordinate
    length (:func:`~steppath.graph.coord_length`) to the anchor, which is
    consistent by construction, up to float rounding.  Raises ValueError
    on a graph without coordinates or an anchor that is not a vertex id.
    """
    anchor = as_vertex(anchor, graph.n, "anchor")
    scale, coords, kind = graph.coord_scale, graph.coords, graph.coord_kind
    point = coords[anchor].tolist()  # Python floats: unpacked on every call

    def h(vertices: np.ndarray) -> np.ndarray:
        pts = coords.take(vertices, axis=0)  # several times faster than coords[vertices]
        estimate = coord_length(kind, (pts[..., 0], pts[..., 1]), point)
        estimate *= scale  # in place: this runs on every step of an A* search
        return estimate

    return h


class MemoTable:
    """Per-vertex cache of a deterministic vertex function.

    ``values`` is the table, one entry per vertex, all NaN (unset) when
    the table is made; the A* searches pass one from the graph's pool.
    Computed values must be finite, so none is mistaken for unset: a
    non-finite value raises ``ValueError`` naming the function.  Each
    vertex is computed at most once; ``computations`` counts evaluated
    vertices and ``requests`` counts lookups through :meth:`get_many`.
    The A* searches look a cell up when it is seeded or improved and read
    its key from ``values`` after that, so ``requests`` counts those
    fill-time lookups, not key reads.
    """

    def __init__(self, values: np.ndarray, fn):
        self._fn = fn
        self.values = values
        self.computations = 0
        self.requests = 0

    def get_many(self, vertices: np.ndarray, distinct: bool = False) -> np.ndarray:
        """The values of ``vertices``, each computed if unset.

        ``distinct`` vouches that ``vertices`` repeats no vertex, which
        skips the check for repeats among the unset ones.
        """
        self.requests += int(np.size(vertices))
        fresh = vertices[np.isnan(self.values[vertices])]
        if fresh.size:
            if fresh.size > 1 and not distinct:
                # one sorted check; bidastar's vertices repeat only where
                # both copies of a vertex improved in one step, so the
                # compression seldom runs (np.unique costs several times
                # as much on the few dozen cells of a step)
                fresh.sort()
                repeat = (fresh[1:] == fresh[:-1]).nonzero()[0]
                if repeat.size:
                    fresh = np.delete(fresh, repeat + 1)
            self.values[fresh] = self._compute(fresh)
        return self.values[vertices]

    def _compute(self, vertices: np.ndarray) -> np.ndarray:
        """Evaluate the function; only finite values are accepted."""
        out = np.asarray(self._fn(vertices), dtype=np.float64)
        self.computations += int(np.size(vertices))
        if np.count_nonzero(np.isfinite(out)) < out.size:
            name = getattr(self._fn, "__qualname__", repr(self._fn))
            raise ValueError(f"heuristic {name} returned a non-finite value")
        return out


def consistency_violation(graph: CsrGraph, h_values: np.ndarray) -> float:
    """Worst violation of h(u) <= w(u, v) + h(v) over all arcs.

    Equivalently the most negative induced weight, negated: a heuristic is
    consistent when the result is <= 0 (up to float tolerance).  A
    non-finite value (NaN or infinity) is an infinite violation, and so
    is an arc whose slack overflows.
    """
    h_values = np.asarray(h_values, dtype=np.float64)
    if h_values.shape != (graph.n,):
        raise ValueError("need one heuristic value per vertex")
    if not np.all(np.isfinite(h_values)):
        return math.inf
    if graph.m == 0:
        return 0.0
    src = graph.arc_sources()
    with np.errstate(over="ignore"):  # an overflow is an infinite slack
        slack = graph.weights - h_values[src] + h_values[graph.targets]
    return float(-slack.min())


def check_consistent(graph: CsrGraph, h) -> None:
    """Raise if ``h`` is not consistent on ``graph`` within CONSISTENCY_TOL.

    A non-finite value (NaN or infinity) is refused with its own message;
    finite values whose slack overflows are an infinite violation.
    """
    values = h(np.arange(graph.n))
    worst = consistency_violation(graph, values)
    if worst == math.inf and not np.isfinite(values).all():
        raise ValueError("heuristic returned a non-finite value")
    if worst > CONSISTENCY_TOL:
        raise ValueError(f"heuristic is inconsistent: worst arc violation {worst:.3e} > {CONSISTENCY_TOL:.1e}")


def induced_arc_weights(graph: CsrGraph, potential: np.ndarray) -> np.ndarray:
    """Reweight each arc (u, v) by a vertex potential: w - potential[u] + potential[v].

    With a consistent potential every weight is nonnegative (tiny float
    undershoots are clipped to zero); the mirror arc's reweighting serves
    the backward direction, so one array covers both.
    """
    potential = np.asarray(potential, dtype=np.float64)
    if potential.shape != (graph.n,):
        raise ValueError("need one potential value per vertex")
    fwd = graph.weights + (potential[graph.targets] - potential[graph.arc_sources()])
    low = fwd.min() if graph.m else 0.0
    if low < -1e-9:
        raise ValueError(f"potential is not consistent with the weights (arc at {low:.3e})")
    return np.maximum(fwd, 0.0)
