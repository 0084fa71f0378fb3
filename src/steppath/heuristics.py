"""Distance heuristics: geometric lower bounds, memoization, consistency.

A heuristic here is a vectorized callable mapping an int array of vertex
ids to float64 estimates.  Searches only ever evaluate heuristics through
:class:`MemoTable`, which computes each vertex at most once when caching
is enabled.
"""

from __future__ import annotations

import numpy as np

from .graph import CsrGraph, EUCLIDEAN, SPHERICAL

EARTH_RADIUS_KM = 6371.0088  # mean Earth radius; pick units to match arc weights


def euclidean_heuristic(coords: np.ndarray, anchor: int):
    """Straight-line distance to ``anchor`` in the plane."""
    coords = np.asarray(coords, dtype=np.float64)
    ax, ay = coords[anchor]

    def h(vertices: np.ndarray) -> np.ndarray:
        pts = coords[vertices]
        return np.hypot(pts[..., 0] - ax, pts[..., 1] - ay)

    return h


def great_circle(coords_deg: np.ndarray, anchor_deg, radius: float = EARTH_RADIUS_KM) -> np.ndarray:
    """Haversine distance from (lat, lon) degree rows to one anchor point."""
    coords_deg = np.asarray(coords_deg, dtype=np.float64)
    lat = np.radians(coords_deg[..., 0])
    lon = np.radians(coords_deg[..., 1])
    alat = np.radians(float(anchor_deg[0]))
    alon = np.radians(float(anchor_deg[1]))
    s1 = np.sin((lat - alat) / 2.0)
    s2 = np.sin((lon - alon) / 2.0)
    a = s1 * s1 + np.cos(lat) * np.cos(alat) * s2 * s2
    return 2.0 * radius * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))


def spherical_heuristic(coords: np.ndarray, anchor: int, radius: float = EARTH_RADIUS_KM):
    """Great-circle distance to ``anchor`` over a sphere of ``radius``.

    Coordinates are (latitude, longitude) in degrees.  The default radius
    is the mean Earth radius in kilometers; pass a different value when
    arc weights use other units.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if np.any(np.abs(coords[:, 0]) > 90.0) or np.any(np.abs(coords[:, 1]) > 180.0):
        raise ValueError("spherical coords need |latitude| <= 90 and |longitude| <= 180")
    if not radius > 0:
        raise ValueError("radius must be positive")
    anchor_pt = coords[anchor]

    def h(vertices: np.ndarray) -> np.ndarray:
        return great_circle(coords[vertices], anchor_pt, radius)

    return h


def zero_heuristic():
    """The trivial (always consistent) heuristic."""

    def h(vertices: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(vertices), dtype=np.float64)

    return h


def heuristic_for_graph(graph: CsrGraph, anchor: int, radius: float = EARTH_RADIUS_KM):
    """Build the heuristic matching the graph's coordinate kind."""
    if graph.coords is None or graph.coord_kind is None:
        raise ValueError("graph carries no coordinates; attach them or pass a heuristic")
    if graph.coord_kind == EUCLIDEAN:
        return euclidean_heuristic(graph.coords, anchor)
    if graph.coord_kind == SPHERICAL:
        return spherical_heuristic(graph.coords, anchor, radius)
    raise ValueError(f"unknown coordinate kind {graph.coord_kind!r}")


def make_bidirectional_heuristics(h_source, h_target):
    """Average a consistent pair into opposing forward/backward heuristics.

    Returns (forward, backward) with forward(v) = (h_target(v) -
    h_source(v)) / 2 and backward = -forward, so the two directions' key
    spaces stay aligned.  If both inputs are consistent the outputs are
    too.
    """

    def forward(vertices: np.ndarray) -> np.ndarray:
        return 0.5 * (h_target(vertices) - h_source(vertices))

    def backward(vertices: np.ndarray) -> np.ndarray:
        return 0.5 * (h_source(vertices) - h_target(vertices))

    return forward, backward


class MemoTable:
    """Per-vertex cache of a deterministic vertex function.

    Unset entries hold NaN.  Computed values must be finite, so none is
    mistaken for unset: a non-finite value raises ``ValueError`` naming
    the function.  With caching enabled each vertex is computed at most
    once; ``computations`` counts evaluated vertices and ``requests``
    counts lookups, which makes the memoization win measurable.
    """

    def __init__(self, n: int, fn, enabled: bool = True):
        self._fn = fn
        self.enabled = enabled
        self.values = np.full(n, np.nan)
        self.computations = 0
        self.requests = 0

    def get_many(self, vertices: np.ndarray) -> np.ndarray:
        self.requests += int(np.size(vertices))
        if not self.enabled:
            return self._compute(vertices)
        missing = np.isnan(self.values[vertices])
        if np.any(missing):
            fresh = np.unique(vertices[missing])
            self.values[fresh] = self._compute(fresh)
        return self.values[vertices]

    def _compute(self, vertices: np.ndarray) -> np.ndarray:
        """Evaluate the function; only finite values are accepted."""
        out = np.asarray(self._fn(vertices), dtype=np.float64)
        self.computations += int(np.size(vertices))
        if not np.all(np.isfinite(out)):
            name = getattr(self._fn, "__qualname__", repr(self._fn))
            raise ValueError(f"heuristic {name} returned a non-finite value")
        return out


def consistency_violation(graph: CsrGraph, h_values: np.ndarray) -> float:
    """Worst violation of h(u) <= w(u, v) + h(v) over all arcs.

    Equivalently the most negative induced weight, negated: a heuristic is
    consistent when the result is <= 0 (up to float tolerance).
    """
    h_values = np.asarray(h_values, dtype=np.float64)
    if h_values.shape != (graph.n,):
        raise ValueError("need one heuristic value per vertex")
    if graph.m == 0:
        return 0.0
    src = graph.arc_sources()
    slack = graph.weights - h_values[src] + h_values[graph.targets]
    return float(-slack.min())


def check_consistent(graph: CsrGraph, h, tol: float = 1e-9) -> None:
    """Raise if ``h`` is not consistent on ``graph`` within ``tol``."""
    values = np.asarray(h(np.arange(graph.n)), dtype=np.float64)
    worst = consistency_violation(graph, values)
    if worst > tol:
        raise ValueError(f"heuristic is inconsistent: worst arc violation {worst:.3e} > {tol:.1e}")


def induced_arc_weights(graph: CsrGraph, potential: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reweight arcs by a vertex potential, for both travel directions.

    A forward arc (u, v) gets w - potential[u] + potential[v]; the
    backward view gets w + potential[u] - potential[v], which equals the
    forward weight of the mirror arc.  With a consistent potential both
    arrays are nonnegative (tiny float undershoots are clipped to zero).
    """
    potential = np.asarray(potential, dtype=np.float64)
    if potential.shape != (graph.n,):
        raise ValueError("need one potential value per vertex")
    src = graph.arc_sources()
    delta = potential[graph.targets] - potential[src]
    fwd = graph.weights + delta
    bwd = graph.weights - delta
    low = min(fwd.min(), bwd.min()) if graph.m else 0.0
    if low < -1e-9:
        raise ValueError(f"potential is not consistent with the weights (arc at {low:.3e})")
    return np.maximum(fwd, 0.0), np.maximum(bwd, 0.0)
