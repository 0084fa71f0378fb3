"""CSR graph container, construction, synthetic weights, and connectivity."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc

EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"
COORD_KINDS = (EUCLIDEAN, SPHERICAL)


@dataclass
class CsrGraph:
    """Compressed-adjacency graph with float64 arc weights.

    Arcs are directed; an undirected graph stores both (u, v) and (v, u)
    with equal weight and carries ``symmetric=True``.  Vertices are dense
    ids ``0..n-1``.  ``coords`` optionally holds one 2-D point per vertex,
    tagged by ``coord_kind``: ``"euclidean"`` rows are (x, y), and
    ``"spherical"`` rows are (latitude, longitude) in degrees.

    Instances are treated as immutable; derive changed graphs with
    :func:`dataclasses.replace` or the helpers in this module.  A derived
    graph starts without the component labels and the maximum weight
    cached on its parent.
    """

    n: int
    offsets: np.ndarray  # int64, length n + 1
    targets: np.ndarray  # int32, length m
    weights: np.ndarray  # float64, length m
    symmetric: bool = False
    coords: np.ndarray | None = None
    coord_kind: str | None = None
    _components: ComponentInfo | None = field(default=None, init=False, repr=False, compare=False)
    _max_weight: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return int(self.targets.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def arc_sources(self) -> np.ndarray:
        """Source vertex of every arc, aligned with ``targets``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the targets and weights of u's outgoing arcs."""
        lo, hi = self.offsets[u], self.offsets[u + 1]
        return self.targets[lo:hi], self.weights[lo:hi]

    def max_weight(self) -> float:
        """Largest arc weight (0 without arcs), computed once per graph object."""
        if self._max_weight is None:
            self._max_weight = float(self.weights.max()) if self.m else 0.0
        return self._max_weight

    def with_coords(self, coords, kind: str) -> "CsrGraph":
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (self.n, 2):
            raise ValueError(f"coords must have shape ({self.n}, 2), got {coords.shape}")
        if kind not in COORD_KINDS:
            raise ValueError(f"coord kind must be one of {COORD_KINDS}, got {kind!r}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        if kind == SPHERICAL:
            if np.any(np.abs(coords[:, 0]) > 90.0) or np.any(np.abs(coords[:, 1]) > 180.0):
                raise ValueError("spherical coords need |latitude| <= 90 and |longitude| <= 180")
        return replace(self, coords=coords, coord_kind=kind)


def build_csr(n: int, edges, symmetrize: bool = False) -> CsrGraph:
    """Build a :class:`CsrGraph` from (u, v, w) triples.

    With ``symmetrize`` every non-loop arc gains a mirror arc of equal
    weight; a self-loop is its own mirror and is stored once.  Parallel
    arcs are kept as given (relaxation simply picks the cheapest).  The
    arcs of a vertex are stored in input order with originals before
    mirrors, which fixes the canonical arc order that
    :func:`generate_uniform_weights` draws in.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > 2**31:  # targets are int32
        raise ValueError(f"vertex count {n} exceeds 2**31")
    arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.float64)
    if arr.shape == (0,):  # no edges given as an empty list or generator
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("edges must be (u, v, w) triples")
    src = arr[:, 0].astype(np.int64)
    tgt = arr[:, 1].astype(np.int64)
    w = np.ascontiguousarray(arr[:, 2])
    if np.any((arr[:, 0] != src) | (arr[:, 1] != tgt)):
        raise ValueError("endpoints must be integers")
    if np.any((src < 0) | (src >= n) | (tgt < 0) | (tgt >= n)):
        raise ValueError("edge endpoint out of range")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")

    if symmetrize and src.size:
        keep = src != tgt  # a self-loop is its own mirror
        src, tgt, w = (
            np.concatenate([src, tgt[keep]]),
            np.concatenate([tgt, src[keep]]),
            np.concatenate([w, w[keep]]),
        )

    order = np.argsort(src, kind="stable")
    src, tgt, w = src[order], tgt[order], w[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return CsrGraph(
        n=n,
        offsets=offsets,
        targets=tgt.astype(np.int32),
        weights=w,
        symmetric=bool(symmetrize),
    )


def _mirror_orders(src: np.ndarray, tgt: np.ndarray, n: int):
    """Stable orders of the arcs by (u, v) and of their mirrors by (v, u).

    Returns the sorted (u, v) keys of both sides and the two orders; the
    keys are equal iff the arcs, ignoring weights, are closed under
    mirroring.  Parallel arcs keep their storage order within a key.
    """
    key_f = src * n + tgt  # (u, v) as one int64: ids are int32, so n * n < 2**62
    key_b = tgt * n + src
    order_f = np.argsort(key_f, kind="stable")
    order_b = np.argsort(key_b, kind="stable")
    return key_f[order_f], key_b[order_b], order_f, order_b


def mirror_closed(graph: CsrGraph) -> bool:
    """True iff the arc multiset is closed under (u, v, w) -> (v, u, w)."""
    tgt = graph.targets.astype(np.int64)
    keys, mirror_keys, fwd, bwd = _mirror_orders(graph.arc_sources(), tgt, graph.n)
    if not np.array_equal(keys, mirror_keys):
        return False
    w_f, w_b = graph.weights[fwd], graph.weights[bwd]
    differ = w_f != w_b
    if not differ.any():
        return True
    # parallel arcs may store their weights in another order on the two
    # sides: compare the sorted weights of every key group with a mismatch
    group = np.cumsum(np.concatenate(([True], keys[1:] != keys[:-1])))
    sel = np.isin(group, group[differ])
    group, w_f, w_b = group[sel], w_f[sel], w_b[sel]
    return np.array_equal(w_f[np.lexsort((w_f, group))], w_b[np.lexsort((w_b, group))])


def _mirror_permutation(src: np.ndarray, tgt: np.ndarray, n: int) -> np.ndarray:
    """Map each arc to its mirror, pairing parallel arcs by occurrence rank."""
    keys, mirror_keys, order_f, order_b = _mirror_orders(src, tgt, n)
    if not np.array_equal(keys, mirror_keys):
        raise ValueError("graph is not symmetrized: arc multiset is not mirror-closed")
    mirror = np.empty(src.size, dtype=np.int64)
    mirror[order_f] = order_b
    return mirror


def generate_uniform_weights(graph: CsrGraph, seed: int, lo: float, hi: float) -> CsrGraph:
    """Return a copy of ``graph`` with fresh uniform weights on [lo, hi].

    One value is drawn per undirected edge and assigned to both mirror
    arcs, so the result stays symmetric.  The draw stream is pinned for
    reproducibility: a NumPy PCG64 generator seeded with ``seed`` produces
    one uniform per arc with ``source <= target``, visited in CSR storage
    order (each self-loop counts as its own edge).  A port that lays out
    arcs the same way and uses PCG64 reproduces the stream exactly.
    """
    if not (0 <= lo <= hi) or not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("need finite weight bounds with 0 <= lo <= hi")
    src = graph.arc_sources()
    tgt = graph.targets.astype(np.int64)
    mirror = _mirror_permutation(src, tgt, graph.n)
    canonical = np.flatnonzero(src <= tgt)
    rng = np.random.default_rng(seed)
    draws = rng.uniform(lo, hi, size=canonical.size)
    weights = np.empty(graph.m, dtype=np.float64)
    weights[canonical] = draws
    weights[mirror[canonical]] = draws
    return replace(graph, weights=weights, symmetric=True)


@dataclass(frozen=True)
class ComponentInfo:
    """Connected-component labeling plus the largest component's id and size.

    Shared by every caller that labels the same graph, so it is frozen and
    ``labels`` is read-only.
    """

    labels: np.ndarray  # int64, length n, read-only
    count: int
    largest: int
    largest_size: int

    def __post_init__(self):
        labels = self.labels.view()  # read-only without touching the caller's array
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.count)

    def members(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


def largest_component(graph: CsrGraph) -> ComponentInfo:
    """Label connected components (ties for largest go to the smaller label).

    Labels are canonical: components are numbered by the smallest vertex
    id they contain, so vertex 0 is always in component 0.  They are
    computed once per graph object; later calls return the same
    :class:`ComponentInfo`.
    """
    if graph._components is None:
        graph._components = _label_components(graph)
    return graph._components


def _label_components(graph: CsrGraph) -> ComponentInfo:
    if graph.n == 0:
        return ComponentInfo(np.empty(0, dtype=np.int64), 0, 0, 0)
    mat = csr_matrix(
        (np.ones(graph.m, dtype=np.int8), graph.targets, graph.offsets),
        shape=(graph.n, graph.n),
    )
    count, raw = _cc(mat, directed=False)
    raw = raw.astype(np.int64)
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    labels = rank[raw]
    sizes = np.bincount(labels, minlength=count)
    largest = int(sizes.argmax())
    return ComponentInfo(labels, int(count), largest, int(sizes[largest]))
