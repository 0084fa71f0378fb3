"""CSR graph container, construction, synthetic weights, and connectivity.

:func:`build_csr` makes a :class:`CsrGraph`, which checks its arrays
however it is made; whether its arcs are closed under mirroring is
:attr:`CsrGraph.symmetric`, derived on first use.
:func:`generate_uniform_weights` redraws the weights of a symmetric graph
and :func:`largest_component` labels its weak components.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse._sparsetools import coo_tocsr as _coo_tocsr
from scipy.sparse.csgraph import connected_components as _cc

EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"
COORD_KINDS = (EUCLIDEAN, SPHERICAL)
_BLOCK = 1 << 16  # entries per block of the blockwise passes over the arcs


def _check_n(n) -> None:
    """Refuse, with ValueError, a vertex count that is not a nonnegative int."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"graph: n must be a nonnegative int, got {n!r}")


@dataclass(frozen=True)
class CsrGraph:
    """Compressed-adjacency graph with float64 arc weights.

    Arcs are directed; an undirected graph stores both (u, v) and (v, u)
    with equal weight.  Vertices are dense ids ``0..n-1``.  ``coords``
    optionally holds one 2-D point per vertex, tagged by ``coord_kind``:
    ``"euclidean"`` rows are (x, y), and ``"spherical"`` rows are
    (latitude, longitude) in degrees.

    Every construction, :func:`dataclasses.replace` and :meth:`with_coords`
    included, checks the graph, so no function that takes one meets a
    malformed graph: ``n`` is a nonnegative int; ``offsets`` are ``n + 1``
    integers rising from 0 to ``m = len(targets) == len(weights)``; every
    target lies in ``[0, n)``; every weight is finite and nonnegative (a
    negative one would keep a search stepping for ever) and
    ``max_weight * 2 * (n - 1)`` is finite, so no simple path, nor the sum
    of two that a bidirectional search offers, overflows; coordinates have
    shape ``(n, 2)``, a known kind, finite values and, for spherical rows,
    ``|latitude| <= 90`` and ``|longitude| <= 180``.  A broken arc rule
    raises ValueError starting ``graph:``.

    Instances are frozen.  The check finds ``max_weight``; the other facts
    derived from the arcs (``symmetric``, ``coord_scale``, the component
    labels behind :func:`largest_component`, the arc view the engine
    gathers from and its row lengths) are computed once per graph object,
    on first use; a derived graph works them out afresh.
    """

    n: int
    offsets: np.ndarray  # int64, length n + 1
    targets: np.ndarray  # int32, length m
    weights: np.ndarray  # float64, length m
    coords: np.ndarray | None = None
    coord_kind: str | None = None
    max_weight: float = field(init=False, repr=False, compare=False)  # largest arc weight, 0 without arcs

    def __post_init__(self):
        n, offsets, targets, weights = self.n, self.offsets, self.targets, self.weights
        _check_n(n)
        if not all(isinstance(a, np.ndarray) for a in (offsets, targets, weights)):
            raise ValueError("graph: offsets, targets and weights must be numpy arrays")
        if offsets.shape != (n + 1,) or offsets.dtype.kind not in "iu":
            raise ValueError(f"graph: offsets must be {n + 1} integers, got shape {offsets.shape} of {offsets.dtype}")
        if targets.ndim != 1 or targets.dtype.kind not in "iu" or weights.dtype.kind not in "iuf":
            raise ValueError("graph: arcs need 1-D integer targets and numeric weights")
        if weights.shape != targets.shape:
            raise ValueError(f"graph: {targets.size} targets but weights of shape {weights.shape}")
        m = targets.size
        if offsets[0] != 0 or offsets[-1] != m or np.any(offsets[1:] < offsets[:-1]):
            raise ValueError(f"graph: offsets must rise from 0 to the {m} arcs without decreasing")
        if m and (targets.min() < 0 or targets.max() >= n):
            raise ValueError(f"graph: arc target out of range for {n} vertices")
        # min and max propagate NaN, so a NaN weight fails too
        top = float(weights.max()) if m else 0.0
        if m and not (weights.min() >= 0 and np.isfinite(top)):
            raise ValueError("graph: weights must be finite and nonnegative")
        if not np.isfinite(top * (2 * (int(n) - 1))):  # a Python float: overflow gives inf, no warning
            raise ValueError(f"graph: path sums overflow: max weight {top!r} * 2 * (n - 1) is not finite for n = {n}")
        object.__setattr__(self, "max_weight", top)
        if self.coords is None and self.coord_kind is None:
            return
        if self.coord_kind not in COORD_KINDS:
            raise ValueError(f"coord kind must be one of {COORD_KINDS}, got {self.coord_kind!r}")
        if np.shape(self.coords) != (self.n, 2):
            raise ValueError(f"coords must have shape ({self.n}, 2), got {np.shape(self.coords)}")
        coords = np.asarray(self.coords, dtype=np.float64)
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        if self.coord_kind == SPHERICAL:
            if np.any(np.abs(coords[:, 0]) > 90.0) or np.any(np.abs(coords[:, 1]) > 180.0):
                raise ValueError("spherical coords need |latitude| <= 90 and |longitude| <= 180")

    @property
    def m(self) -> int:
        return int(self.targets.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def arc_sources(self) -> np.ndarray:
        """Source vertex of every arc, aligned with ``targets`` and int32 like it."""
        return np.repeat(np.arange(self.n, dtype=np.int32), self.degrees)

    @cached_property
    def symmetric(self) -> bool:
        """True iff the arc multiset is closed under (u, v, w) -> (v, u, w).

        That is, every arc has a partner when arcs pair with their mirrors
        by occurrence rank (:func:`_mirror_partners`, one packed sort).

        Memory: the int32 arc sources (4 bytes per arc) and the pairing's
        sorted keys, positions and masks, about 19 bytes per arc in all:
        under 1.75 times the graph's bytes.
        """
        return not (_mirror_partners(self.arc_sources(), self.targets, self.weights, self.n) < 0).any()

    @cached_property
    def coord_scale(self) -> float:
        """Largest ``k`` with ``k * coord_length(u, v) <= w(u, v)`` on every arc.

        ``k`` times the coordinate length to a vertex is then a consistent
        heuristic toward it, whatever units the weights use.  Arcs of zero
        length bound nothing; with no arc of positive length the scale is
        0.  Raises ValueError on a graph without coordinates.
        """
        if self.coords is None:
            raise ValueError("graph carries no coordinates; attach them or pass a heuristic")
        x, y = np.ascontiguousarray(self.coords.T)
        src, tgt = self.arc_sources(), self.targets
        scale = np.inf
        # in blocks of arcs, so that only a few block-long temporaries live
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, self.m, _BLOCK):
                arcs = slice(lo, lo + _BLOCK)
                s, t = src[arcs], tgt[arcs]
                length = coord_length(self.coord_kind, (x[s], y[s]), (x[t], y[t]))
                scale = np.fmin.reduce(self.weights[arcs] / length, initial=scale)  # fmin skips 0/0
        return float(scale) if np.isfinite(scale) else 0.0

    @cached_property
    def _components(self) -> ComponentInfo:
        return _label_components(self)

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arcs for the engine's compiled row gather: the offsets copied to the
        narrowest index type that holds m (int32 below ``2**31`` arcs), the targets
        in that type and the weights as float64, contiguous, copied only if need be."""
        index = _index_type(self.m + 1)  # the offsets hold m itself
        targets = np.ascontiguousarray(self.targets, dtype=index)
        return self.offsets.astype(index), targets, np.ascontiguousarray(self.weights, dtype=float)

    @cached_property
    def _row_lengths(self) -> np.ndarray:
        """Each vertex's arc count as int64, which the engine's row gather reads."""
        return np.diff(self.offsets).astype(np.int64, copy=False)

    def with_coords(self, coords, kind: str) -> "CsrGraph":
        """This graph with float64 ``coords`` of ``kind`` (checked as on construction)."""
        return replace(self, coords=np.asarray(coords, dtype=np.float64), coord_kind=kind)


def coord_length(kind: str, p, q) -> np.ndarray:
    """Length between points ``p`` and ``q`` (numpy broadcasting applies).

    Each point is a pair of coordinate columns, arrays or scalars.
    ``"euclidean"`` (x, y) pairs give the planar distance; ``"spherical"``
    (latitude, longitude) pairs, in degrees, give the central angle in
    radians (the haversine formula).  :attr:`CsrGraph.coord_scale` turns
    either into the units of the arc weights.
    """
    (px, py), (qx, qy) = p, q
    if kind == EUCLIDEAN:
        return np.hypot(px - qx, py - qy)
    lat_p, lat_q = np.radians(px), np.radians(qx)
    s1 = np.sin((lat_p - lat_q) / 2.0)
    s2 = np.sin(np.radians(py - qy) / 2.0)
    a = s1 * s1 + np.cos(lat_p) * np.cos(lat_q) * s2 * s2
    a = np.clip(a, 0.0, 1.0)  # rounding can push a near-antipodal pair past 1
    return 2.0 * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))


def build_csr(n: int, edges, symmetrize: bool = False) -> CsrGraph:
    """Build a :class:`CsrGraph` from (u, v, w) triples.

    With ``symmetrize`` the arcs are the smallest mirror-closed multiset
    that holds the input: a non-loop arc (u, v, w) gains a mirror
    (v, u, w) unless the input already holds one for it.  Arcs given
    both ways pair up by occurrence rank (:func:`_mirror_partners`, the
    pairing that ``symmetric`` checks), so each (u, v, w) is stored
    ``max(count(u, v, w), count(v, u, w))`` times: an edge given both
    ways is one undirected edge, stored once per direction.  A self-loop
    is its own mirror and is stored once.  Parallel arcs of different
    weights, and extra copies given one way only, are kept (relaxation
    simply picks the cheapest).  The arcs of a vertex are stored in
    input order with originals before the added mirrors, which fixes
    the canonical arc order that :func:`generate_uniform_weights` draws
    in.  That order is a stable sort by source: scipy's compiled
    ``coo_tocsr``, a counting sort that keeps the input order within
    each row, writes the arcs straight into the returned arrays.  The
    graph's ``symmetric`` is derived from the arcs on first use, however
    they were made.

    Memory: the ids are int32 once checked (while ``n`` and the arc
    count stay below ``2**31``).  Besides the input, everything
    allocated, the returned arrays included, peaks at about 28 bytes per
    stored arc plus 12 per vertex: under 2.5 times the bytes of the
    returned graph.  The peak is the counting sort, with the unsorted
    ids and contiguous weights (16 bytes per arc) alive next to the
    result.
    """
    _check_n(n)  # n sizes arrays before the graph is made
    if n > 2**31:  # targets are int32
        raise ValueError(f"vertex count {n} exceeds 2**31")
    arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.float64)
    if arr.shape == (0,):  # no edges given as an empty list or generator
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("edges must be (u, v, w) triples")
    with np.errstate(invalid="ignore"):  # a NaN, infinite or huge id fails the check below
        src, tgt = arr[:, 0].astype(np.int32), arr[:, 1].astype(np.int32)
    w = arr[:, 2]
    if np.any((arr[:, 0] != src) | (arr[:, 1] != tgt)):
        # an id the int32 cast changed: a fraction, or an integer past int32
        ids = arr[:, :2]
        if not np.all(np.isfinite(ids) & (ids == np.trunc(ids))):
            raise ValueError("endpoints must be integers")
        raise ValueError("edge endpoint out of range")
    if np.any((src < 0) | (src >= n) | (tgt < 0) | (tgt >= n)):
        raise ValueError("edge endpoint out of range")

    if symmetrize and src.size:
        lone = _mirror_partners(src, tgt, w, n) < 0  # the arcs that gain a mirror
        src, tgt = np.concatenate([src, tgt[lone]]), np.concatenate([tgt, src[lone]])
        w = np.concatenate([w, w[lone]])  # after the ids: fewer arrays are alive at once
        del lone

    # the kernel takes n, m and every id in one index type, and the offsets hold m
    m, index = src.size, _index_type(max(n, src.size) + 1)
    offsets, targets, weights = np.empty(n + 1, dtype=index), np.empty(m, dtype=index), np.empty(m)
    _coo_tocsr(n, n, m, src.astype(index, copy=False), tgt.astype(index, copy=False), w, offsets, targets, weights)
    return CsrGraph(n, offsets.astype(np.int64), targets.astype(np.int32, copy=False), weights)


def _mirror_partners(src: np.ndarray, tgt: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Each arc's mirror: the position of the arc it pairs with, or -1.

    The arcs (u, v, w) and (v, u, w) pair up by occurrence rank: the k-th
    given one way, in input order, pairs with the k-th given the other
    way.  An arc gets -1 when its side of the pairing is the longer one
    and its rank is past the shorter side's count.  A self-loop is its
    own partner.  The arcs are ordered stably by their undirected key
    ``min * n + max``, with one packed sort when key and position fit in
    64 bits; a key held by two arcs is matched directly, and only the
    arcs of keys held by three or more are ordered further by weight and
    direction.  The partners are in the narrowest index type for the
    arc count.

    Memory: the sorted keys (8 bytes per arc), their positions (4) and a
    few masks (1 each).  The keys are freed, but for those held by three
    or more arcs, before the partners (4) are allocated, and pairs are
    matched block by block.  When key and position do not pack, numpy's
    stable argsort orders the keys; tracemalloc then reads about 20 bytes
    per arc beside the ids.
    """
    m, index = src.size, _index_type(src.size)
    if _packs(n * n, m):
        # the keys are packed and sorted in place; the sorted positions go
        # to a narrow array, and the keys are unpacked in place
        key, bits = _sort_packed(_edge_keys(src, tgt, n).view(np.uint64))
        order = np.empty(m, dtype=index)
        for lo in range(0, m, _BLOCK):
            order[lo : lo + _BLOCK] = key[lo : lo + _BLOCK] & np.uint64((1 << bits) - 1)
        key >>= np.uint64(bits)
    else:
        key = _edge_keys(src, tgt, n)
        order = np.argsort(key, kind="stable").astype(index, copy=False)
        key = key[order]
    # new[i]: sorted arc i starts a key (new[m] closes the last one)
    new = np.ones(m + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:m])
    # a key held by two arcs starts at i when i + 1 shares it and i + 2
    # does not; many: the arcs of the keys held by three or more
    two = new[:-2] & ~new[1:-1] & new[2:]
    many = ~(new[:-1] & new[1:])
    del new
    many[:-1] &= ~two
    many[1:] &= ~two
    many = np.flatnonzero(many)
    key = key[many]
    partner = np.full(m, -1, dtype=index)
    for lo in range(0, m, _BLOCK):
        loops = lo + np.flatnonzero(src[lo : lo + _BLOCK] == tgt[lo : lo + _BLOCK])
        partner[loops] = loops
    # the two arcs of a key pair when they run opposite ways with one weight
    for lo in range(0, two.size, _BLOCK):
        first = lo + np.flatnonzero(two[lo : lo + _BLOCK])
        a, b = order[first], order[first + 1]
        pair = (src[a] != src[b]) & (w[a] == w[b])
        partner[a[pair]], partner[b[pair]] = b[pair], a[pair]
    if many.size:
        a = order[many]
        fwd, bwd = _paired_by_rank(key, w[a], src[a] < tgt[a])
        partner[a[fwd]], partner[a[bwd]] = a[bwd], a[fwd]
    return partner


def _edge_keys(src: np.ndarray, tgt: np.ndarray, n: int) -> np.ndarray:
    """The undirected key ``min * n + max`` of each arc, as int64, built block by block."""
    key = np.empty(src.size, dtype=np.int64)
    for lo in range(0, src.size, _BLOCK):
        s, t, k = src[lo : lo + _BLOCK], tgt[lo : lo + _BLOCK], key[lo : lo + _BLOCK]
        np.minimum(s, t, out=k)
        k *= n
        k += np.maximum(s, t)
    return key


def _paired_by_rank(key: np.ndarray, w: np.ndarray, forward: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``(fwd, bwd)`` of the mirror pairs, for arcs sorted by key.

    Backward arc ``bwd[k]`` pairs with forward arc ``fwd[k]``.  Within a
    key the arcs are in input order.  A stable sort by (key, weight,
    direction) keeps that order within each direction, so an arc's offset
    in its run of one key, weight and direction is its occurrence rank.
    In each run the arcs ranked below ``min(forward, backward)`` of their
    key and weight pair up.
    """
    order = np.lexsort((~forward, w, key))
    key, w, forward = key[order], w[order], forward[order]
    new_group = np.ones(order.size, dtype=bool)
    new_group[1:] = (key[1:] != key[:-1]) | (w[1:] != w[:-1])
    new_run = new_group.copy()
    new_run[1:] |= forward[1:] != forward[:-1]
    group = np.cumsum(new_group) - 1
    rank = np.arange(order.size) - np.flatnonzero(new_run)[np.cumsum(new_run) - 1]
    ahead = np.bincount(group[forward], minlength=group[-1] + 1)
    pairs = np.minimum(ahead, np.bincount(group) - ahead)
    # a group lists its forward arcs first: the k-th backward one follows
    # the k-th forward one by the group's forward count
    first = np.flatnonzero(forward & (rank < pairs[group]))
    return order[first], order[first + ahead[group[first]]]


def _sort_packed(packed: np.ndarray) -> tuple[np.ndarray, int]:
    """The ``uint64`` keys, known to fit, as sorted ``key << b | position``, and ``b``.

    The positions are ORed in block by block and numpy sorts in place.
    Positions are unique, so the packed values are distinct and the sort
    is stable in the keys.
    """
    b = _position_bits(packed.size)
    packed <<= np.uint64(b)
    for lo in range(0, packed.size, _BLOCK):
        block = packed[lo : lo + _BLOCK]
        block |= np.arange(lo, lo + block.size, dtype=np.uint64)
    packed.sort()
    return packed, b


def _position_bits(size: int) -> int:
    return max(1, (size - 1).bit_length())


def _packs(bound: int, size: int) -> bool:
    """True iff ``size`` keys in ``[0, bound)`` fit in 64 bits with their positions."""
    return (bound - 1).bit_length() + _position_bits(size) <= 64


def _index_type(size: int):
    """The narrowest integer type that holds every position below ``size``."""
    return np.int32 if size <= 2**31 else np.int64


def generate_uniform_weights(graph: CsrGraph, seed: int, lo: float, hi: float) -> CsrGraph:
    """Return a copy of ``graph`` with fresh uniform weights on [lo, hi].

    One value is drawn per undirected edge and assigned to both mirror
    arcs, so the result stays symmetric.  The draw stream is pinned for
    reproducibility: a NumPy PCG64 generator seeded with ``seed`` produces
    one uniform per arc with ``source <= target``, visited in CSR storage
    order (each self-loop counts as its own edge).  Each draw also goes
    to the arc's mirror, weights ignored: the k-th (u, v) arc in storage
    order pairs with the k-th (v, u) arc.  A port that lays out arcs the
    same way and uses PCG64 reproduces the weights exactly.  Raises
    ValueError when, weights ignored, some arc has no mirror.
    """
    if not (0 <= lo <= hi) or not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("need finite weight bounds with 0 <= lo <= hi")
    src = graph.arc_sources()
    # one weight for every arc pairs the arcs on their ends alone
    mirror = _mirror_partners(src, graph.targets, np.broadcast_to(0.0, (graph.m,)), graph.n)
    if (mirror < 0).any():
        raise ValueError("graph is not symmetrized: arc multiset is not mirror-closed")
    canonical = np.flatnonzero(src <= graph.targets)
    rng = np.random.default_rng(seed)
    draws = rng.uniform(lo, hi, size=canonical.size)
    weights = np.empty(graph.m, dtype=np.float64)
    weights[canonical] = draws
    weights[mirror[canonical]] = draws
    return replace(graph, weights=weights)


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

    def members(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


def largest_component(graph: CsrGraph) -> ComponentInfo:
    """Label connected components (ties for largest go to the smaller label).

    Components are weak: arc directions are ignored.  They come from one
    weak pass of scipy's labelling over a matrix built on the graph's own
    arrays, with no copy of the arcs; only the structure is read, so
    parallel arcs, self-loops and any weight values label alike, and
    ``symmetric`` is not derived.  Labels are canonical:
    components are numbered by the smallest vertex id they contain, so
    vertex 0 is always in component 0.  They are computed once per graph
    object; later calls return the same :class:`ComponentInfo`.

    Memory: beside the labels (8 bytes per vertex), scipy's transpose of
    the arcs, about the graph's bytes.
    """
    return graph._components


def _label_components(graph: CsrGraph) -> ComponentInfo:
    if graph.n == 0:
        return ComponentInfo(np.empty(0, dtype=np.int64), 0, 0, 0)
    # the weights are a placeholder of scipy's data type: labelling reads
    # the structure alone
    mat = csr_matrix((graph.weights, graph.targets, graph.offsets), shape=(graph.n, graph.n))
    count, raw = _cc(mat, directed=True, connection="weak")
    raw = raw.astype(np.int64)
    first = np.full(count, graph.n, dtype=np.int64)  # first vertex of each raw label
    np.minimum.at(first, raw, np.arange(graph.n))
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    labels = rank[raw]
    sizes = np.bincount(labels, minlength=count)
    largest = int(sizes.argmax())
    return ComponentInfo(labels, int(count), largest, int(sizes[largest]))
