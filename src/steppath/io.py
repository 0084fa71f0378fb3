"""Graph and coordinate file formats.

Three on-disk formats are supported:

* text edge list: an optional block of ``#`` comment lines, one header
  line ``n m``, then ``m`` lines ``u v w``.  The list describes an
  undirected graph; the loader symmetrizes.
* binary CSR: little-endian, magic ``OCSR``, u32 version, u64 n, u64 m,
  then offsets ((n+1) x u64), targets (m x u32), weights (m x f64).
* coordinates: a header line ``euclidean`` or ``spherical`` followed by
  ``n`` lines ``id c1 c2``.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .graph import COORD_KINDS, CsrGraph, build_csr, mirror_closed

MAGIC = b"OCSR"
FORMAT_VERSION = 1


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line


def load_edge_list(path) -> CsrGraph:
    """Read a text edge list and return the symmetrized graph."""
    lines = _data_lines(path)
    try:
        header = next(lines)
    except StopIteration:
        raise ValueError(f"{path}: missing 'n m' header line") from None
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{path}: header must be 'n m', got {header!r}")
    n, m = int(parts[0]), int(parts[1])
    edges = []
    for line in lines:
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"{path}: edge line must be 'u v w', got {line!r}")
        edges.append((int(fields[0]), int(fields[1]), float(fields[2])))
    if len(edges) != m:
        raise ValueError(f"{path}: header says {m} edges, found {len(edges)}")
    return build_csr(n, edges, symmetrize=True)


def save_edge_list(graph: CsrGraph, path) -> None:
    """Write a symmetric graph as a text edge list (one line per edge)."""
    if not graph.symmetric and not mirror_closed(graph):
        raise ValueError("text edge lists describe undirected graphs; graph is not symmetric")
    src = graph.arc_sources()
    keep = src <= graph.targets
    u, v, w = src[keep], graph.targets[keep], graph.weights[keep]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {u.size}\n")
        for a, b, c in zip(u, v, w):
            fh.write(f"{a} {b} {float(c)!r}\n")


def load_binary(path) -> CsrGraph:
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) < 24 or head[:4] != MAGIC:
            raise ValueError(f"{path}: not a binary CSR graph (bad magic)")
        version, n, m = struct.unpack("<IQQ", head[4:])
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        # check the header against the file before allocating what it claims
        size, expected = os.fstat(fh.fileno()).st_size, 24 + 8 * (n + 1) + 12 * m
        if size < expected:
            raise ValueError(f"{path}: truncated binary CSR graph ({size} bytes, header needs {expected})")
        if size > expected:
            raise ValueError(f"{path}: size mismatch ({size} bytes, header needs {expected})")
        offsets = np.fromfile(fh, dtype="<u8", count=n + 1).astype(np.int64)
        targets = np.fromfile(fh, dtype="<u4", count=m).astype(np.int32)
        weights = np.fromfile(fh, dtype="<f8", count=m)
    if offsets.size != n + 1 or targets.size != m or weights.size != m:
        raise ValueError(f"{path}: truncated binary CSR graph")
    if offsets[0] != 0 or offsets[-1] != m or np.any(np.diff(offsets) < 0):
        raise ValueError(f"{path}: corrupt offsets array")
    if m and (np.any(targets < 0) or np.any(targets.astype(np.int64) >= n)):
        raise ValueError(f"{path}: arc target out of range")
    if m and (not np.all(np.isfinite(weights)) or np.any(weights < 0)):
        raise ValueError(f"{path}: weights must be finite and nonnegative")
    graph = CsrGraph(n=int(n), offsets=offsets, targets=targets, weights=weights)
    graph.symmetric = mirror_closed(graph)
    return graph


def save_binary(graph: CsrGraph, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQQ", FORMAT_VERSION, graph.n, graph.m))
        fh.write(graph.offsets.astype("<u8").tobytes())
        fh.write(graph.targets.astype("<u4").tobytes())
        fh.write(graph.weights.astype("<f8").tobytes())


def load_graph(path) -> CsrGraph:
    """Load either format, sniffing the binary magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return load_binary(path)
    return load_edge_list(path)


def load_coords(path) -> tuple[np.ndarray, str]:
    lines = _data_lines(path)
    try:
        kind = next(lines).lower()
    except StopIteration:
        raise ValueError(f"{path}: missing coordinate kind header") from None
    if kind not in COORD_KINDS:
        raise ValueError(f"{path}: coordinate kind must be one of {COORD_KINDS}, got {kind!r}")
    rows = []
    for line in lines:
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"{path}: coordinate line must be 'id c1 c2', got {line!r}")
        c1, c2 = float(fields[1]), float(fields[2])
        if not (math.isfinite(c1) and math.isfinite(c2)):
            raise ValueError(f"{path}: coordinates must be finite, got {line!r}")
        rows.append((int(fields[0]), c1, c2))
    if not rows:
        raise ValueError(f"{path}: no coordinate rows")
    n = len(rows)
    coords = np.full((n, 2), np.nan)
    for vid, c1, c2 in rows:
        if not 0 <= vid < n:
            raise ValueError(f"{path}: vertex id {vid} out of range for {n} rows")
        coords[vid] = (c1, c2)
    if np.any(np.isnan(coords)):
        raise ValueError(f"{path}: duplicate or missing vertex ids")
    return coords, kind


def save_coords(coords: np.ndarray, kind: str, path) -> None:
    if kind not in COORD_KINDS:
        raise ValueError(f"coordinate kind must be one of {COORD_KINDS}, got {kind!r}")
    coords = np.asarray(coords, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(kind + "\n")
        for i, (a, b) in enumerate(coords):
            fh.write(f"{i} {float(a)!r} {float(b)!r}\n")


def as_pairs(pairs) -> np.ndarray:
    """Empty input, or a (k, 2) array of integral vertex ids, as int64 (k, 2).

    Any other shape, dtype or a non-integral value raises ValueError.
    """
    arr = np.asarray(pairs)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"query pairs must form a (k, 2) array, got shape {arr.shape}")
    if arr.dtype.kind == "f":
        bad = arr[~np.isfinite(arr) | (arr != np.trunc(arr))]
        if bad.size:
            raise ValueError(f"query pairs must hold integer vertex ids, got {bad[0]}")
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"query pairs must hold integer vertex ids, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def load_pairs(path) -> np.ndarray:
    """Read a batch query file: one 's t' pair per line."""
    pairs = []
    for line in _data_lines(path):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}: query line must be 's t', got {line!r}")
        pairs.append((int(fields[0]), int(fields[1])))
    return as_pairs(pairs)


def save_pairs(pairs, path) -> None:
    pairs = as_pairs(pairs)
    with open(path, "w", encoding="utf-8") as fh:
        for s, t in pairs:
            fh.write(f"{s} {t}\n")
