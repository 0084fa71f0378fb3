"""Graph and coordinate file formats.

Three on-disk formats are supported:

* text edge list: an optional block of ``#`` comment lines, one header
  line ``n m``, then ``m`` lines ``u v w``.  The list describes an
  undirected graph; the loader symmetrizes, adding a mirror arc for
  each line the list does not already give the other way with the same
  weight, so an edge listed both ways is stored once per direction.
* binary CSR: little-endian, magic ``OCSR``, u32 version, u64 n, u64 m,
  then offsets ((n+1) x u64), targets (m x u32), weights (m x f64).
* coordinates: a header line ``euclidean`` or ``spherical`` followed by
  ``n`` lines ``id c1 c2``.

:func:`load_graph` (which sniffs the binary magic) and :func:`save_graph`
(which picks the format by the path's suffix) are the graph file pair
the package exports; the per-format readers and writers behind them
(``load_edge_list``, ``load_binary``, ``save_edge_list``,
``save_binary``) stay importable from this module.

The fields of the text formats are ASCII numbers; a data line holding an
underscore, a non-ASCII character or a field that is not a number is
refused with the path and the line.  Every data line ends in a
newline, so a file cut inside its last line is refused too.  A binary
file's arrays are checked as every :class:`CsrGraph` is, with the path
in front of the graph's error.
"""

from __future__ import annotations

import math
import os
import struct
from array import array

import numpy as np

from .graph import COORD_KINDS, CsrGraph, build_csr

MAGIC = b"OCSR"
FORMAT_VERSION = 1


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                if not raw.endswith("\n"):
                    raise ValueError(f"{path}: last line {line!r} has no newline; the file may be cut")
                yield line


def _fields(line: str, types) -> tuple | None:
    """The whitespace-separated fields of a data line, converted, or None.

    ``types`` holds one converter (``int`` or ``float``) per field.  None
    means the line has another field count or a field that does not
    convert.  ``int`` and ``float`` also read underscores (``1_0`` is 10)
    and non-ASCII digits; no field of these formats holds either, so a line
    with them has no fields.
    """
    fields = line.split()
    if len(fields) != len(types) or "_" in line or not line.isascii():
        return None
    try:
        return tuple(convert(f) for convert, f in zip(types, fields))
    except ValueError:
        return None


def load_edge_list(path) -> CsrGraph:
    """Read a text edge list and return the symmetrized graph."""
    lines = _data_lines(path)
    try:
        header = next(lines)
    except StopIteration:
        raise ValueError(f"{path}: missing 'n m' header line") from None
    parts = _fields(header, (int, int))
    if parts is None:
        raise ValueError(f"{path}: header must be 'n m', got {header!r}")
    n, m = parts
    # u, v, w of each line in turn, as the float64 that build_csr converts
    # every triple to: 24 bytes per edge, against about 180 in a list of tuples
    flat = array("d")
    for line in lines:
        edge = _fields(line, (int, int, float))
        if edge is None:
            raise ValueError(f"{path}: edge line must be 'u v w', got {line!r}")
        flat.extend(edge)
    if len(flat) != 3 * m:
        raise ValueError(f"{path}: header says {m} edges, found {len(flat) // 3}")
    return build_csr(n, np.frombuffer(flat, dtype=np.float64).reshape(-1, 3), symmetrize=True)


def save_edge_list(graph: CsrGraph, path) -> None:
    """Write a symmetric graph as a text edge list (one line per edge)."""
    if not graph.symmetric:
        raise ValueError("text edge lists describe undirected graphs; graph is not symmetric")
    src = graph.arc_sources()
    keep = src <= graph.targets
    u, v, w = src[keep], graph.targets[keep], graph.weights[keep]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {u.size}\n")
        for a, b, c in zip(u, v, w):
            fh.write(f"{a} {b} {float(c)!r}\n")


def load_binary(path) -> CsrGraph:
    """Read a binary CSR graph, checking the header against the file size first.

    The file holds no symmetric flag: the graph derives it from its arcs
    on first use (:attr:`CsrGraph.symmetric`).
    """
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
        # the u64 offsets and u32 targets are read as signed, so a value past
        # int64 or int32 reads negative and fails the graph's check
        offsets = np.fromfile(fh, dtype="<i8", count=n + 1)
        targets = np.fromfile(fh, dtype="<i4", count=m)
        weights = np.fromfile(fh, dtype="<f8", count=m)
    if offsets.size != n + 1 or targets.size != m or weights.size != m:
        raise ValueError(f"{path}: truncated binary CSR graph")
    try:
        return CsrGraph(n=int(n), offsets=offsets, targets=targets, weights=weights)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def save_binary(graph: CsrGraph, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQQ", FORMAT_VERSION, graph.n, graph.m))
        # ids and offsets are nonnegative, so their signed bytes are the u64
        # and u32 bytes; an array already in its file type is written uncopied
        fh.write(np.ascontiguousarray(graph.offsets, dtype="<i8"))
        fh.write(np.ascontiguousarray(graph.targets, dtype="<i4"))
        fh.write(np.ascontiguousarray(graph.weights, dtype="<f8"))


def load_graph(path) -> CsrGraph:
    """Load either format, sniffing the binary magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return load_binary(path)
    return load_edge_list(path)


def save_graph(graph: CsrGraph, path) -> None:
    """Write a text edge list to a ``.txt`` path, binary CSR to any other."""
    if str(path).endswith(".txt"):
        save_edge_list(graph, path)
    else:
        save_binary(graph, path)


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
        row = _fields(line, (int, float, float))
        if row is None:
            raise ValueError(f"{path}: coordinate line must be 'id c1 c2', got {line!r}")
        if not (math.isfinite(row[1]) and math.isfinite(row[2])):
            raise ValueError(f"{path}: coordinates must be finite, got {line!r}")
        rows.append(row)
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


def as_vertex(value, n: int, name: str) -> int:
    """One vertex id of an ``n``-vertex graph, as an int.

    The rule of :func:`as_pairs`: an integer, or a float with an integral
    value.  A bool, any other value, or an id outside ``0..n-1`` raises
    ValueError naming ``name`` and the value.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        arr = np.asarray(value)
        kind = arr.dtype.kind
        if arr.ndim or not (kind in "iu" or kind == "f" and np.isfinite(arr) and arr == np.trunc(arr)):
            raise ValueError(f"{name} must be an integer vertex id, got {value!r}")
    v = int(value)
    if not 0 <= v < n:
        raise ValueError(f"{name} {v} out of range for n={n}")
    return v


def load_pairs(path) -> np.ndarray:
    """Read a batch query file: one 's t' pair per line."""
    pairs = []
    for line in _data_lines(path):
        pair = _fields(line, (int, int))
        if pair is None:
            raise ValueError(f"{path}: query line must be 's t', got {line!r}")
        pairs.append(pair)
    return as_pairs(pairs)


def save_pairs(pairs, path) -> None:
    pairs = as_pairs(pairs)
    with open(path, "w", encoding="utf-8") as fh:
        for s, t in pairs:
            fh.write(f"{s} {t}\n")
