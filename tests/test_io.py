import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import steppath as sp
from steppath import io as gio
from steppath.graph import COORD_KINDS
from helpers import g1, geometric_graph, random_graph


def _arc_multiset(g):
    src = g.arc_sources()
    order = np.lexsort((g.weights, g.targets, src))
    return np.column_stack([src, g.targets, g.weights])[order]


def test_edge_list_round_trip(tmp_path):
    g = g1()
    p = tmp_path / "g.txt"
    gio.save_edge_list(g, p)
    h = gio.load_edge_list(p)
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(h.offsets, g.offsets)
    assert np.array_equal(_arc_multiset(h), _arc_multiset(g))


def test_edge_list_comments_and_blank_lines(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n\n3 2\n0 1 1.5\n# another\n1 2 2.5\n")
    g = gio.load_edge_list(p)
    assert g.n == 3 and g.m == 4  # loader symmetrizes
    assert g.symmetric


def test_edge_list_given_both_ways_loads_as_given_once(tmp_path):
    # an edge given both ways is one undirected edge, stored once per direction
    edges = [(0, 1, 1.5), (1, 2, 2.5), (0, 1, 4.0), (2, 2, 1.0), (3, 0, 0.0)]
    both = edges + [(v, u, w) for u, v, w in edges if u != v]
    graphs = []
    for name, lines in (("once", edges), ("both", both)):
        p = tmp_path / f"{name}.txt"
        p.write_text(f"4 {len(lines)}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in lines))
        graphs.append(gio.load_edge_list(p))
    once, twice = graphs
    assert once.m == twice.m == 9
    for name in ("offsets", "targets", "weights"):
        assert np.array_equal(getattr(once, name), getattr(twice, name)), name


def test_edge_list_bad_header(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3\n0 1 1.0\n")
    with pytest.raises(ValueError):
        gio.load_edge_list(p)


def test_edge_list_bad_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("2 1\n0 1\n")
    with pytest.raises(ValueError):
        gio.load_edge_list(p)


def test_save_edge_list_rejects_asymmetric(tmp_path):
    g = sp.build_csr(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        gio.save_edge_list(g, tmp_path / "g.txt")


def test_binary_round_trip_exact(tmp_path):
    g = random_graph(60, 4, 5)
    p = tmp_path / "g.bin"
    gio.save_binary(g, p)
    h = gio.load_binary(p)
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(h.offsets, g.offsets)
    assert np.array_equal(h.targets, g.targets)
    assert np.array_equal(h.weights, g.weights)
    assert h.symmetric


def test_binary_magic_rejected(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        gio.load_binary(p)


def test_binary_truncation_rejected(tmp_path):
    g = g1()
    p = tmp_path / "g.bin"
    gio.save_binary(g, p)
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        gio.load_binary(p)


@pytest.mark.parametrize("n, m", [(2**40, 0), (0, 2**40), (2**64 - 1, 0)])
def test_binary_forged_header_rejected_before_allocating(tmp_path, n, m):
    # the header claims TiBs of arrays, or n + 1 offsets past u64, that
    # the file does not hold
    p = tmp_path / "forged.bin"
    p.write_bytes(sp.io.MAGIC + struct.pack("<IQQ", sp.io.FORMAT_VERSION, n, m) + b"\x00" * 8)
    with pytest.raises(ValueError, match="truncated|size mismatch"):
        gio.load_binary(p)


def test_binary_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "g.bin"
    gio.save_binary(g1(), p)
    p.write_bytes(p.read_bytes() + b"\x00" * 12)
    with pytest.raises(ValueError, match="size mismatch"):
        gio.load_binary(p)


def _layout(n, offsets, targets, weights):
    # the documented binary CSR layout, field by field
    m = len(targets)
    return (
        b"OCSR"
        + struct.pack("<IQQ", 1, n, m)
        + struct.pack(f"<{n + 1}Q", *offsets)
        + struct.pack(f"<{m}I", *targets)
        + struct.pack(f"<{m}d", *weights)
    )


def test_binary_bytes_match_layout(tmp_path):
    p = tmp_path / "g.bin"
    wide = sp.CsrGraph(2, np.array([0, 1, 2], dtype=np.int64), np.array([1, 0]), np.array([2.5, 2.5]))
    assert wide.targets.dtype == np.int64  # written as u32 all the same
    for g in (g1(), random_graph(50, 3, 2), sp.build_csr(3, []), wide):
        gio.save_binary(g, p)
        assert p.read_bytes() == _layout(g.n, g.offsets.tolist(), g.targets.tolist(), g.weights.tolist())


@pytest.mark.parametrize(
    "offsets, targets, error",
    [
        ([0, 1, 2], [1, 2], "arc target out of range"),
        ([0, 1, 2], [1, 2**31], "arc target out of range"),
        ([0, 1, 2], [2**32 - 1, 0], "arc target out of range"),
        ([0, 2**63, 2], [1, 0], "offsets must rise from 0"),
        ([0, 2, 1], [1, 0], "offsets must rise from 0"),
    ],
)
def test_binary_bad_arrays_rejected(tmp_path, offsets, targets, error):
    p = tmp_path / "g.bin"
    p.write_bytes(_layout(2, offsets, targets, [1.0, 1.0]))
    # the graph's own error, with the file's path in front
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: graph: {error}"):
        gio.load_binary(p)


@pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
def test_binary_bad_weights_rejected(tmp_path, weight):
    p = tmp_path / "g.bin"
    p.write_bytes(_layout(2, [0, 1, 2], [1, 0], [weight, weight]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: graph: weights must be finite and nonnegative"):
        gio.load_binary(p)


@pytest.mark.parametrize(
    "loader, text",
    [
        (gio.load_edge_list, "2 1\n0 1 2"),  # cut from "0 1 2.5"
        (gio.load_edge_list, "2 0"),
        (sp.load_pairs, "0 1\n2 3"),  # cut from "2 31"
        (sp.load_coords, "euclidean\n0 0.0 1.5\n1 2.0 3.2"),  # cut from "3.25"
    ],
)
def test_cut_text_file_refused(tmp_path, loader, text):
    p = tmp_path / "cut.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="no newline; the file may be cut") as err:
        loader(p)
    assert str(p) in str(err.value)
    # the same lines with their newline load, and so does a last comment without one
    for intact in (text + "\n", text + "\n# end"):
        p.write_text(intact, encoding="utf-8")
        loader(p)


def test_load_graph_sniffs_format(tmp_path):
    g = g1()
    gio.save_edge_list(g, tmp_path / "g.txt")
    gio.save_binary(g, tmp_path / "g.bin")
    assert sp.load_graph(tmp_path / "g.txt").m == g.m
    assert sp.load_graph(tmp_path / "g.bin").m == g.m


def test_coords_round_trip(tmp_path):
    g = geometric_graph(30, 3, 1)
    p = tmp_path / "pts.coords"
    sp.save_coords(g.coords, "euclidean", p)
    coords, kind = sp.load_coords(p)
    assert kind == "euclidean"
    assert np.allclose(coords, g.coords, rtol=0, atol=0)


def test_coords_bad_kind(tmp_path):
    p = tmp_path / "pts.coords"
    p.write_text("cartesian\n0 0.0 0.0\n")
    with pytest.raises(ValueError):
        sp.load_coords(p)


def test_coords_duplicate_id(tmp_path):
    p = tmp_path / "pts.coords"
    p.write_text("euclidean\n0 0.0 0.0\n0 1.0 1.0\n")
    with pytest.raises(ValueError):
        sp.load_coords(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_coords_non_finite_rejected(tmp_path, bad):
    p = tmp_path / "pts.coords"
    p.write_text(f"euclidean\n0 0.0 0.0\n1 {bad} 2.0\n2 1.0 1.0\n")
    with pytest.raises(ValueError, match=f"finite, got '1 {bad} 2.0'"):
        sp.load_coords(p)


def test_edge_list_vertex_count_past_int32(tmp_path):
    p = tmp_path / "huge.txt"
    p.write_text("3000000000 1\n0 1 1\n")
    assert p.stat().st_size == 19
    with pytest.raises(ValueError, match="exceeds"):
        sp.load_graph(p)


def test_pairs_round_trip(tmp_path):
    pairs = np.array([[0, 3], [2, 1], [4, 4]])
    p = tmp_path / "q.txt"
    sp.save_pairs(pairs, p)
    assert np.array_equal(sp.load_pairs(p), pairs)


def test_pairs_bad_line(tmp_path):
    p = tmp_path / "q.txt"
    p.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        sp.load_pairs(p)


@pytest.mark.parametrize(
    "loader, text, line",
    [
        (gio.load_edge_list, "x 1\n0 1 1.0\n", "x 1"),
        (gio.load_edge_list, "2 1\n0 y 1.0\n", "0 y 1.0"),
        (sp.load_coords, "euclidean\n0 x 1.0\n", "0 x 1.0"),
        (sp.load_pairs, "0 1\n0 z\n", "0 z"),
    ],
)
def test_non_numeric_field_names_file_and_line(tmp_path, loader, text, line):
    p = tmp_path / "bad.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"got '{line}'") as err:
        loader(p)
    assert str(err.value).startswith(f"{p}: ")


# damage for the loader fuzz tests: junk fields, duplicated lines, truncation
_JUNK = ["x", "", "1.5.2", "--1", "0x1", "1e", "1_0", "\u0661", "nan", "inf", "-3", "2.5", "1e400", "4"]
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[+-]?(?:inf|infinity|nan)", re.I)


@st.composite
def _damaged(draw, lines):
    """``lines`` as file text, maybe damaged; returns (text, damaged)."""
    lines = list(lines)
    damaged = False
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        lines.insert(draw(st.integers(0, len(lines))), lines[k])
        damaged = True
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(" ")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_JUNK))
        lines[k] = " ".join(fields)
        damaged = True
    text = "".join(line + "\n" for line in lines)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
        damaged = True
    return text, damaged


def _cut(text):
    """True if the text ends inside a data line, one without its newline."""
    last = text.rsplit("\n", 1)[-1].strip()
    return bool(last) and not last.startswith("#")


def _data(text):
    lines = (line.strip() for line in text.split("\n"))
    return [line for line in lines if line and not line.startswith("#")]


def _number(field, pattern, kind):
    return kind(field) if pattern.fullmatch(field) else None


def _described_graph(text):
    """(n, edges) that the lines of an edge list describe, or None if they are not one."""
    lines = _data(text)
    head = lines[0].split() if lines else []
    if len(head) != 2 or None in (n := _number(head[0], _INT, int), m := _number(head[1], _INT, int)) or n < 0:
        return None
    edges = []
    for line in lines[1:]:
        f = line.split()
        if len(f) != 3:
            return None
        u, v, w = _number(f[0], _INT, int), _number(f[1], _INT, int), _number(f[2], _FLOAT, float)
        if None in (u, v, w) or not (0 <= u < n and 0 <= v < n and math.isfinite(w) and w >= 0):
            return None
        edges.append((u, v, w))
    return (n, edges) if len(edges) == m else None


@st.composite
def _edge_list_text(draw):
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, 0.5, 1.0, 2.25, 7.0, 1e-3])
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=6))
    lines = [f"{n} {len(edges)}"] + [f"{u} {v} {w!r}" for u, v, w in edges]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    return draw(_damaged(lines))


@settings(max_examples=300, deadline=None)
@given(_edge_list_text())
def test_load_edge_list_fuzz(tmp_path_factory, case):
    # every input loads to the graph its lines describe or raises ValueError
    text, damaged = case
    p = tmp_path_factory.mktemp("fuzz") / "g.txt"
    p.write_text(text, encoding="utf-8")
    if _cut(text):
        with pytest.raises(ValueError):  # here, or at an earlier damaged line
            gio.load_edge_list(p)
        return
    try:
        g = gio.load_edge_list(p)
    except ValueError:
        assert damaged, "an intact edge list was refused"
        return
    described = _described_graph(text)
    assert described is not None, "a damaged edge list was loaded"
    want = sp.build_csr(*described, symmetrize=True)
    assert g.n == want.n and g.symmetric
    for name in ("offsets", "targets", "weights"):
        assert np.array_equal(getattr(g, name), getattr(want, name)), name


def _described_coords(text):
    """(coords, kind) that the lines of a coordinate file describe, or None."""
    lines = _data(text)
    if not lines or lines[0].lower() not in COORD_KINDS:
        return None
    rows = {}
    for line in lines[1:]:
        f = line.split()
        if len(f) != 3:
            return None
        vid, c1, c2 = _number(f[0], _INT, int), _number(f[1], _FLOAT, float), _number(f[2], _FLOAT, float)
        if None in (vid, c1, c2) or not (math.isfinite(c1) and math.isfinite(c2)) or vid in rows:
            return None
        rows[vid] = (c1, c2)
    if not rows or sorted(rows) != list(range(len(rows))):
        return None
    return np.array([rows[i] for i in range(len(rows))]), lines[0].lower()


@st.composite
def _coords_text(draw):
    n = draw(st.integers(1, 5))
    value = st.sampled_from([0.0, -1.5, 0.25, 3.0, 89.5, -179.75])
    ids = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["euclidean", "spherical", "Euclidean"]))
    lines = [kind] + [f"{i} {draw(value)!r} {draw(value)!r}" for i in ids]
    return draw(_damaged(lines))


@settings(max_examples=300, deadline=None)
@given(_coords_text())
def test_load_coords_fuzz(tmp_path_factory, case):
    # every input loads to the rows its lines describe or raises ValueError
    text, damaged = case
    p = tmp_path_factory.mktemp("fuzz") / "pts.coords"
    p.write_text(text, encoding="utf-8")
    if _cut(text):
        with pytest.raises(ValueError):  # here, or at an earlier damaged line
            sp.load_coords(p)
        return
    try:
        coords, kind = sp.load_coords(p)
    except ValueError:
        assert damaged, "an intact coordinate file was refused"
        return
    described = _described_coords(text)
    assert described is not None, "a damaged coordinate file was loaded"
    assert kind == described[1] and np.array_equal(coords, described[0])


def test_edge_list_loader_peak_memory(tmp_path):
    rng = np.random.default_rng(8)
    n, m = 5_000, 20_000
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    w = rng.random(m).tolist()
    p = tmp_path / "g.txt"
    p.write_text(f"{n} {m}\n" + "".join(f"{a} {b} {c!r}\n" for a, b, c in zip(u, v, w)))
    tracemalloc.start()
    try:
        g = gio.load_edge_list(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    graph_bytes = g.offsets.nbytes + g.targets.nbytes + g.weights.nbytes
    assert g.m == 2 * m - np.count_nonzero(u == v)
    assert peak <= 4 * graph_bytes, f"loader peaked at {peak / graph_bytes:.2f}x the graph's bytes"
