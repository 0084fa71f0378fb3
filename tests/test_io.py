import struct

import numpy as np
import pytest

import steppath as sp
from helpers import g1, geometric_graph, random_graph


def _arc_multiset(g):
    src = g.arc_sources()
    order = np.lexsort((g.weights, g.targets, src))
    return np.column_stack([src, g.targets, g.weights])[order]


def test_edge_list_round_trip(tmp_path):
    g = g1()
    p = tmp_path / "g.txt"
    sp.save_edge_list(g, p)
    h = sp.load_edge_list(p)
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(h.offsets, g.offsets)
    assert np.array_equal(_arc_multiset(h), _arc_multiset(g))


def test_edge_list_comments_and_blank_lines(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n\n3 2\n0 1 1.5\n# another\n1 2 2.5\n")
    g = sp.load_edge_list(p)
    assert g.n == 3 and g.m == 4  # loader symmetrizes
    assert g.symmetric


def test_edge_list_bad_header(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3\n0 1 1.0\n")
    with pytest.raises(ValueError):
        sp.load_edge_list(p)


def test_edge_list_bad_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("2 1\n0 1\n")
    with pytest.raises(ValueError):
        sp.load_edge_list(p)


def test_save_edge_list_rejects_asymmetric(tmp_path):
    g = sp.build_csr(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        sp.save_edge_list(g, tmp_path / "g.txt")


def test_binary_round_trip_exact(tmp_path):
    g = random_graph(60, 4, 5)
    p = tmp_path / "g.bin"
    sp.save_binary(g, p)
    h = sp.load_binary(p)
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(h.offsets, g.offsets)
    assert np.array_equal(h.targets, g.targets)
    assert np.array_equal(h.weights, g.weights)
    assert h.symmetric


def test_binary_magic_rejected(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        sp.load_binary(p)


def test_binary_truncation_rejected(tmp_path):
    g = g1()
    p = tmp_path / "g.bin"
    sp.save_binary(g, p)
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        sp.load_binary(p)


@pytest.mark.parametrize("n, m", [(2**40, 0), (0, 2**40), (2**64 - 1, 0)])
def test_binary_forged_header_rejected_before_allocating(tmp_path, n, m):
    # the header claims TiBs of arrays, or n + 1 offsets past u64, that
    # the file does not hold
    p = tmp_path / "forged.bin"
    p.write_bytes(sp.io.MAGIC + struct.pack("<IQQ", sp.io.FORMAT_VERSION, n, m) + b"\x00" * 8)
    with pytest.raises(ValueError, match="truncated|size mismatch"):
        sp.load_binary(p)


def test_binary_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "g.bin"
    sp.save_binary(g1(), p)
    p.write_bytes(p.read_bytes() + b"\x00" * 12)
    with pytest.raises(ValueError, match="size mismatch"):
        sp.load_binary(p)


def test_load_graph_sniffs_format(tmp_path):
    g = g1()
    sp.save_edge_list(g, tmp_path / "g.txt")
    sp.save_binary(g, tmp_path / "g.bin")
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
