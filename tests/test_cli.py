import csv
import sys

import numpy as np
import pytest

import steppath as sp
from steppath import io as gio
from steppath.cli import main
from helpers import g1, random_graph, two_triangles


def _parse(line):
    rec = {}
    for token in line.split():
        k, _, v = token.partition("=")
        rec[k] = v
    return rec


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.txt"
    gio.save_edge_list(g1(), path)
    return str(path)


def _records(capsys):
    return [_parse(line) for line in capsys.readouterr().out.strip().splitlines()]


def _arc_multiset(g):
    src = g.arc_sources()
    order = np.lexsort((g.weights, g.targets, src))
    return list(zip(src[order].tolist(), g.targets[order].tolist(), g.weights[order].tolist()))


def test_convert_text_to_binary_and_back(tmp_path, g1_file, capsys):
    bin_path = str(tmp_path / "g1.bin")
    assert main(["convert", "-g", g1_file, "--out", bin_path, "--to", "binary"]) == 0
    (rec,) = _records(capsys)
    assert rec["record"] == "convert" and rec["n"] == "4" and rec["m"] == "8"
    round_trip = gio.load_graph(bin_path)
    want = g1()
    assert np.array_equal(round_trip.offsets, want.offsets)
    assert _arc_multiset(round_trip) == _arc_multiset(want)

    txt_path = str(tmp_path / "again.txt")
    assert main(["convert", "-g", bin_path, "--out", txt_path, "--to", "text"]) == 0
    again = gio.load_graph(txt_path)
    assert np.array_equal(again.offsets, want.offsets)
    assert _arc_multiset(again) == _arc_multiset(want)


def test_gen_weights_deterministic(tmp_path, g1_file, capsys):
    out1 = tmp_path / "w1.txt"
    out2 = tmp_path / "w2.txt"
    main(["gen-weights", "-g", g1_file, "--out", str(out1), "--seed", "9", "--lo", "2", "--hi", "64"])
    main(["gen-weights", "-g", g1_file, "--out", str(out2), "--seed", "9", "--lo", "2", "--hi", "64"])
    assert out1.read_text() == out2.read_text()
    fresh = gio.load_graph(out1)
    assert fresh.n == 4 and fresh.m == 8
    assert ((fresh.weights >= 2) & (fresh.weights < 64)).all()


def test_gen_weights_binary_out(tmp_path, g1_file, capsys):
    out = tmp_path / "w.bin"
    main(["gen-weights", "-g", g1_file, "--out", str(out), "--seed", "3"])
    assert out.read_bytes()[:4] == b"OCSR"


def test_components_line(tmp_path, capsys):
    path = tmp_path / "tt.txt"
    gio.save_edge_list(two_triangles(), path)
    csv_path = tmp_path / "comp.csv"
    main(["components", "-g", str(path), "--csv", str(csv_path)])
    (rec,) = _records(capsys)
    assert rec["components"] == "2"
    assert rec["largest_size"] == "3"
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["components"] == "2"


def test_gen_queries(tmp_path, capsys):
    g = random_graph(60, 3, 5)
    path = tmp_path / "g.txt"
    gio.save_edge_list(g, path)
    out = tmp_path / "q.txt"
    main(["gen-queries", "-g", str(path), "--percentile", "50", "--count", "4", "--seed", "2", "-o", str(out)])
    pairs = gio.load_pairs(out)
    assert pairs.shape == (4, 2)
    for s, t in pairs.tolist():
        assert t == sp.percentile_target(g, s, 50.0)
    # without --out the pairs go to stdout
    main(["gen-queries", "-g", str(path), "--percentile", "50", "--count", "4", "--seed", "2"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert [tuple(map(int, ln.split())) for ln in lines] == [tuple(p) for p in pairs.tolist()]


def test_gen_batch(tmp_path, capsys):
    g = random_graph(60, 3, 5)
    path = tmp_path / "g.txt"
    gio.save_edge_list(g, path)
    out = tmp_path / "b.txt"
    main(["gen-batch", "-g", str(path), "--pattern", "star", "--size", "5", "--seed", "4", "-o", str(out)])
    pairs = gio.load_pairs(out)
    assert pairs.shape == (4, 2)
    assert len(set(pairs[:, 0].tolist())) == 1
    out2 = tmp_path / "b2.txt"
    main(["gen-batch", "-g", str(path), "--pattern", "star", "--size", "5", "--seed", "4", "-o", str(out2)])
    assert out.read_text() == out2.read_text()


def test_query_fixed_delta(g1_file, capsys):
    main(["query", "-g", g1_file, "--strategy", "et", "--source", "0", "--target", "3", "--delta", "1"])
    (rec,) = _records(capsys)
    assert rec["record"] == "query"
    assert rec["distance"] == "4.0"
    assert rec["strategy"] == "et"
    assert rec["delta"] == "1.0"
    assert rec["min_copies"] == "1"
    assert int(rec["steps"]) >= 1


def test_query_auto_delta(g1_file, capsys):
    main(["query", "-g", g1_file, "--source", "0", "--target", "3"])
    (rec,) = _records(capsys)
    assert rec["distance"] == "4.0"
    policy = sp.default_policy(gio.load_graph(g1_file))
    assert float(rec["delta"]) == policy.delta
    assert int(rec["min_copies"]) == policy.min_copies


def test_query_astar_with_coords(tmp_path, g1_file, capsys):
    coords_path = tmp_path / "c.txt"
    gio.save_coords(np.zeros((4, 2)), "euclidean", coords_path)
    for strategy in ("astar", "bidastar"):
        main(["query", "-g", g1_file, "--strategy", strategy, "--source", "0", "--target", "3",
              "--delta", "2", "--coords", str(coords_path)])
    recs = _records(capsys)
    assert [r["distance"] for r in recs] == ["4.0", "4.0"]


def test_batch_all_algos(tmp_path, g1_file, capsys):
    qfile = tmp_path / "q.txt"
    gio.save_pairs([(0, 1), (1, 2), (2, 3)], qfile)
    for algo in sp.BATCH_ALGOS:
        csv_path = tmp_path / f"{algo}.csv"
        main(["batch", "-g", g1_file, "--algo", algo, "--queries", str(qfile),
              "--delta", "1", "--csv", str(csv_path)])
        recs = _records(capsys)
        pair_recs = [r for r in recs if r["record"] == "batch-pair"]
        (summary,) = [r for r in recs if r["record"] == "batch"]
        assert [r["distance"] for r in pair_recs] == ["1.0", "2.0", "1.0"]
        assert summary["algo"] == algo
        assert summary["pairs"] == "3"
        assert summary["delta"] == "1.0" and summary["min_copies"] == "1"
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # three pairs plus the summary row


def test_batch_run_counts(tmp_path, g1_file, capsys):
    qfile = tmp_path / "q.txt"
    gio.save_pairs([(0, 1), (1, 2), (2, 3)], qfile)
    runs = {}
    for algo in ("multi", "vc", "plain-sssp"):
        main(["batch", "-g", g1_file, "--algo", algo, "--queries", str(qfile), "--delta", "1"])
        (summary,) = [r for r in _records(capsys) if r["record"] == "batch"]
        runs[algo] = int(summary["runs"])
    assert runs == {"multi": 1, "vc": 2, "plain-sssp": 3}


def test_bench_single_pair(tmp_path, g1_file, capsys):
    csv_path = tmp_path / "bench.csv"
    main(["bench", "-g", g1_file, "--mode", "query", "--strategy", "bids",
          "--source", "0", "--target", "3", "--delta", "2", "--warmup", "0",
          "--rounds", "2", "--csv", str(csv_path)])
    (rec,) = _records(capsys)
    assert rec["distances"] == "4.0"
    assert rec["timed_rounds"] == "2"
    assert len(rec["round_times"].split(",")) == 2
    assert float(rec["mean_time"]) > 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["workload"] == "0->3"


def test_bench_auto_is_default_policy(tmp_path, capsys):
    g = random_graph(80, 3, 6)
    path = tmp_path / "g.txt"
    gio.save_edge_list(g, path)
    main(["bench", "-g", str(path), "--percentile", "90", "--count", "2", "--seed", "1",
          "--delta", "auto", "--warmup", "0", "--rounds", "1"])
    recs = _records(capsys)
    assert len(recs) == 2
    want = sp.default_policy(gio.load_graph(path)).delta
    for rec in recs:
        assert rec["requested_delta"] == "auto"
        assert float(rec["delta"]) == want


def test_bench_pattern_batch_mode(tmp_path, capsys):
    g = random_graph(80, 3, 6)
    path = tmp_path / "g.txt"
    gio.save_edge_list(g, path)
    main(["bench", "-g", str(path), "--mode", "batch", "--algo", "multi",
          "--pattern", "star", "--size", "4", "--seed", "1",
          "--delta", "512", "--warmup", "0", "--rounds", "1"])
    (rec,) = _records(capsys)
    assert rec["n_pairs"] == "3"
    pairs = sp.pattern_pairs(g, "star", 4, 1)
    want = [sp.dijkstra(g, s)[t] for s, t in pairs.tolist()]
    assert [float(v) for v in rec["distances"].split(",")] == want


def test_bench_requires_a_workload(g1_file, capsys):
    assert main(["bench", "-g", g1_file]) == 2
    assert "--queries" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("convert", "gen-weights", "components", "gen-queries",
                 "gen-batch", "query", "batch", "bench"):
        assert name in out


def test_module_entry_point():
    import os
    import subprocess
    from pathlib import Path

    # the child imports steppath from the same place as this process
    src = str(Path(sp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "steppath.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "steppath" in proc.stdout
