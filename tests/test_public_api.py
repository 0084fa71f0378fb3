"""The public surface: exported names, parameters, fields and CLI flags."""

import dataclasses
import inspect

import pytest

import steppath as sp
from steppath.batch import BatchAnswer, QueryGraph
from steppath.bench import BenchConfig
from steppath.cli import _build_parser
from steppath.graph import ComponentInfo, CsrGraph
from steppath.heuristics import MemoTable
from steppath.ppsp import AstarSearch, BidAstarSearch


def test_all_is_sorted_unique_and_resolves():
    assert sp.__all__ == sorted(set(sp.__all__))
    assert len(sp.__all__) == 41
    assert "save_graph" in sp.__all__
    for name in sp.__all__:
        assert getattr(sp, name) is not None, name


@pytest.mark.parametrize("name", ["INF", "Frontier", "MemoTable", "great_circle", "coord_length"])
def test_internal_names_not_exported(name):
    assert name not in sp.__all__


# per-format file functions: load_graph and save_graph are the exported pair
_FORMAT_IO = ["load_binary", "load_edge_list", "save_binary", "save_edge_list"]


@pytest.mark.parametrize(
    "name",
    [
        "EARTH_RADIUS_KM",
        "euclidean_heuristic",
        "spherical_heuristic",
        "great_circle",
        "make_bidirectional_heuristics",
        "zero_heuristic",
        "mirror_closed",
        *_FORMAT_IO,
    ],
)
def test_removed_names(name):
    assert not hasattr(sp, name)
    if name not in _FORMAT_IO:  # those stay in steppath.io
        assert not hasattr(sp.heuristics, name) and not hasattr(sp.graph, name)


@pytest.mark.parametrize(
    "fn, param",
    [
        (sp.ppsp, "memoize"),
        (AstarSearch, "memoize"),
        (BidAstarSearch, "memoize"),
        (MemoTable, "enabled"),
        (sp.multi_bids, "cell_cap"),
        (sp.check_consistent, "tol"),
        (sp.ppsp, "radius"),
        (sp.heuristic_for_graph, "radius"),
    ],
)
def test_removed_parameters(fn, param):
    assert param not in inspect.signature(fn).parameters


@pytest.mark.parametrize(
    "cls, name",
    [
        (BenchConfig, "label"),
        (BenchConfig, "radius"),
        (BatchAnswer, "extras"),
        (QueryGraph, "q_offsets"),
        (QueryGraph, "q_neighbors"),
        (QueryGraph, "q_edges"),
    ],
)
def test_removed_fields(cls, name):
    assert name not in {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("cls, name", [(CsrGraph, "neighbors"), (ComponentInfo, "sizes")])
def test_removed_methods(cls, name):
    assert not hasattr(cls, name)


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "-g", "g.txt", "--out", "g.bin", "--to", "binary"],
        ["batch", "-g", "g.txt", "--queries", "q.txt", "--coords", "c.txt"],
        ["query", "-g", "g.txt", "--source", "0", "--target", "1", "--radius", "3958.8"],
        ["bench", "-g", "g.txt", "--radius", "3958.8"],
    ],
    ids=["convert--to", "batch--coords", "query--radius", "bench--radius"],
)
def test_cli_rejects_removed_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
