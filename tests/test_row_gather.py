"""The compiled row gather behind relaxation, and the checks that guard it.

The engine copies each step's arcs with scipy's private
``scipy.sparse._sparsetools.csr_row_index``, which reads without bounds
checks.  These tests pin that kernel's contract, the refusal of malformed
adjacency when a graph is made, long before it could reach the kernel,
and the work counters of a fixed set of searches.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.sparse import _sparsetools

import steppath as sp
from steppath.batch import MultiBidsSearch, QueryGraph, _run_batch
from steppath.engine import _gather_rows
from steppath.graph import CsrGraph
from helpers import geometric_graph, random_graph, zero_heuristic


def test_scipy_ships_the_row_kernel():
    assert hasattr(_sparsetools, "csr_row_index"), (
        f"scipy {scipy.__version__} has no scipy.sparse._sparsetools.csr_row_index, "
        "which the engine gathers each step's arcs with"
    )


@st.composite
def _csr_and_rows(draw):
    n = draw(st.integers(0, 8))
    degrees = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))  # zeros give empty rows
    m = sum(degrees)
    cols = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m))
    values = draw(st.lists(st.integers(-(2**40), 2**40), min_size=m, max_size=m))
    rows = draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else []  # repeated, unsorted, or none
    index = draw(st.sampled_from([np.int32, np.int64]))
    data = draw(st.sampled_from([np.float64, np.int64]))
    offsets = np.zeros(n + 1, dtype=index)
    np.cumsum(degrees, out=offsets[1:])
    view = (offsets, np.array(cols, dtype=index), np.array(values, dtype=data))
    return view, np.array(rows, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_csr_and_rows())
def test_gather_rows_matches_concatenated_slices(case):
    (offsets, cols, data), rows = case
    lengths = np.diff(offsets).astype(np.int64)  # as CsrGraph._row_lengths holds them
    got_cols, got_data, deg = _gather_rows((offsets, cols, data), rows, lengths)
    spans = [slice(offsets[r], offsets[r + 1]) for r in rows]
    want_cols = np.concatenate([cols[s] for s in spans] + [cols[:0]])
    want_data = np.concatenate([data[s] for s in spans] + [data[:0]])
    assert got_cols.dtype == cols.dtype and got_data.dtype == data.dtype
    assert got_cols.tolist() == want_cols.tolist()
    assert got_data.tolist() == want_data.tolist()
    assert deg.tolist() == [s.stop - s.start for s in spans]


def test_row_view_types():
    offsets = np.array([0, 2, 3], dtype=np.uint64)
    g = CsrGraph(2, offsets, np.array([1, 0, 0]), np.array([1, 2, 3]))
    view_offsets, cols, data = g._rows
    assert view_offsets.dtype == cols.dtype == np.int32 and data.dtype == np.float64
    assert view_offsets is not offsets and view_offsets.tolist() == [0, 2, 3]
    # arrays already in their types are used as they are
    targets, weights = np.array([1, 0, 0], dtype=np.int32), np.array([1.0, 2.0, 3.0])
    _, cols, data = CsrGraph(2, offsets, targets, weights)._rows
    assert cols is targets and data is weights


def _path():
    """The path 0-1-2 built by hand: arcs 0<->1 weigh 1, arcs 1<->2 weigh 2."""
    return CsrGraph(3, np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1], dtype=np.int32), np.array([1.0, 1.0, 2.0, 2.0]))


# fields that break the path's CSR rule, one case each
MALFORMED = {
    "decreasing": {"offsets": np.array([0, 3, 1, 4])},
    "last offset is not m": {"offsets": np.array([0, 1, 3, 3])},
    "short offsets": {"offsets": np.array([0, 1, 4])},
    "offsets past m": {"offsets": np.array([0, 1, 3, 5])},
    "nonzero start": {"offsets": np.array([1, 1, 3, 4])},
    "float offsets": {"offsets": np.array([0.0, 1.0, 3.0, 4.0])},
    "target out of range": {"targets": np.array([1, 0, 3, 1], dtype=np.int32)},
    "negative target": {"targets": np.array([1, 0, -1, 1], dtype=np.int32)},
    "list targets": {"targets": [1, 0, 2, 1]},
    "weights too short": {"weights": np.array([1.0, 1.0, 2.0])},
    # a negative weight once kept every search stepping for ever; NaN got
    # wrong answers or a symmetry complaint, and infinity a step-width one
    "negative weight": {"weights": np.array([-1.0, -1.0, 2.0, 2.0])},
    "NaN weight": {"weights": np.array([np.nan, np.nan, 2.0, 2.0])},
    "infinite weight": {"weights": np.array([np.inf, np.inf, 2.0, 2.0])},
    "string weights": {"weights": np.array(["1", "1", "2", "2"])},
    # a float n once failed later with a numpy TypeError, and True was taken for 1
    "n=2.0": {"n": 2.0},
    "n=True": {"n": True},
    "n=-1": {"n": -1},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_graph_is_refused_before_the_kernel(name):
    good, bad = _path(), MALFORMED[name]
    fields = {f: getattr(good, f) for f in ("n", "offsets", "targets", "weights")}
    with pytest.raises(ValueError, match="^graph: "):
        CsrGraph(**{**fields, **bad})
    with pytest.raises(ValueError, match="^graph: "):
        replace(good, **bad)
    # the path itself is well formed, with a numpy integer n as with an int
    assert sp.sssp(good, 0).tolist() == sp.sssp(replace(good, n=np.int64(3)), 0).tolist() == [0.0, 1.0, 3.0]


def test_int64_targets_answer_as_the_int32_twin():
    g = random_graph(400, 3, 5)
    wide = CsrGraph(g.n, g.offsets, g.targets.astype(np.int64), g.weights)
    assert wide.targets.dtype == np.int64
    assert sp.sssp(wide, 3, return_stats=True)[0].tolist() == sp.sssp(g, 3).tolist()
    assert sp.sssp(wide, 3, return_stats=True)[1] == sp.sssp(g, 3, return_stats=True)[1]
    for strategy in ("et", "bids"):
        assert sp.ppsp(wide, 3, 250, strategy) == sp.ppsp(g, 3, 250, strategy)
    qg = sp.build_query_graph([(1, 2), (3, 300), (250, 7)], g.n)
    want, got = sp.multi_bids(g, qg), sp.multi_bids(wide, qg)
    assert got.distances.tolist() == want.distances.tolist()
    assert (got.steps, got.relaxations, got.settled_copies) == (want.steps, want.relaxations, want.settled_copies)


def _int64(rows):
    return np.array(rows, dtype=np.int64)


def test_malformed_query_graph_is_refused():
    # the path 0-1-2-3; some of these once answered a wrong distance
    # (duplicate endpoint, edge (i, i), negative edge id) or raised IndexError
    g = sp.build_csr(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], symmetrize=True)
    qg = sp.build_query_graph([(0, 1), (1, 2), (3, 0)], g.n)
    assert qg.edges.tolist() == [[0, 1], [0, 3], [1, 2]] and qg.pair_edge.tolist() == [0, 2, 1]
    bad = {
        "duplicate endpoint": {"endpoints": _int64([0, 1, 3, 3])},
        "unsorted endpoints": {"endpoints": _int64([1, 0, 2, 3])},
        "negative endpoint": {"endpoints": _int64([-1, 1, 2, 3])},
        "int32 endpoints": {"endpoints": qg.endpoints.astype(np.int32)},
        "float edges": {"edges": qg.edges.astype(np.float64)},
        "edge (i, i)": {"edges": _int64([[0, 0], [0, 3], [1, 2]])},
        "negative edge id": {"edges": qg.edges - 2},
        "edge id past the order": {"edges": _int64([[0, 1], [0, 4], [1, 2]])},
        "pair edge -2": {"pair_edge": _int64([0, -2, 1])},
        "pair edge E": {"pair_edge": _int64([0, 3, 1])},
    }
    fields = {"endpoints": qg.endpoints, "edges": qg.edges, "pair_edge": qg.pair_edge}
    for name, change in bad.items():
        for make in (lambda: QueryGraph(**{**fields, **change}), lambda: replace(qg, **change)):
            with pytest.raises(ValueError, match="^query graph: "):
                make()
    for algo in sp.BATCH_ALGOS:
        assert _run_batch(g, qg, algo, None).distances.tolist() == [1.0, 1.0, 3.0]
    # whether the endpoints lie in the graph is checked by every batch
    # algorithm, with edges or without, and by the joint search itself
    for q in (replace(qg, endpoints=_int64([0, 1, 2, 4])), sp.build_query_graph([(4, 4)])):
        calls = [lambda algo=algo: _run_batch(g, q, algo, None) for algo in sp.BATCH_ALGOS]
        for call in calls + [lambda: MultiBidsSearch(g, q)]:
            with pytest.raises(ValueError, match="^query graph: endpoint 4 out of range for 4 vertices"):
                call()


# answers and (steps, relaxations, settled copies), recorded before the
# engine gathered arcs with the compiled kernel; sssp answers are the
# first 16 hex digits of the sha256 of the little-endian distances
PINNED = {
    ("random", "sssp"): ("c642a8f4da8e722d", 22, 25191, 3000),
    ("random", "et"): (269620.0, 21, 17344, 1882),
    ("random", "bids"): (269620.0, 10, 970, 105),
    ("random", "multi"): ([257468.0, 242762.0, 242762.0, 250975.0, 288979.0, 0.0, 354273.0, 258110.0], 11, 7258, 796),
    ("random", "plain-bids"): (
        [257468.0, 242762.0, 242762.0, 250975.0, 288979.0, 0.0, 354273.0, 258110.0],
        56,
        9855,
        1074,
    ),
    ("geometric", "sssp"): ("29e8fdafb0da0f25", 50, 23723, 3000),
    ("geometric", "et"): (0.8253503133499207, 45, 17965, 2075),
    ("geometric", "bids"): (0.8253503133499207, 28, 14059, 1823),
    ("geometric", "astar"): (0.8253503133499207, 39, 12427, 766),
    ("geometric", "bidastar"): (0.8253503133499207, 22, 6882, 664),
    ("geometric", "multi"): (
        [
            0.21126716223449926,
            0.751368324954975,
            0.751368324954975,
            0.31212876487797225,
            0.8810357661834052,
            0.0,
            0.2710844633186057,
            0.2882030120805774,
        ],
        34,
        32602,
        4346,
    ),
    ("geometric", "plain-bids"): (
        [
            0.21126716223449926,
            0.751368324954975,
            0.751368324954975,
            0.31212876487797225,
            0.8810357661834052,
            0.0,
            0.2710844633186057,
            0.2882030120805774,
        ],
        85,
        35373,
        4543,
    ),
}
PIN_PAIRS = [(1, 2), (3, 400), (400, 3), (17, 2999), (2500, 17), (9, 9), (1200, 800), (5, 2000)]


def test_answers_and_counters_stay_pinned():
    graphs = {"random": random_graph(3_000, 4, 11), "geometric": geometric_graph(3_000, 6, 12)}
    got = {}
    for name, g in graphs.items():
        dist, stats = sp.sssp(g, 7, return_stats=True)
        digest = hashlib.sha256(dist.astype("<f8").tobytes()).hexdigest()[:16]
        got[name, "sssp"] = (digest, stats.steps, stats.relaxations, stats.settled_copies)
        strategies = ("et", "bids", "astar", "bidastar") if g.coords is not None else ("et", "bids")
        for strategy in strategies:
            a = sp.ppsp(g, 5, g.n - 9, strategy)
            got[name, strategy] = (a.distance, a.steps, a.relaxations, a.settled_copies)
        qg = sp.build_query_graph(PIN_PAIRS, g.n)
        for algo, b in (("multi", sp.multi_bids(g, qg)), ("plain-bids", sp.baseline_batch(g, qg, "plain-bids"))):
            got[name, algo] = (b.distances.tolist(), b.steps, b.relaxations, b.settled_copies)
    assert got == PINNED


# (heuristic requests, heuristic computations) of the A* queries on the
# geometric graph above: (5, n - 9), then PIN_PAIRS without the self-pair
PINNED_MEMO = {
    "astar": [(2151, 879), (447, 371), (2157, 1110), (2157, 1085), (819, 568), (2214, 1155), (618, 471), (527, 332)],
    "bidastar": [(1286, 804), (229, 189), (1378, 859), (1378, 859), (561, 464), (1344, 880), (382, 317), (375, 317)],
}


def test_astar_memo_counters_stay_pinned():
    g = geometric_graph(3_000, 6, 12)
    pairs = [(5, g.n - 9)] + [(s, t) for s, t in PIN_PAIRS if s != t]
    got = {}
    for strategy in PINNED_MEMO:
        answers = [sp.ppsp(g, s, t, strategy) for s, t in pairs]
        got[strategy] = [(a.extras["heuristic_requests"], a.extras["heuristic_computations"]) for a in answers]
    assert got == PINNED_MEMO
