import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steppath import build_csr, dijkstra, percentile_target
from helpers import bellman_ford, g1, heap_dijkstra, random_graph


def test_g1_distances():
    g = g1()
    assert dijkstra(g, 0).tolist() == [0.0, 1.0, 3.0, 4.0]
    assert dijkstra(g, 3).tolist() == [4.0, 3.0, 1.0, 0.0]


def test_unreachable_is_inf():
    g = build_csr(3, [(0, 1, 1.0)], symmetrize=True)
    d = dijkstra(g, 0)
    assert d[2] == np.inf


def test_source_out_of_range():
    # a fractional or boolean id was once truncated to another vertex:
    # 1.5 and True answered from vertex 1
    for source in (4, -1, 1.5, True, "1", None):
        with pytest.raises(ValueError, match="source"):
            dijkstra(g1(), source)
        with pytest.raises(ValueError, match="source"):
            percentile_target(g1(), source, 50)
    g = random_graph(50, 3, 5)
    with pytest.raises(ValueError, match="source"):
        percentile_target(g, 2.7, 50)  # once ranked from 2, leaving 2 in R
    assert percentile_target(g, 2.0, 50) == percentile_target(g, 2, 50)


def test_matches_bellman_ford_fixpoint():
    for seed in range(20):
        g = random_graph(80, 2.5, seed, hi=50)
        src = seed % g.n
        assert np.array_equal(dijkstra(g, src), bellman_ford(g, src))


@st.composite
def _odd_graph(draw):
    # few arcs over up to 9 vertices: several components, self-loops,
    # parallel arcs and zero weights all show up; sums stay exact
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.25, 7.0])
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=16))
    return n, edges, draw(st.booleans()), draw(vertex)


@settings(max_examples=300, deadline=None)
@given(_odd_graph())
@example((1, [], False, 0))
@example((1, [(0, 0, 0.0), (0, 0, 2.0)], False, 0))
@example((3, [(0, 1, 5.0), (0, 1, 0.0), (1, 2, 1.0)], False, 0))  # zero-weight parallel arc
@example((3, [(0, 1, 4.0), (0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)], True, 2))
@example((4, [(1, 0, 1.0), (2, 3, 0.0)], False, 0))  # directed, nothing reachable
def test_oracle_agrees_with_heap_dijkstra_and_bellman_ford(case):
    # explicit zeros must stay arcs and parallel arcs give their minimum,
    # whatever scipy does with duplicate entries of a CSR matrix
    n, edges, symmetrize, source = case
    g = build_csr(n, edges, symmetrize=symmetrize)
    got = dijkstra(g, source)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got, heap_dijkstra(g, source))
    assert np.array_equal(got, bellman_ford(g, source))


def test_percentile_rank_formula_on_g1():
    g = g1()
    # distances from 0 are [1, 3, 4] over vertices [1, 2, 3]
    assert percentile_target(g, 0, 100) == 3
    assert percentile_target(g, 0, 34) == 2
    assert percentile_target(g, 0, 67) == 3
    assert percentile_target(g, 0, 33) == 1
    assert percentile_target(g, 0, 1) == 1


def test_percentile_tie_breaks_by_id():
    # three spokes at equal distance: the (distance, id) sort orders them 1,2,3
    g = build_csr(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)], symmetrize=True)
    assert percentile_target(g, 0, 1) == 1
    assert percentile_target(g, 0, 34) == 2
    assert percentile_target(g, 0, 67) == 3
    assert percentile_target(g, 0, 100) == 3


def test_percentile_p_validation():
    g = g1()
    with pytest.raises(ValueError):
        percentile_target(g, 0, 0)
    with pytest.raises(ValueError):
        percentile_target(g, 0, 101)


def test_percentile_isolated_source():
    g = build_csr(3, [(0, 1, 1.0)], symmetrize=True)
    with pytest.raises(ValueError):
        percentile_target(g, 2, 50)


def test_percentile_accepts_precomputed_distances():
    g = g1()
    d = bellman_ford(g, 0)
    assert percentile_target(g, 0, 100, distances=d) == percentile_target(g, 0, 100)
    assert percentile_target(g, 0, 34, distances=d) == 2


def _lexsort_target(d, source, p):
    # the docstring's definition: rank the reachable vertices but the source
    # by (distance, id)
    reachable = np.array([v for v in range(d.size) if v != source and np.isfinite(d[v])], dtype=np.int64)
    ranked = reachable[np.lexsort((reachable, d[reachable]))]
    rank = min(max(math.ceil(p / 100.0 * ranked.size) - 1, 0), ranked.size - 1)
    return int(ranked[rank])


def test_percentile_matches_lexsort_ranking():
    rng = np.random.default_rng(0)
    values = np.array([0.0, -0.0, 0.5, 1.0, 1.0, 2.0, 7.25, np.inf, np.inf])
    checked = 0
    for _ in range(300):
        n = int(rng.integers(2, 40))
        d = rng.choice(values, n)
        source = int(rng.integers(0, n))
        d[source] = 0.0
        g = build_csr(n, [])
        for p in (0.001, 1, 50, 90, 100):
            if np.isfinite(np.delete(d, source)).any():
                assert percentile_target(g, source, p, distances=d) == _lexsort_target(d, source, p)
                checked += 1
            else:
                with pytest.raises(ValueError, match="isolated"):
                    percentile_target(g, source, p, distances=d)
    assert checked > 1000
