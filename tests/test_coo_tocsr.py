"""The compiled counting sort behind ``build_csr``.

``build_csr`` orders its arcs by source with scipy's private
``scipy.sparse._sparsetools.coo_tocsr``, which must keep the input order
within each row.  These tests pin that contract against a numpy stable
sort.
"""

import numpy as np
import scipy
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import _sparsetools

from steppath.graph import _coo_tocsr


def test_scipy_ships_the_counting_sort():
    assert hasattr(_sparsetools, "coo_tocsr"), (
        f"scipy {scipy.__version__} has no scipy.sparse._sparsetools.coo_tocsr, which build_csr orders its arcs with"
    )


@st.composite
def _arcs(draw):
    n = draw(st.integers(0, 8))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30)) if n else []  # repeats and self-loops
    values = draw(st.lists(st.floats(allow_nan=False), min_size=len(pairs), max_size=len(pairs)))
    index = draw(st.sampled_from([np.int32, np.int64]))
    src, tgt = (np.array([p[i] for p in pairs], dtype=index) for i in (0, 1))
    return n, src, tgt, np.array(values, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(_arcs())
@example((0, np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0)))  # n = 0
@example((4, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)))  # m = 0
@example((5, np.array([3, 1, 3, 3, 1]), np.array([2, 2, 2, 3, 1]), np.arange(5.0)))  # empty rows, repeats, a loop
def test_coo_tocsr_matches_a_stable_argsort(case):
    n, src, tgt, w = case
    m, index = src.size, src.dtype
    offsets, targets, weights = np.empty(n + 1, dtype=index), np.empty(m, dtype=index), np.empty(m)
    _coo_tocsr(n, n, m, src, tgt, w, offsets, targets, weights)
    order = np.argsort(src, kind="stable")
    want_offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    assert offsets.tolist() == want_offsets.tolist()
    assert targets.tolist() == tgt[order].tolist()
    assert weights.tobytes() == w[order].tobytes()
