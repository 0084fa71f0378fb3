import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import steppath.graph


def _no_duplicate_entries(*args, **kwargs):
    """scipy's labelling, refusing a strong pass over duplicate entries.

    scipy's strong-component pass loops forever on the symmetrized doubled
    edge and splits components of multigraphs, so a matrix with duplicate
    (row, column) entries fails here instead of reaching it.
    """
    mat = args[0]
    if kwargs.get("connection") == "strong":
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        cells = rows * mat.shape[0] + mat.indices
        assert np.unique(cells).size == cells.size, "duplicate entries reach the strong pass"
    return connected_components(*args, **kwargs)


@pytest.fixture(autouse=True)
def _labelling_refuses_duplicates(monkeypatch):
    # every test that labels a graph checks the dedupe, so losing it fails
    # the first such test instead of hanging the suite
    monkeypatch.setattr(steppath.graph, "_cc", _no_duplicate_entries)
