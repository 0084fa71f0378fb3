import pytest
from scipy.sparse.csgraph import connected_components

import steppath.graph


def _weak_only(*args, **kwargs):
    """scipy's labelling, refusing any strong pass.

    The set-up labels weak components in one pass.  scipy's strong pass
    loops forever on the symmetrized doubled edge and splits components
    of multigraphs, so a return to it fails here instead of hanging the
    suite.
    """
    connection = kwargs.get("connection", args[2] if len(args) > 2 else "weak")
    assert connection != "strong", "the labelling takes scipy's strong pass"
    return connected_components(*args, **kwargs)


@pytest.fixture(autouse=True)
def _labelling_refuses_the_strong_pass(monkeypatch):
    # every test that labels a graph checks the pass, so a return to the
    # strong one fails the first such test instead of hanging the suite
    monkeypatch.setattr(steppath.graph, "_cc", _weak_only)
