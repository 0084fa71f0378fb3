"""Seed-deterministic query workload generators.

Both generators sample from the largest connected component so the
produced pairs are answerable, and both are pure functions of
(graph, parameters, seed) via a PCG64 generator.
"""

from __future__ import annotations

import numpy as np

from .graph import CsrGraph, largest_component
from .oracle import percentile_target

PATTERNS = ("star", "chain", "clique", "bipartite", "fork", "random", "separate")


def _component_sample(graph: CsrGraph, count: int, rng) -> np.ndarray:
    info = largest_component(graph)
    members = info.members(info.largest)
    if members.size < count:
        raise ValueError(
            f"largest component has {members.size} vertices, need {count}"
        )
    return rng.choice(members, size=count, replace=False)


def percentile_pairs(graph: CsrGraph, count: int, percentile: float, seed: int) -> np.ndarray:
    """``count`` pairs whose targets sit at the given distance percentile.

    Sources are drawn from the largest component; each target is ranked
    by :func:`~steppath.oracle.percentile_target` on the reference
    :func:`~steppath.oracle.dijkstra`, so the code under test does not
    choose its own queries.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    info = largest_component(graph)
    members = info.members(info.largest)
    if members.size < 2:
        raise ValueError("largest component is a single vertex; no targets exist")
    sources = rng.choice(members, size=count, replace=count > members.size)
    pairs = np.empty((count, 2), dtype=np.int64)
    for k, s in enumerate(sources):
        pairs[k] = (s, percentile_target(graph, int(s), percentile))
    return pairs


def pattern_pairs(graph: CsrGraph, pattern: str, size: int, seed: int) -> np.ndarray:
    """Query pairs in a named shape over ``size`` sampled vertices.

    star: one center joined to every other vertex.
    chain: a path through all vertices.
    clique: every unordered pair.
    bipartite: all pairs across a ceil/floor split.
    fork: a chain over the first size-2 vertices with the last two
        attached as leaves of the chain's middle vertex.
    random: ``size`` distinct non-loop pairs.
    separate: floor(size/2) disjoint pairs.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}, got {pattern!r}")
    if size < 2:
        raise ValueError("pattern size must be at least 2")
    if pattern == "fork" and size < 4:
        raise ValueError("fork needs at least 4 vertices (a chain plus two leaves)")
    rng = np.random.default_rng(seed)
    ids = _component_sample(graph, size, rng)

    if pattern == "star":
        pairs = [(ids[0], ids[k]) for k in range(1, size)]
    elif pattern == "chain":
        pairs = [(ids[k], ids[k + 1]) for k in range(size - 1)]
    elif pattern == "clique":
        pairs = [(ids[a], ids[b]) for a in range(size) for b in range(a + 1, size)]
    elif pattern == "bipartite":
        split = (size + 1) // 2
        pairs = [(ids[a], ids[b]) for a in range(split) for b in range(split, size)]
    elif pattern == "fork":
        chain = ids[: size - 2]
        anchor = chain[(size - 2) // 2]
        pairs = [(chain[k], chain[k + 1]) for k in range(size - 3)]
        pairs += [(anchor, ids[size - 2]), (anchor, ids[size - 1])]
    elif pattern == "random":
        all_pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
        picks = rng.choice(len(all_pairs), size=min(size, len(all_pairs)), replace=False)
        pairs = [(ids[all_pairs[p][0]], ids[all_pairs[p][1]]) for p in picks]
    else:  # separate
        pairs = [(ids[2 * k], ids[2 * k + 1]) for k in range(size // 2)]
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
