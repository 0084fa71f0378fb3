"""Show what goal-directed keys cost and what the memo table saves.

A consistent heuristic never breaks correctness, but evaluating it on
every key comparison is wasteful: the same vertices are asked about
again and again as the frontier churns.  An A* search looks a vertex up
when one of its copies is reached or improved, and the memo table
computes each vertex once.  The script also shows the consistency check
and the nonnegative reweighting a consistent potential induces.
"""

import numpy as np
from scipy.spatial import cKDTree

import steppath as sp


def knn_graph(n, k, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dist, idx = cKDTree(pts).query(pts, k=k + 1)
    rows = np.repeat(np.arange(n), k)
    edges = np.column_stack([rows, idx[:, 1:].ravel(), dist[:, 1:].ravel()])
    return sp.build_csr(n, edges, symmetrize=True).with_coords(pts, "euclidean")


def main():
    g = knn_graph(30_000, 5, seed=5)
    source = 11
    target = sp.percentile_target(g, source, 90.0)
    print(f"graph: {g.n} vertices, {g.m} arcs; query {source} -> {target}\n")

    h_target = sp.heuristic_for_graph(g, target)
    sp.check_consistent(g, h_target)
    print(f"straight-line heuristic toward the target (scale {g.coord_scale:.6f}) is consistent on every arc")
    slack = sp.consistency_violation(g, h_target(np.arange(g.n)))
    print(f"worst arc slack: {slack:.3e} (<= 0 means no arc is shortened below zero)\n")

    # lookups happen when a vertex is reached or improved; keys then read
    # the table, and every lookup would be a computation without it
    a = sp.ppsp(g, source, target, "astar")
    lookups, computed = a.extras["heuristic_requests"], a.extras["heuristic_computations"]
    print(f"astar: distance {a.distance:.6f}, {lookups} fill-time lookups, {computed} computations "
          f"({lookups / computed:.1f}x fewer evaluations than uncached lookups)")

    potential = 0.5 * (h_target(np.arange(g.n)) - sp.heuristic_for_graph(g, source)(np.arange(g.n)))
    fwd = sp.induced_arc_weights(g, potential)
    print(f"\naveraged potential reweights arcs into [{fwd.min():.3e}, {fwd.max():.3e}] forward")
    reweighted = sp.build_csr(g.n, np.column_stack([g.arc_sources(), g.targets, fwd]))
    shifted = sp.sssp(reweighted, source)[target]
    plain = sp.ppsp(g, source, target, "bidastar").distance
    print(f"sssp on the reweighted arcs: {shifted:.6f}  =  bidastar {plain:.6f} - potential[s] + potential[t] "
          f"= {plain - potential[source] + potential[target]:.6f}")


if __name__ == "__main__":
    main()
