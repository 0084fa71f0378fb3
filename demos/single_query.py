"""Compare the point-to-point strategies on one geometric graph.

Every strategy returns the same distance; they differ in how much of
the graph they settle before they can stop.  The second half sweeps the
step width to show the tradeoff it controls: wide steps mean few
synchronization rounds but more wasted relaxations, narrow steps the
reverse.
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
    g = knn_graph(20_000, 5, seed=1)
    source = 4242
    target = sp.percentile_target(g, source, 95.0)
    truth = sp.dijkstra(g, source)[target]
    print(f"graph: {g.n} vertices, {g.m} arcs")
    print(f"query {source} -> {target}, true distance {truth:.6f}\n")

    print(f"{'strategy':>9}  {'distance':>10}  {'settled':>8}  {'relaxations':>11}  {'steps':>5}")
    for strategy in sp.STRATEGIES:
        a = sp.ppsp(g, source, target, strategy)
        print(f"{strategy:>9}  {a.distance:>10.6f}  {a.settled_copies:>8}  {a.relaxations:>11}  {a.steps:>5}")

    print("\nstep width sweep (bidirectional search):")
    print(f"{'delta':>10}  {'steps':>6}  {'relaxations':>11}")
    for delta in (g.max_weight / 64, g.max_weight / 16, g.max_weight / 4, g.max_weight):
        a = sp.ppsp(g, source, target, "bids", policy=sp.StepPolicy(delta))
        assert a.distance == sp.ppsp(g, source, target, "bids").distance
        print(f"{delta:>10.5f}  {a.steps:>6}  {a.relaxations:>11}")


if __name__ == "__main__":
    main()
