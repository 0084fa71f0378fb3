"""Walk through the timing protocol: warmup, then timed rounds.

Timed results come from fixed warmup and round counts, and every record
echoes its whole configuration so a line can be replayed.  The step
width ``auto`` runs the graph's default policy: width max arc weight / 16,
with each step floored at 128 copies.
"""

import numpy as np

import steppath as sp
from steppath.cli import emit


def random_graph(n, edge_factor, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, edge_factor * n)
    v = rng.integers(0, n, edge_factor * n)
    w = rng.integers(1, 2**18 + 1, edge_factor * n).astype(np.float64)
    keep = u != v
    return sp.build_csr(n, np.column_stack([u[keep], v[keep], w[keep]]), symmetrize=True)


def main():
    g = random_graph(100_000, 4, seed=2)
    pairs = sp.percentile_pairs(g, 3, 90.0, seed=8)
    print(f"graph: {g.n} vertices, {g.m} arcs; {len(pairs)} query pairs\n")

    print("timed records (1 warmup + 5 rounds each, mean of the timed rounds):")
    cfg = sp.BenchConfig(mode="query", pairs=pairs, strategy="bids", delta="auto")
    for record in sp.run_bench(g, cfg).records:
        emit(record)


if __name__ == "__main__":
    main()
