"""Answer a patterned batch of queries with each batch algorithm.

Batches whose pairs share endpoints reward shared work: the multi-source
bidirectional search answers the whole batch in one engine run, and the
vertex-cover route needs one full SSSP per cover vertex.  The baselines
pay for every pair (or every distinct source) separately.
"""

import numpy as np

import steppath as sp


def random_graph(n, edge_factor, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, edge_factor * n)
    v = rng.integers(0, n, edge_factor * n)
    w = rng.integers(1, 2**18 + 1, edge_factor * n).astype(np.float64)
    keep = u != v
    return sp.build_csr(n, np.column_stack([u[keep], v[keep], w[keep]]), symmetrize=True)


def run(graph, qg, algo):
    if algo == "multi":
        return sp.multi_bids(graph, qg)
    if algo == "vc":
        return sp.vc_sssp_batch(graph, qg)
    return sp.baseline_batch(graph, qg, algo)


def main():
    g = random_graph(50_000, 4, seed=3)
    print(f"graph: {g.n} vertices, {g.m} arcs\n")

    for pattern in sp.PATTERNS:
        pairs = sp.pattern_pairs(g, pattern, 6, seed=17)
        qg = sp.build_query_graph(pairs, g.n)
        cover = sp.exact_vertex_cover(qg)
        print(f"pattern {pattern}: {len(pairs)} pairs over {qg.order} endpoints, cover size {len(cover)}")
        reference = None
        for algo in sp.BATCH_ALGOS:
            ans = run(g, qg, algo)
            if reference is None:
                reference = ans.distances
            assert np.array_equal(ans.distances, reference)
            print(f"  {algo:>10}: {ans.runs:>2} runs, {ans.settled_copies:>8} settled, {ans.relaxations:>9} relaxations")
        print()


if __name__ == "__main__":
    main()
