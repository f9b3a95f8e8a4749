"""Spanning-edge centrality of a social-network-like graph.

The WWW'15 baseline paper's motivating application: the centrality of an
edge is the probability it appears in a uniformly random spanning tree,
``c(e) = w(e) · R_eff(e)``.  Alg. 3 computes all-edge effective
resistances fast enough to rank every edge of the network.

Run:  python examples/social_network_centrality.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import EngineConfig, barabasi_albert_graph, spanning_edge_centrality
from repro.core.effective_resistance import ExactEffectiveResistance


def main() -> None:
    graph = barabasi_albert_graph(4000, 3, seed=42)
    print(f"social-network proxy: {graph.num_nodes} nodes, {graph.num_edges} edges")

    t0 = time.perf_counter()
    # EngineConfig picks the engine: Alg. 3 ("cholinv") at the paper's
    # epsilon = drop_tol = 1e-3
    centrality = spanning_edge_centrality(
        graph, EngineConfig(method="cholinv", epsilon=1e-3, drop_tol=1e-3)
    )
    print(f"all-edge centrality via Alg. 3: {time.perf_counter() - t0:.2f}s")

    # sanity: exact centralities sum to n - 1 on a connected graph
    print(f"sum of centralities: {centrality.sum():.1f} (exact: {graph.num_nodes - 1})")

    order = np.argsort(centrality)
    print("\nmost critical edges (highest random-spanning-tree probability):")
    for e in order[-5:][::-1]:
        u, v = graph.heads[e], graph.tails[e]
        print(f"  ({u:5d}, {v:5d})  centrality = {centrality[e]:.4f}")

    print("\nmost redundant edges (many parallel paths):")
    for e in order[:5]:
        u, v = graph.heads[e], graph.tails[e]
        print(f"  ({u:5d}, {v:5d})  centrality = {centrality[e]:.4f}")

    # spot-check five random edges against the exact engine
    exact = ExactEffectiveResistance(graph)
    rng = np.random.default_rng(0)
    sample = rng.choice(graph.num_edges, size=5, replace=False)
    pairs = np.column_stack([graph.heads[sample], graph.tails[sample]])
    exact_vals = graph.weights[sample] * exact.query_pairs(pairs)
    print("\nspot check (approx vs exact):")
    for e, truth in zip(sample, exact_vals):
        print(f"  edge {e:6d}: {centrality[e]:.6f} vs {truth:.6f}")


if __name__ == "__main__":
    main()
