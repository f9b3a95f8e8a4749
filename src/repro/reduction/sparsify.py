"""Spielman–Srivastava effective-resistance sampling (Alg. 1 step 4b).

The classic spectral sparsifier [4]: sample ``q`` edges with replacement
with probabilities ``p_e ∝ w(e)·R(e)`` (the spanning-edge centrality) and
give every sampled copy weight ``w(e) / (q·p_e)``.  With
``q = O(n log n / ε²)`` the sparsifier preserves the Laplacian quadratic
form — and hence port behaviour of the reduced power grid — within ``1±ε``.

Two practical safeguards used by power-grid sparsifiers:

* a spanning tree of the input is always retained (at original weight) so
  the sparsifier never disconnects the block;
* if the sample budget is no smaller than the edge count, the graph is
  returned unchanged (sampling could only add variance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng
from repro.utils.validation import require


@dataclass
class SparsifyResult:
    """Sparsified graph plus bookkeeping."""

    graph: Graph
    num_samples: int
    kept_tree_edges: int


def _spanning_tree_edges(graph: Graph) -> np.ndarray:
    """Edge indices of a maximum-conductance spanning forest.

    Requires a coalesced graph (unique node pairs) — the pipeline always
    coalesces before sparsifying.
    """
    n = graph.num_nodes
    # scipy computes a MINIMUM spanning tree; negate weights for maximum
    weights = sp.coo_matrix(
        (-graph.weights, (graph.heads, graph.tails)), shape=(n, n)
    ).tocsr()
    tree_coo = minimum_spanning_tree(weights).tocoo()
    # recover edge indices through canonical (min, max) keys
    lo = np.minimum(graph.heads, graph.tails)
    hi = np.maximum(graph.heads, graph.tails)
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys)
    tree_keys = (
        np.minimum(tree_coo.row, tree_coo.col).astype(np.int64) * np.int64(n)
        + np.maximum(tree_coo.row, tree_coo.col)
    )
    positions = np.searchsorted(keys[order], tree_keys)
    return order[positions]


def spielman_srivastava_sparsify(
    graph: Graph,
    edge_resistances: np.ndarray,
    sample_factor: float = 8.0,
    num_samples: "int | None" = None,
    keep_spanning_tree: bool = True,
    seed: "int | np.random.Generator | None" = None,
) -> SparsifyResult:
    """Sparsify ``graph`` by effective-resistance importance sampling.

    Parameters
    ----------
    graph:
        Input graph (typically a dense reduced block).
    edge_resistances:
        Effective resistance per edge from any estimator — Alg. 3's
        approximations are the paper's whole point here.
    sample_factor:
        ``q = sample_factor · n · ln n`` samples unless ``num_samples``
        overrides.
    keep_spanning_tree:
        Always retain a maximum-conductance spanning forest.
    """
    m = graph.num_edges
    n = graph.num_nodes
    require(edge_resistances.shape == (m,), "one resistance per edge required")
    rng = ensure_rng(seed)
    if num_samples is None:
        num_samples = int(np.ceil(sample_factor * n * max(np.log(max(n, 2)), 1.0)))

    if m <= num_samples or m <= max(n - 1, 1):
        return SparsifyResult(graph=graph, num_samples=0, kept_tree_edges=0)

    scores = graph.weights * np.maximum(edge_resistances, 0.0)
    total = scores.sum()
    if total <= 0:
        return SparsifyResult(graph=graph, num_samples=0, kept_tree_edges=0)
    probabilities = scores / total

    counts = rng.multinomial(num_samples, probabilities)
    sampled = np.flatnonzero(counts)
    new_weights = (
        graph.weights[sampled]
        * counts[sampled]
        / (num_samples * probabilities[sampled])
    )

    heads = graph.heads[sampled]
    tails = graph.tails[sampled]
    weights = new_weights
    tree_kept = 0
    if keep_spanning_tree:
        tree_edges = _spanning_tree_edges(graph)
        missing = tree_edges[counts[tree_edges] == 0]
        tree_kept = int(missing.size)
        heads = np.concatenate([heads, graph.heads[missing]])
        tails = np.concatenate([tails, graph.tails[missing]])
        weights = np.concatenate([weights, graph.weights[missing]])

    sparsified = Graph(n, heads, tails, weights).coalesce()
    return SparsifyResult(
        graph=sparsified, num_samples=num_samples, kept_tree_edges=tree_kept
    )
