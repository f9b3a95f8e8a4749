"""Heavy-edge matching coarsening (the METIS coarsening phase).

Each coarsening level computes a matching that prefers heavy edges (they
should not be cut, so collapsing them early is safe), merges matched pairs
into super-nodes, and accumulates node weights so balance constraints keep
referring to original vertex counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng


@dataclass
class CoarseLevel:
    """One level of the coarsening hierarchy.

    Attributes
    ----------
    graph:
        The coarse graph.
    node_weights:
        Original-vertex mass of each coarse node.
    fine_to_coarse:
        Mapping from the finer level's nodes to this level's nodes.
    """

    graph: Graph
    node_weights: np.ndarray
    fine_to_coarse: np.ndarray

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """The coarse graph's CSR adjacency, built once on first use and
        shared by the matching that coarsens this level further, the
        initial cut and the refinement.  (It is held here, not on the
        :class:`Graph`, whose arrays stay mutable.)"""
        return self.graph.adjacency()


def heavy_edge_matching(
    graph: Graph,
    node_weights: np.ndarray,
    rng: np.random.Generator,
    adjacency: sp.csr_matrix,
) -> np.ndarray:
    """Greedy heavy-edge matching; returns ``match`` with partners or self.

    Nodes are visited in random order; each unmatched node pairs with its
    heaviest unmatched neighbour (strictly heavier wins, so among equal
    weights the first in CSR order, the smallest node id, is kept).
    Isolated or unlucky nodes match themselves.

    The greedy loop is inherently sequential, so it runs on Python lists:
    indexing numpy arrays one scalar at a time cost about 3x as much.
    ``adjacency`` is ``graph.adjacency()``, built once by the caller.
    """
    n = graph.num_nodes
    indptr = adjacency.indptr.tolist()
    indices = adjacency.indices.tolist()
    data = adjacency.data.tolist()
    match = [-1] * n
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        best, best_weight = -1, -1.0
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if match[u] == -1 and u != v and data[k] > best_weight:
                best, best_weight = u, data[k]
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v
    return np.array(match, dtype=np.int64)


def _relabel(match: np.ndarray) -> "tuple[np.ndarray, int]":
    """Coarse id of every fine node and the number of coarse nodes.

    Each matched pair (or self-matched node) is represented by its smaller
    member; coarse ids are handed out in ascending representative order.
    """
    nodes = np.arange(match.size, dtype=np.int64)
    first = match >= nodes
    ids = np.cumsum(first, dtype=np.int64) - 1
    return ids[np.minimum(nodes, match)], int(np.count_nonzero(first))


def coarsen_once(
    graph: Graph,
    node_weights: np.ndarray,
    rng: np.random.Generator,
    adjacency: sp.csr_matrix,
) -> CoarseLevel:
    """Collapse a heavy-edge matching into a coarse graph (``adjacency``
    is ``graph.adjacency()``)."""
    match = heavy_edge_matching(graph, node_weights, rng, adjacency)
    fine_to_coarse, next_id = _relabel(match)

    coarse_weights = np.zeros(next_id)
    np.add.at(coarse_weights, fine_to_coarse, node_weights)

    heads = fine_to_coarse[graph.heads]
    tails = fine_to_coarse[graph.tails]
    keep = heads != tails  # matched pairs' internal edges disappear
    coarse_graph = Graph(next_id, heads[keep], tails[keep], graph.weights[keep]).coalesce()
    if coarse_graph.num_edges == 0 and next_id > 0:
        coarse_graph = Graph(
            next_id, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
        )
    return CoarseLevel(
        graph=coarse_graph, node_weights=coarse_weights, fine_to_coarse=fine_to_coarse
    )


def coarsen_to(
    graph: Graph,
    target_nodes: int,
    adjacency: sp.csr_matrix,
    seed: "int | np.random.Generator | None" = None,
    max_levels: int = 40,
    node_weights: "np.ndarray | None" = None,
) -> "list[CoarseLevel]":
    """Repeatedly coarsen until at most ``target_nodes`` nodes remain.

    ``node_weights`` are the finest-level vertex masses (``None``: all
    ones); every level's ``node_weights`` sums them over its super-nodes.
    ``adjacency`` is ``graph.adjacency()``; each coarser level's comes
    from :attr:`CoarseLevel.adjacency`.
    Stops early when a level shrinks by less than 10% (matching saturated,
    typical for star-like graphs).  Returns the hierarchy finest-first.
    """
    rng = ensure_rng(seed)
    levels: list[CoarseLevel] = []
    current = graph
    weights = np.ones(graph.num_nodes) if node_weights is None else node_weights
    for _ in range(max_levels):
        if current.num_nodes <= target_nodes:
            break
        level = coarsen_once(current, weights, rng, adjacency)
        if level.graph.num_nodes > 0.9 * current.num_nodes:
            break
        levels.append(level)
        current = level.graph
        weights = level.node_weights
        adjacency = level.adjacency
    return levels
