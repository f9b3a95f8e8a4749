"""Pairwise resistance-distance matrices and nearest-neighbour queries.

Effective resistance is a metric ("resistance distance"), and graph-ML
applications often need all pairwise distances within a *subset* of nodes
(cluster analysis, landmark embeddings) or the electrically-nearest
neighbours of a node.  Both reduce to Gram matrices of the approximate
inverse columns:

    R(p, q) = ‖z_p − z_q‖² = g_pp + g_qq − 2·g_pq,   G = Z_Sᵀ Z_S

so a subset of ``k`` nodes costs one sparse ``(n × k)`` slice and one
``k × k`` Gram product — no per-pair work.
"""

from __future__ import annotations

import numpy as np

from repro.core.effective_resistance import CholInvEffectiveResistance
from repro.core.engine import EngineConfig, build_engine
from repro.graphs.graph import Graph
from repro.utils.validation import require


def pairwise_resistance_matrix(
    estimator: CholInvEffectiveResistance, nodes
) -> np.ndarray:
    """Dense ``k × k`` resistance-distance matrix for a node subset.

    Parameters
    ----------
    estimator:
        A fitted Alg. 3 estimator.
    nodes:
        Node ids (``k`` of them); the result's ``[i, j]`` entry is
        ``R(nodes[i], nodes[j])``.  Cross-component pairs come out ``inf``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    require(nodes.ndim == 1 and nodes.size >= 1, "nodes must be a 1-D index array")
    cols = estimator._position[nodes]
    block = estimator.z_tilde[:, cols]
    gram = np.asarray((block.T @ block).todense())
    diag = np.diag(gram)
    distances = diag[:, None] + diag[None, :] - 2.0 * gram
    np.maximum(distances, 0.0, out=distances)
    labels = estimator.component_labels[nodes]
    distances[labels[:, None] != labels[None, :]] = np.inf
    np.fill_diagonal(distances, 0.0)
    return distances


def exact_pairwise_resistance_matrix(graph: Graph, nodes) -> np.ndarray:
    """Reference implementation through the exact engine (O(k²) queries)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    est = build_engine(graph, EngineConfig(method="exact"))
    k = nodes.size
    out = np.zeros((k, k))
    pairs = [(int(nodes[i]), int(nodes[j])) for i in range(k) for j in range(i + 1, k)]
    if pairs:
        values = est.query_pairs(np.asarray(pairs))
        idx = 0
        for i in range(k):
            for j in range(i + 1, k):
                out[i, j] = out[j, i] = values[idx]
                idx += 1
    return out


def electrically_nearest_neighbours(
    estimator: CholInvEffectiveResistance,
    node: int,
    candidates,
    k: int = 5,
) -> "tuple[np.ndarray, np.ndarray]":
    """The ``k`` candidates with smallest effective resistance to ``node``.

    Returns ``(neighbour_ids, resistances)`` sorted ascending.  This is the
    vertex-similarity application from the paper's introduction: small
    effective resistance ⇔ strongly connected (many short, heavy paths).
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    require(candidates.size >= 1, "need at least one candidate")
    pairs = np.column_stack([np.full(candidates.size, node, dtype=np.int64), candidates])
    distances = estimator.query_pairs(pairs)
    k = min(k, candidates.size)
    order = np.argsort(distances, kind="stable")[:k]
    return candidates[order], distances[order]
