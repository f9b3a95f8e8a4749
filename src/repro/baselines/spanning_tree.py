"""Spanning-tree-sampling effective resistances (the [2]/[3] family).

The paper's related work cites random-walk / random-spanning-tree methods
(Hayashi et al., IJCAI'16; Peng et al., KDD'21) and notes they "can only
handle unweighted graphs".  This module implements the idea for *weighted*
graphs too, as an optional extra baseline:

* **Wilson's algorithm** samples uniform (weighted) spanning trees by
  loop-erased random walks — exactly proportional to tree weight (one
  tree per connected component, i.e. a spanning forest);
* by the matrix-tree theorem, ``Pr[e ∈ T] = w(e)·R_eff(e)`` — the
  spanning-edge centrality — so averaging edge indicators over sampled
  trees estimates every edge's effective resistance at once.

The estimator is unbiased with variance ``p(1−p)/k``; it is practical for
rough all-edge estimates and serves as an independent cross-check of the
exact engine in tests.  It registers with the engine registry as
``"spanning_tree"`` and reports binomial confidence intervals through the
:class:`~repro.estimators.base.BoundedResistanceEngine` protocol, so the
SLA router can use it as an optional coarse tier for edge-heavy
workloads (non-edge pairs report an infinite half-width
and simply escalate).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.core.engine import register_engine
from repro.estimators.base import (
    BoundedResistanceEngine,
    resistance_floor,
    split_trivial,
    weighted_degrees,
)
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import require

_Z_99 = 2.576  # two-sided 99% normal quantile


def sample_spanning_tree(
    graph: Graph, rng: "np.random.Generator", root: int = 0
) -> np.ndarray:
    """Sample one weighted-uniform spanning forest with Wilson's algorithm.

    Returns the edge indices of the sampled forest (``n − c`` of them for
    ``c`` connected components; a spanning tree when the graph is
    connected).  The graph must be coalesced (unique node pairs), so each
    (node, neighbour) step maps back to a unique edge id.  ``root`` seeds
    the tree of its own component; every other component is rooted at its
    smallest node id (walks never leave their component, so sampling
    stays independent per component).
    """
    n = graph.num_nodes
    adj = graph.adjacency().tocsr()
    # map CSR slots back to edge ids through canonical keys
    lo = np.minimum(graph.heads, graph.tails)
    hi = np.maximum(graph.heads, graph.tails)
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys)
    sorted_keys = keys[order]
    require(
        np.unique(sorted_keys).size == keys.size,
        "graph must be coalesced (no parallel edges) for tree sampling",
    )

    labels, num_components = connected_components(graph)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[root] = True
    if num_components > 1:
        # one root per component (Wilson walks can never cross components)
        first = np.full(num_components, -1, dtype=np.int64)
        for node in range(n - 1, -1, -1):
            first[labels[node]] = node
        first[labels[root]] = root
        in_tree[first] = True
    next_node = -np.ones(n, dtype=np.int64)

    for start in range(n):
        if in_tree[start]:
            continue
        # random walk from `start` until hitting the tree, with loop erasure
        u = start
        while not in_tree[u]:
            begin, end = adj.indptr[u], adj.indptr[u + 1]
            neighbours = adj.indices[begin:end]
            weights = adj.data[begin:end]
            probabilities = weights / weights.sum()
            u_next = int(neighbours[rng.choice(neighbours.shape[0], p=probabilities)])
            next_node[u] = u_next
            u = u_next
        # retrace the loop-erased path and attach it to the tree
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = int(next_node[u])

    # collect the tree edges: every non-root node's final parent pointer
    # (erased-loop pointers were overwritten by the walk that re-attached
    # the node, so surviving pointers all belong to the tree)
    us = np.array(
        [u for u in range(n) if next_node[u] >= 0 and in_tree[u]],
        dtype=np.int64,
    )
    a = np.minimum(us, next_node[us])
    b = np.maximum(us, next_node[us])
    tree_keys = a * np.int64(n) + b
    positions = np.searchsorted(sorted_keys, tree_keys)
    edge_ids = order[positions]
    return np.unique(edge_ids)


@register_engine("spanning_tree", params=("num_trees", "seed"))
class SpanningTreeEffectiveResistance(BoundedResistanceEngine):
    """All-edge effective resistances from sampled spanning trees.

    Parameters
    ----------
    graph:
        Weighted graph; parallel edges are coalesced internally (the
        served :attr:`graph` keeps the caller's object).
    num_trees:
        Number of Wilson samples ``k``; the per-edge standard error is
        ``√(p(1−p)/k) / w(e)``.
    seed:
        RNG seed.
    """

    def __init__(
        self, graph: Graph, num_trees: int = 200, seed: "int | None" = None
    ):
        require(num_trees >= 1, "need at least one tree")
        self.graph = graph
        self.n = graph.num_nodes
        self._coalesced = graph.coalesce()
        self.num_trees = num_trees
        self.timer = Timer()
        labels, _ = connected_components(graph)
        self.component_labels = labels
        self._weighted_degree = weighted_degrees(self._coalesced)
        rng = ensure_rng(seed)
        counts = np.zeros(self._coalesced.num_edges)
        with self.timer.section("tree_sampling"):
            for _ in range(num_trees):
                tree = sample_spanning_tree(self._coalesced, rng)
                counts[tree] += 1.0
        self.edge_frequency = counts / num_trees
        # R(e) = Pr[e in T] / w(e)
        self._edge_resistance = self.edge_frequency / self._coalesced.weights
        n = self.n
        lo = np.minimum(self._coalesced.heads, self._coalesced.tails)
        hi = np.maximum(self._coalesced.heads, self._coalesced.tails)
        keys = lo * np.int64(n) + hi
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]

    def all_edge_resistances(self) -> np.ndarray:
        """Estimated effective resistance of every *coalesced* edge,
        clamped to the cut lower bound (an unsampled edge reports the
        bound instead of an impossible 0)."""
        floor = resistance_floor(
            self._weighted_degree, self._coalesced.heads, self._coalesced.tails
        )
        return np.maximum(self._edge_resistance, floor)

    def _edge_slots(
        self, ps: np.ndarray, qs: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Coalesced edge id for each pair, plus an is-an-edge mask."""
        keys = (
            np.minimum(ps, qs).astype(np.int64) * np.int64(self.n)
            + np.maximum(ps, qs).astype(np.int64)
        )
        positions = np.searchsorted(self._sorted_keys, keys)
        clipped = np.minimum(positions, self._sorted_keys.shape[0] - 1)
        valid = (positions < self._sorted_keys.shape[0]) & (
            self._sorted_keys[clipped] == keys
        )
        return self._key_order[clipped], valid

    def query_pairs(self, pairs: ArrayLike) -> np.ndarray:
        """Estimates for node pairs — beyond the trivial diagonal /
        cross-component cases, only *edges* are supported.

        Non-adjacent same-component pairs raise: tree sampling only
        observes edge indicators (this mirrors the scope of the methods
        in [2], [3]).  Routers wanting a graceful answer use
        :meth:`query_pairs_with_bounds`, which reports an infinite
        half-width instead so such pairs escalate.
        """
        ps, qs, values, _, active = split_trivial(self.component_labels, pairs)
        slots, valid = self._edge_slots(ps[active], qs[active])
        require(
            bool(np.all(valid)),
            "spanning-tree estimator only answers edge queries",
        )
        floor = resistance_floor(self._weighted_degree, ps[active], qs[active])
        values[active] = np.maximum(self._edge_resistance[slots], floor)
        return values

    def query_pairs_with_bounds(
        self, pairs: ArrayLike
    ) -> "tuple[np.ndarray, np.ndarray]":
        ps, qs, values, half_widths, active = split_trivial(
            self.component_labels, pairs
        )
        rows = np.flatnonzero(active)
        if rows.size == 0:
            return values, half_widths
        slots, valid = self._edge_slots(ps[rows], qs[rows])
        floor = resistance_floor(self._weighted_degree, ps[rows], qs[rows])
        estimates = np.maximum(self._edge_resistance[slots], floor)
        frequency = self.edge_frequency[slots]
        # binomial CI; keep p(1-p) off zero so a 0/num_trees or
        # num_trees/num_trees frequency still reports finite uncertainty
        spread = np.maximum(
            frequency * (1.0 - frequency), 1.0 / (4.0 * self.num_trees)
        )
        halves = (
            _Z_99
            * np.sqrt(spread / self.num_trees)
            / self._coalesced.weights[slots]
        )
        # non-edges: the only honest answer is "escalate"
        values[rows] = np.where(valid, estimates, floor)
        half_widths[rows] = np.where(valid, halves, np.inf)
        return values, half_widths

    def query(self, p: int, q: int) -> float:
        """Estimate for one adjacent pair."""
        return float(self.query_pairs([(p, q)])[0])

    def spanning_edge_centrality(self) -> np.ndarray:
        """Direct estimate of ``Pr[e ∈ T]`` (sums to ≈ n − c)."""
        return self.edge_frequency.copy()
