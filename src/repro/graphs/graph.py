"""Core weighted undirected graph container.

The paper works with ``G = (V, E, w)`` — a weighted undirected graph with a
positive weight function.  :class:`Graph` stores the edge list in three flat
numpy arrays (``heads``, ``tails``, ``weights``) which maps directly onto the
incidence-matrix formulation of Section II-A and keeps every downstream
operation vectorised.

Design notes
------------
* Nodes are the integers ``0 .. n-1``.  Named nodes (e.g. power-grid node
  names like ``n1_20706300_9521100``) are handled one level up by
  :mod:`repro.powergrid.netlist`, which keeps a name ↔ index mapping.
* Parallel edges are allowed at construction and merged on demand by
  :meth:`Graph.coalesce` (their conductances add, exactly like parallel
  resistors).
* Self loops are rejected: they contribute nothing to a Laplacian and are
  meaningless for effective resistance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import require


@dataclass(frozen=True)
class Graph:
    """A weighted undirected graph stored as flat edge arrays.

    Parameters
    ----------
    num_nodes:
        Number of vertices ``n``; nodes are ``0 .. n-1``.
    heads, tails:
        Integer arrays of shape ``(m,)`` with the endpoints of each edge.
    weights:
        Positive float array of shape ``(m,)``; ``weights[e]`` is ``w(e)``.
        For electrical networks the weight is a *conductance* (1/resistance).
    """

    num_nodes: int
    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        heads = np.asarray(self.heads, dtype=np.int64)
        tails = np.asarray(self.tails, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "weights", weights)
        require(self.num_nodes >= 1, "graph needs at least one node")
        require(
            heads.shape == tails.shape == weights.shape,
            "heads, tails and weights must have identical shapes",
        )
        if heads.size:
            require(int(heads.min()) >= 0 and int(tails.min()) >= 0, "negative node id")
            require(
                int(max(heads.max(), tails.max())) < self.num_nodes,
                "edge endpoint out of range",
            )
            require(not np.any(heads == tails), "self loops are not allowed")
            finite = np.isfinite(weights)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise ValueError(
                    f"edge weights must be finite, got {weights[bad]} on edge "
                    f"{bad} ({int(heads[bad])}, {int(tails[bad])})"
                )
            require(bool(np.all(weights > 0)), "edge weights must be strictly positive")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: "np.ndarray | list[tuple[int, int]] | list[tuple[int, int, float]]",
        weights: "np.ndarray | None" = None,
    ) -> "Graph":
        """Build a graph from an edge list.

        ``edges`` may be ``(u, v)`` pairs with a separate ``weights`` array,
        or ``(u, v, w)`` triples.  Unweighted edges default to weight 1.
        """
        arr = np.asarray(edges, dtype=np.float64)
        if arr.size == 0:
            empty = np.empty(0)
            return cls(num_nodes, empty.astype(np.int64), empty.astype(np.int64), empty)
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise ValueError("edges must be (u, v) pairs or (u, v, w) triples")
        heads = arr[:, 0].astype(np.int64)
        tails = arr[:, 1].astype(np.int64)
        if arr.shape[1] == 3:
            require(weights is None, "pass weights either inline or separately, not both")
            w = arr[:, 2]
        elif weights is not None:
            w = np.asarray(weights, dtype=np.float64)
        else:
            w = np.ones(heads.shape[0])
        return cls(num_nodes, heads, tails, w)

    @classmethod
    def from_sparse_adjacency(cls, adjacency: sp.spmatrix) -> "Graph":
        """Build a graph from a symmetric sparse adjacency matrix.

        Only the strictly-upper triangle is read so each undirected edge is
        taken once; the diagonal is ignored.
        """
        coo = sp.triu(sp.coo_matrix(adjacency), k=1).tocoo()
        return cls(adjacency.shape[0], coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data)

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Convert a ``networkx`` graph (nodes relabelled to 0..n-1)."""
        import networkx as nx

        relabelled = nx.convert_node_labels_to_integers(nx_graph)
        n = relabelled.number_of_nodes()
        heads, tails, weights = [], [], []
        for u, v, data in relabelled.edges(data=True):
            if u == v:
                continue
            heads.append(u)
            tails.append(v)
            weights.append(float(data.get("weight", 1.0)))
        return cls(
            n,
            np.asarray(heads, dtype=np.int64),
            np.asarray(tails, dtype=np.int64),
            np.asarray(weights, dtype=np.float64),
        )

    @classmethod
    def disjoint_union(cls, graphs) -> "Graph":
        """Concatenate graphs into one with ``k`` (or more) components.

        Node ids of each input are offset by the node counts of the
        graphs before it, so the result's components are exactly the
        inputs' components side by side — the standard way to build
        multi-component serving/sharding test beds.
        """
        graphs = list(graphs)
        require(len(graphs) >= 1, "disjoint_union needs at least one graph")
        offsets = np.concatenate(
            [[0], np.cumsum([g.num_nodes for g in graphs])]
        )
        heads = np.concatenate(
            [g.heads + offsets[i] for i, g in enumerate(graphs)]
        )
        tails = np.concatenate(
            [g.tails + offsets[i] for i, g in enumerate(graphs)]
        )
        weights = np.concatenate([g.weights for g in graphs])
        return cls(int(offsets[-1]), heads, tails, weights)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of (possibly parallel) edges ``m``."""
        return int(self.heads.shape[0])

    def edge_array(self) -> np.ndarray:
        """Return edges as an ``(m, 2)`` int array of ``(head, tail)`` rows."""
        return np.column_stack([self.heads, self.tails])

    def node_pair_keys(self) -> np.ndarray:
        """Sorted distinct keys ``min·n + max`` of the node pairs joined by
        an edge.

        Two graphs with equal keys (and node counts) have the same
        Laplacian sparsity pattern, whatever their edge order, edge
        orientation, parallel duplicates or weights.
        """
        lo = np.minimum(self.heads, self.tails)
        hi = np.maximum(self.heads, self.tails)
        return np.unique(lo * np.int64(self.num_nodes) + hi)

    def degrees(self) -> np.ndarray:
        """Weighted degree (total incident conductance) of every node."""
        deg = np.zeros(self.num_nodes)
        np.add.at(deg, self.heads, self.weights)
        np.add.at(deg, self.tails, self.weights)
        return deg

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency matrix in CSR form."""
        m = self.num_edges
        rows = np.concatenate([self.heads, self.tails])
        cols = np.concatenate([self.tails, self.heads])
        data = np.concatenate([self.weights, self.weights])
        adj = sp.coo_matrix((data, (rows, cols)), shape=(self.num_nodes, self.num_nodes))
        del m
        return adj.tocsr()

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` with ``weight`` edge attributes."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(self.num_nodes))
        for u, v, w in zip(self.heads, self.tails, self.weights):
            if nx_graph.has_edge(int(u), int(v)):
                nx_graph[int(u)][int(v)]["weight"] += float(w)
            else:
                nx_graph.add_edge(int(u), int(v), weight=float(w))
        return nx_graph

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def coalesce(self) -> "Graph":
        """Merge parallel edges by summing weights (parallel conductances add).

        Edges are canonicalised to ``head < tail`` and sorted, so the result
        is a unique normal form used by equality-sensitive code paths
        (e.g. sparsification keeps at most one edge per node pair).
        """
        if self.num_edges == 0:
            return self
        lo = np.minimum(self.heads, self.tails)
        hi = np.maximum(self.heads, self.tails)
        key = lo * np.int64(self.num_nodes) + hi
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        unique_key, inverse = np.unique(key_sorted, return_inverse=True)
        summed = np.zeros(unique_key.shape[0])
        np.add.at(summed, inverse, self.weights[order])
        new_lo = (unique_key // self.num_nodes).astype(np.int64)
        new_hi = (unique_key % self.num_nodes).astype(np.int64)
        return Graph(self.num_nodes, new_lo, new_hi, summed)

    def subgraph(self, nodes: np.ndarray) -> "tuple[Graph, np.ndarray]":
        """Induced subgraph on ``nodes``.

        Returns the subgraph (nodes renumbered ``0..len(nodes)-1`` in the
        order given) and the original node ids so callers can map back.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        lookup = -np.ones(self.num_nodes, dtype=np.int64)
        lookup[nodes] = np.arange(nodes.shape[0])
        mask = (lookup[self.heads] >= 0) & (lookup[self.tails] >= 0)
        sub = Graph(
            int(nodes.shape[0]),
            lookup[self.heads[mask]],
            lookup[self.tails[mask]],
            self.weights[mask],
        )
        return sub, nodes

    def with_weights(self, weights: np.ndarray) -> "Graph":
        """Copy of the graph with the same topology but new edge weights."""
        return Graph(self.num_nodes, self.heads, self.tails, weights)

    def reverse_resistances(self) -> np.ndarray:
        """Edge resistances ``1 / w(e)`` (weights are conductances)."""
        return 1.0 / self.weights

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self.weights.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
