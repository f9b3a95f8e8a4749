"""FM-style boundary refinement of a bisection.

After uncoarsening, the projected bisection is improved with greedy
Fiduccia–Mattheyses-like passes: only boundary nodes are candidates, moves
must respect the balance tolerance, and a pass stops when no positive-gain
move remains.  A small number of passes suffices because the multilevel
pipeline starts each level from a good projected cut.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph


def bisection_gains(graph: Graph, side: np.ndarray) -> np.ndarray:
    """FM gain of moving each node to the other side.

    ``gain(v) = external_weight(v) − internal_weight(v)``: positive when the
    move reduces the cut.
    """
    n = graph.num_nodes
    internal = np.zeros(n)
    external = np.zeros(n)
    same = side[graph.heads] == side[graph.tails]
    np.add.at(internal, graph.heads[same], graph.weights[same])
    np.add.at(internal, graph.tails[same], graph.weights[same])
    np.add.at(external, graph.heads[~same], graph.weights[~same])
    np.add.at(external, graph.tails[~same], graph.weights[~same])
    return external - internal


def refine_bisection(
    graph: Graph,
    side: np.ndarray,
    node_weights: np.ndarray,
    adjacency: sp.csr_matrix,
    balance_tolerance: float = 0.1,
    max_passes: int = 4,
) -> np.ndarray:
    """Greedy FM refinement; returns the improved side assignment.

    Parameters
    ----------
    graph:
        Graph being bisected.
    side:
        Boolean array: current side of each node.
    node_weights:
        Vertex masses (original-node counts when used multilevel).
    adjacency:
        ``graph.adjacency()``, built once by the caller.
    balance_tolerance:
        Each side must keep at least ``(0.5 − tol)`` of the total mass.
    max_passes:
        Upper bound on full passes; each pass locks moved nodes.
    """
    side = side.copy()
    total = float(node_weights.sum())
    low = (0.5 - balance_tolerance) * total

    for _ in range(max_passes):
        gains = bisection_gains(graph, side)
        crossing = side[graph.heads] != side[graph.tails]
        boundary = np.unique(
            np.concatenate([graph.heads[crossing], graph.tails[crossing]])
        )
        if boundary.size == 0:
            break
        heap = [(-gains[v], int(v)) for v in boundary if gains[v] > 0]
        heapq.heapify(heap)
        locked = np.zeros(graph.num_nodes, dtype=bool)
        side_mass = np.array(
            [node_weights[~side].sum(), node_weights[side].sum()]
        )
        moved = 0
        while heap:
            neg_gain, v = heapq.heappop(heap)
            if locked[v] or -neg_gain != gains[v]:
                continue
            source = int(side[v])
            if side_mass[source] - node_weights[v] < low:
                continue  # would unbalance
            # apply the move
            side[v] = not side[v]
            locked[v] = True
            side_mass[source] -= node_weights[v]
            side_mass[1 - source] += node_weights[v]
            moved += 1
            # update neighbour gains incrementally
            start, end = adjacency.indptr[v], adjacency.indptr[v + 1]
            for u, w in zip(adjacency.indices[start:end], adjacency.data[start:end]):
                u = int(u)
                if locked[u]:
                    continue
                # edge (u, v): if now internal it was external and vice versa
                if side[u] == side[v]:
                    gains[u] -= 2.0 * w
                else:
                    gains[u] += 2.0 * w
                if gains[u] > 0:
                    heapq.heappush(heap, (-gains[u], u))
            gains[v] = -gains[v]
        if moved == 0:
            break
    return side
