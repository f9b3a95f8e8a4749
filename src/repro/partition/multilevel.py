"""Multilevel k-way partitioning by recursive bisection (METIS substitute).

Pipeline per bisection:

1. **coarsen** with heavy-edge matching until ≲ 160 super-nodes;
2. **initial cut** on the coarsest graph by weighted BFS region growing from
   a pseudo-peripheral seed (robust on disconnected coarse graphs, where a
   spectral cut would need per-component handling);
3. **uncoarsen** and apply FM boundary refinement at every level.

K-way partitions come from recursive bisection with proportional target
masses, so any ``k`` (not only powers of two) is supported — Alg. 1 sets
``k = #ports / 50`` which is rarely a power of two.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.graph import Graph
from repro.partition.coarsen import coarsen_to
from repro.partition.refine import refine_bisection
from repro.utils.rng import ensure_rng
from repro.utils.validation import require


def _bfs_grow_initial(
    graph: Graph, node_weights: np.ndarray, target_mass: float, rng: np.random.Generator
) -> np.ndarray:
    """Grow one side by weighted BFS until it holds ``target_mass``.

    The growth starts at a pseudo-peripheral node and pops a
    ``collections.deque`` in FIFO order.  When a component is exhausted
    before the target is reached, it restarts at the smallest unvisited
    node, found by a pointer that only moves forward.  The walk runs on
    Python lists, like :func:`repro.partition.coarsen.heavy_edge_matching`.
    """
    n = graph.num_nodes
    side = np.zeros(n, dtype=bool)
    if n == 0:
        return side
    adj = graph.adjacency().tocsr()
    indptr = adj.indptr.tolist()
    indices = adj.indices.tolist()
    weights = node_weights.tolist()
    # pseudo-peripheral start: BFS twice from a random node
    start = int(rng.integers(n))
    for _ in range(2):
        frontier = [start]
        seen = {start}
        last = start
        while frontier:
            nxt = []
            for v in frontier:
                last = v
                for u in indices[indptr[v] : indptr[v + 1]]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        start = last

    visited = [False] * n
    mass = 0.0
    queue = deque([start])
    visited[start] = True
    unvisited = 0  # every node below this index is visited
    while queue and mass < target_mass:
        v = queue.popleft()
        side[v] = True
        mass += weights[v]
        for u in indices[indptr[v] : indptr[v + 1]]:
            if not visited[u]:
                visited[u] = True
                queue.append(u)
        if not queue and mass < target_mass:
            while unvisited < n and visited[unvisited]:
                unvisited += 1
            if unvisited == n:
                break
            visited[unvisited] = True
            queue.append(unvisited)
    return side


def multilevel_bisection(
    graph: Graph,
    node_weights: "np.ndarray | None" = None,
    target_fraction: float = 0.5,
    balance_tolerance: float = 0.1,
    seed: "int | np.random.Generator | None" = None,
    coarse_target: int = 160,
) -> np.ndarray:
    """Bisect ``graph``; returns a boolean side array.

    ``node_weights`` are the vertex masses to balance (``None``: every node
    weighs 1).  They are summed through the coarsening hierarchy, so the
    initial cut, every refinement level and the balance tolerance all see
    the same total.  ``target_fraction`` is the mass share of side *True* —
    recursive k-way calls use uneven splits like 2/5.
    """
    rng = ensure_rng(seed)
    if node_weights is None:
        node_weights = np.ones(graph.num_nodes)
    levels = coarsen_to(graph, coarse_target, seed=rng, node_weights=node_weights)
    coarse_graph = levels[-1].graph if levels else graph
    coarse_weights = levels[-1].node_weights if levels else node_weights

    total = float(node_weights.sum())
    side = _bfs_grow_initial(coarse_graph, coarse_weights, target_fraction * total, rng)
    side = refine_bisection(
        coarse_graph, side, coarse_weights, balance_tolerance=balance_tolerance
    )
    for i in range(len(levels) - 1, -1, -1):
        side = side[levels[i].fine_to_coarse]
        finer_graph = graph if i == 0 else levels[i - 1].graph
        finer_weights = node_weights if i == 0 else levels[i - 1].node_weights
        side = refine_bisection(
            finer_graph, side, finer_weights, balance_tolerance=balance_tolerance
        )
    return side


def multilevel_kway(
    graph: Graph,
    num_blocks: int,
    seed: "int | np.random.Generator | None" = None,
    balance_tolerance: float = 0.1,
) -> np.ndarray:
    """Partition into ``num_blocks`` parts by recursive bisection.

    Returns integer labels ``0 .. num_blocks-1``.  Blocks are balanced in
    node count within the tolerance at each split.
    """
    require(num_blocks >= 1, "need at least one block")
    rng = ensure_rng(seed)
    labels = np.zeros(graph.num_nodes, dtype=np.int64)
    if num_blocks == 1:
        return labels

    def split(nodes: np.ndarray, blocks: int, first_label: int) -> None:
        if nodes.size == 0:
            return
        # never ask for more blocks than nodes: a 1-node subproblem with
        # blocks >= 2 would recurse on an empty side and crash in subgraph()
        blocks = min(blocks, int(nodes.size))
        if blocks == 1:
            labels[nodes] = first_label
            return
        left_blocks = blocks // 2
        right_blocks = blocks - left_blocks
        sub, original = graph.subgraph(nodes)
        side = multilevel_bisection(
            sub,
            target_fraction=left_blocks / blocks,
            balance_tolerance=balance_tolerance,
            seed=rng,
        )
        left_nodes = original[side]
        right_nodes = original[~side]
        if left_nodes.size == 0 or right_nodes.size == 0:
            # degenerate split (tiny block); fall back to an even slice
            half = max(1, int(round(nodes.size * left_blocks / blocks)))
            left_nodes, right_nodes = nodes[:half], nodes[half:]
        split(left_nodes, left_blocks, first_label)
        split(right_nodes, right_blocks, first_label + left_blocks)

    split(np.arange(graph.num_nodes, dtype=np.int64), num_blocks, 0)
    return labels
