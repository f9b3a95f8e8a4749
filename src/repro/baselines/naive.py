"""Naive per-query effective resistances (the Ω(|E|²) strawman).

Section II-B of the paper notes that answering each query ``(p, q)`` with a
fresh linear solve costs at least ``Ω(|E|)`` per query — prohibitive when
``Q_r = E``.  This class implements exactly that strategy (a fresh PCG solve
per query, no factorisation reuse) so benchmarks can demonstrate the gap the
smarter methods close.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import ResistanceEngine, as_pair_columns, register_engine
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.laplacian import component_ground_nodes, grounded_laplacian
from repro.linalg.pcg import pcg
from repro.utils.timing import Timer


@register_engine("naive", params=("ground_value", "rtol"))
class NaivePerQueryResistance(ResistanceEngine):
    """One unpreconditioned CG solve per query; nothing cached but the matrix."""

    def __init__(self, graph: Graph, ground_value: "float | None" = None, rtol: float = 1e-10):
        self.graph = graph
        self.rtol = rtol
        self.timer = Timer()
        if ground_value is None:
            ground_value = float(graph.weights.mean()) if graph.num_edges else 1.0
        self.component_labels, _ = connected_components(graph)
        self.matrix, self.ground_nodes = grounded_laplacian(
            graph, ground_value, ground_nodes=component_ground_nodes(self.component_labels)
        )
        self.n = graph.num_nodes

    def query(self, p: int, q: int) -> float:
        """Effective resistance via a fresh iterative solve."""
        if self.component_labels[p] != self.component_labels[q]:
            return float("inf")
        if p == q:
            return 0.0
        rhs = np.zeros(self.n)
        rhs[p] = 1.0
        rhs[q] = -1.0
        with self.timer.section("solves"):
            result = pcg(self.matrix, rhs, rtol=self.rtol)
        return float(result.x[p] - result.x[q])

    def query_pairs(self, pairs) -> np.ndarray:
        """Loop of per-query solves (intentionally unamortised)."""
        ps, qs = as_pair_columns(pairs)
        return np.array([self.query(int(p), int(q)) for p, q in zip(ps, qs)],
                        dtype=np.float64)
