"""WWW'15 random-projection effective resistances (the paper's baseline [1]).

Spielman–Srivastava (Eq. 4) write the effective resistance as a Euclidean
distance between columns of ``W^{1/2} B L_G⁺``; the Johnson–Lindenstrauss
lemma lets a random ``k × m`` sign matrix ``Q`` compress the edge dimension
(Eq. 5)::

    R(p,q) ≈ ‖ (Q W^{1/2} B L_G⁺)(e_p − e_q) ‖²,   k = O(log m)

The practical WWW'15 implementation [Mavroforakis et al.] materialises
``Y = Q W^{1/2} B`` (k dense rows, built edge-wise without storing ``Q``)
and then solves ``k`` Laplacian systems ``L_G x_i = y_i`` with the CMG
combinatorial-multigrid *PCG* solver.  Two solver substrates are offered:

* ``solver="pcg"`` (default) — Jacobi-preconditioned conjugate gradient,
  the iterative-SDD-solver stand-in for CMG (scipy's triangular solves are
  too slow for an IC-preconditioned variant to pay off — see the bench
  notes in EXPERIMENTS.md);
* ``solver="splu"`` — one SuperLU factorisation reused for all ``k``
  right-hand sides; a *stronger* substrate than the original (C-coded
  direct solves), useful to bound the baseline's best case.

The grounded solve returns the pseudo-inverse solution plus a per-row
multiple of the all-ones vector (each row of ``Y`` sums to zero); query
*differences* cancel that shift, so answers are unbiased.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.core.engine import ResistanceEngine, as_pair_columns, register_engine
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.laplacian import component_ground_nodes, grounded_laplacian
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import require


def default_num_projections(num_edges: int, c_jl: float = 100.0) -> int:
    """Paper-calibrated JL dimension ``k = ⌈c·ln m⌉``.

    Table I reports ``nnz(Q)/(n log n)`` around 100–340 for the baseline,
    i.e. ``k ≈ 100·ln n`` — accuracy near 2% then follows from the JL
    variance ``√(2/k)``.  ``c_jl`` scales the same trade-off here.
    """
    return max(1, int(np.ceil(c_jl * np.log(max(num_edges, 2)))))


@register_engine(
    "random_projection",
    params=("num_projections", "c_jl", "ground_value", "solver",
            "pcg_rtol", "seed"),
)
class RandomProjectionEffectiveResistance(ResistanceEngine):
    """The WWW'15 baseline: project the edge embedding, solve ``k`` systems.

    Parameters
    ----------
    graph:
        Weighted undirected graph.
    num_projections:
        JL dimension ``k``; default ``⌈c_jl · ln m⌉``.
    c_jl:
        Scale constant used when ``num_projections`` is not given.
    ground_value:
        Grounding conductance for the Laplacian solves.
    seed:
        RNG seed for the sign matrix.
    """

    def __init__(
        self,
        graph: Graph,
        num_projections: "int | None" = None,
        c_jl: float = 100.0,
        ground_value: "float | None" = None,
        solver: str = "pcg",
        pcg_rtol: float = 1e-6,
        seed=None,
    ):
        self.graph = graph
        self.timer = Timer()
        rng = ensure_rng(seed)
        m, n = graph.num_edges, graph.num_nodes
        require(m > 0, "graph must have at least one edge")
        require(solver in ("pcg", "splu"), f"unknown solver {solver!r}")
        if num_projections is None:
            num_projections = default_num_projections(m, c_jl)
        self.num_projections = int(num_projections)
        if ground_value is None:
            ground_value = float(graph.weights.mean())
        self.ground_value = ground_value
        self.solver_kind = solver
        self.component_labels, _ = connected_components(graph)

        k = self.num_projections
        scale = 1.0 / np.sqrt(k)
        sqrt_w = np.sqrt(graph.weights)

        with self.timer.section("factorize"):
            matrix, self.ground_nodes = grounded_laplacian(
                graph, ground_value, ground_nodes=component_ground_nodes(self.component_labels)
            )
            if solver == "splu":
                direct = spla.splu(matrix.tocsc())
                solve_one = direct.solve
            else:
                from repro.linalg.pcg import pcg

                inv_diag = 1.0 / matrix.diagonal()
                csr = matrix.tocsr()

                def solve_one(rhs: np.ndarray) -> np.ndarray:
                    return pcg(
                        csr,
                        rhs,
                        preconditioner=lambda r: inv_diag * r,
                        rtol=pcg_rtol,
                    ).x

        # Build Y = Q W^{1/2} B row-by-row (never materialising Q) and solve.
        self.embedding = np.empty((n, k))  # column i holds L_G⁻¹ yᵢ
        with self.timer.section("projection_solves"):
            for i in range(k):
                signs = rng.integers(0, 2, size=m).astype(np.float64) * 2.0 - 1.0
                weighted = signs * sqrt_w * scale
                y = np.zeros(n)
                np.add.at(y, graph.heads, weighted)
                np.subtract.at(y, graph.tails, weighted)
                self.embedding[:, i] = solve_one(y)
        self.n = n

    def query_pairs(self, pairs) -> np.ndarray:
        """Approximate effective resistances for ``(m, 2)`` node pairs."""
        ps, qs = as_pair_columns(pairs)
        with self.timer.section("queries"):
            diff = self.embedding[ps] - self.embedding[qs]
            out = np.einsum("ij,ij->i", diff, diff)
        same = self.component_labels[ps] == self.component_labels[qs]
        out[~same] = np.inf
        out[ps == qs] = 0.0
        return out

    @property
    def projection_nnz(self) -> int:
        """nnz of the dense projected matrix — the ``nnz(Q)`` of Table I."""
        return int(self.embedding.size)
