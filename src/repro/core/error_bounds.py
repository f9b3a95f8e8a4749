"""Theorem 1 / Eq. (25)–(26) error machinery and sampled error estimation.

Three layers of analysis, mirroring the paper:

* **Theorem 1** — a priori column bound ``‖z_p − z̃_p‖₁ / ‖z_p‖₁ ≤
  depth(p)·ε``;
* **Eq. (25)–(26)** — first-order relative error of an effective-resistance
  query, ``|R̃/R − 1| ≲ α_pq · ε`` with the coefficient ``α_pq`` computable
  from exact columns on small instances;
* **Sampled Ea/Em** — Table I estimates errors by drawing 1000 random edges,
  computing exact resistances for them and averaging relative errors; the
  same estimator is implemented in :func:`estimate_query_errors`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.cholesky.depth import filled_graph_depth
from repro.cholesky.triangular import solve_lower, unit_vector
from repro.core.effective_resistance import (
    CholInvEffectiveResistance,
    ExactEffectiveResistance,
)
from repro.core.engine import EngineConfig, build_engine
from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng


def theorem1_bound(lower: sp.spmatrix, epsilon: float) -> np.ndarray:
    """Per-node a priori relative 1-norm bound ``depth(p)·ε`` of Theorem 1."""
    return filled_graph_depth(lower).astype(np.float64) * float(epsilon)


@dataclass
class ColumnErrorReport:
    """Measured vs. bounded column errors for a sample of nodes."""

    nodes: np.ndarray
    measured: np.ndarray
    bound: np.ndarray

    @property
    def max_violation(self) -> float:
        """Largest ``measured − bound``; ``<= 0`` when Theorem 1 holds."""
        return float(np.max(self.measured - self.bound))

    @property
    def tightness(self) -> np.ndarray:
        """``measured / bound`` (NaN where the bound is zero)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.measured / self.bound


def column_error_report(
    lower: sp.spmatrix,
    z_tilde: sp.spmatrix,
    epsilon: float,
    sample_nodes=None,
    seed=None,
    max_samples: int = 50,
) -> ColumnErrorReport:
    """Measure ``‖z_p − z̃_p‖₁/‖z_p‖₁`` against the Theorem 1 bound.

    Exact columns ``z_p = L⁻¹e_p`` come from sparse triangular solves, so the
    check stays affordable on mid-size factors.
    """
    n = lower.shape[0]
    if sample_nodes is None:
        rng = ensure_rng(seed)
        count = min(max_samples, n)
        sample_nodes = rng.choice(n, size=count, replace=False)
    sample_nodes = np.asarray(sample_nodes, dtype=np.int64)

    depths = filled_graph_depth(lower)
    z_csc = sp.csc_matrix(z_tilde)
    measured = np.empty(sample_nodes.shape[0])
    for out_idx, p in enumerate(sample_nodes):
        exact = solve_lower(sp.csc_matrix(lower), unit_vector(n, int(p)))
        approx = np.asarray(z_csc[:, int(p)].todense()).ravel()
        denom = np.abs(exact).sum() or 1.0
        measured[out_idx] = np.abs(exact - approx).sum() / denom
    bound = depths[sample_nodes].astype(np.float64) * float(epsilon)
    return ColumnErrorReport(nodes=sample_nodes, measured=measured, bound=bound)


def alpha_coefficient(
    lower: sp.spmatrix, p: int, q: int, depths: "np.ndarray | None" = None
) -> float:
    """The Eq. (25) coefficient ``α_pq`` from exact inverse columns.

    ``α_pq = 2‖z_pq‖₁(‖z_p‖₁·depth(p) + ‖z_q‖₁·depth(q)) / ‖z_pq‖₂²`` —
    the first-order sensitivity of the relative query error to ``ε``.
    """
    csc = sp.csc_matrix(lower)
    n = csc.shape[0]
    if depths is None:
        depths = filled_graph_depth(csc)
    z_p = solve_lower(csc, unit_vector(n, p))
    z_q = solve_lower(csc, unit_vector(n, q))
    z_pq = z_p - z_q
    norm1_pq = np.abs(z_pq).sum()
    norm2_sq = float(z_pq @ z_pq)
    if norm2_sq == 0.0:
        return 0.0
    weighted = np.abs(z_p).sum() * depths[p] + np.abs(z_q).sum() * depths[q]
    return float(2.0 * norm1_pq * weighted / norm2_sq)


@dataclass
class QueryErrorEstimate:
    """Sampled relative-error statistics (the Ea / Em columns of Table I)."""

    average: float
    maximum: float
    sample_size: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ea={self.average:.3e} Em={self.maximum:.3e} (k={self.sample_size})"


def estimate_query_errors(
    estimator,
    graph: Graph,
    num_samples: int = 1000,
    seed=None,
    exact: "ExactEffectiveResistance | None" = None,
) -> QueryErrorEstimate:
    """Estimate Ea (mean) and Em (max) relative errors on random edges.

    Follows the paper's protocol: draw up to ``num_samples`` edges uniformly
    at random, compute exact effective resistances for them with the direct
    method, and compare.

    Parameters
    ----------
    estimator:
        Any object with ``query_pairs`` (Alg. 3, the baseline, ...).
    graph:
        The graph the estimator was built on.
    num_samples:
        Sample size (paper: 1000).
    exact:
        Optional pre-built exact engine to amortise its factorisation.
    """
    rng = ensure_rng(seed)
    m = graph.num_edges
    count = min(num_samples, m)
    chosen = rng.choice(m, size=count, replace=False)
    pairs = np.column_stack([graph.heads[chosen], graph.tails[chosen]])
    if exact is None:
        exact = build_engine(graph, EngineConfig(method="exact"))
    truth = exact.query_pairs(pairs)
    approx = estimator.query_pairs(pairs)
    rel = np.abs(approx - truth) / np.maximum(np.abs(truth), 1e-300)
    return QueryErrorEstimate(
        average=float(rel.mean()), maximum=float(rel.max()), sample_size=count
    )


def cholinv_error_budget(estimator: CholInvEffectiveResistance) -> dict:
    """Summarise the a priori error budget of an Alg. 3 estimator.

    Returns the maximum depth, ε, and the Theorem 1 worst-case column bound
    ``dpt·ε`` — the quantities the paper's discussion (Section III-B/C)
    relates to observed accuracy.
    """
    dpt = estimator.max_depth
    return {
        "epsilon": estimator.epsilon,
        "drop_tol": estimator.drop_tol,
        "max_depth": dpt,
        "worst_case_column_bound": dpt * estimator.epsilon,
    }
