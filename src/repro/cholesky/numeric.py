"""Numeric sparse Cholesky factorisation.

:func:`cholesky` obtains ``L`` from SuperLU's unpivoted LDU factorisation
of the permuted SPD matrix, made by :func:`repro.linalg.spd.spd_factor` in
the caller's order: for SPD ``A = L_u · U`` with unit-diagonal ``L_u`` and
``U = D·L_uᵀ``, the Cholesky factor is ``L = L_u · D^{1/2}``.  It honours a
caller-supplied fill-reducing permutation and returns a
:class:`CholeskyFactor` carrying the factor, the permutation and solve
helpers.  Tests cross-check it against a pure-Python up-looking
factorisation (Davis, ch. 4) and against dense ``numpy.linalg.cholesky``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.cholesky.ordering import compute_ordering
from repro.cholesky.triangular import solve_lower, solve_lower_transpose
from repro.linalg.spd import spd_factor
from repro.utils.validation import check_square_sparse


@dataclass
class CholeskyFactor:
    """Result of a sparse Cholesky factorisation ``P A Pᵀ = L Lᵀ``.

    Attributes
    ----------
    lower:
        Sparse lower-triangular factor ``L`` (CSC, sorted indices).
    perm:
        Permutation vector: ``perm[k]`` is the original index eliminated at
        step ``k`` (i.e. ``(P A Pᵀ)[i, j] = A[perm[i], perm[j]]``).
    """

    lower: sp.csc_matrix
    perm: np.ndarray

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.lower.shape[0]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros of ``L``."""
        return int(self.lower.nnz)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` using the factorisation (1-D or 2-D rhs)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        permuted = rhs[self.perm]
        y = solve_lower(self.lower, permuted)
        z = solve_lower_transpose(self.lower, y)
        out = np.empty_like(z)
        out[self.perm] = z
        return out

    def half_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``L y = (P rhs)`` only (used by effective-resistance formulas).

        With ``P A Pᵀ = L Lᵀ``, Eq. (7) of the paper becomes
        ``R(p,q) = ||L⁻¹ P (e_p − e_q)||²``, so callers often need just the
        forward solve against the permuted right-hand side.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        return solve_lower(self.lower, rhs[self.perm])

    def logdet(self) -> float:
        """Log-determinant of ``A``: ``2 Σ log diag(L)``."""
        return float(2.0 * np.sum(np.log(self.lower.diagonal())))


def cholesky(
    matrix: sp.spmatrix,
    ordering: str = "amd",
    perm: "np.ndarray | None" = None,
) -> CholeskyFactor:
    """Sparse Cholesky factorisation with fill-reducing ordering.

    Parameters
    ----------
    matrix:
        Sparse SPD matrix.
    ordering:
        One of ``"natural"``, ``"rcm"``, ``"amd"`` (minimum-degree, the
        default) — ignored when an explicit ``perm`` is given.
    perm:
        Explicit permutation vector overriding ``ordering``.
    """
    check_square_sparse(matrix, "matrix")
    csc = sp.csc_matrix(matrix)
    if perm is None:
        perm = compute_ordering(csc, method=ordering)
    else:
        perm = np.asarray(perm, dtype=np.int64)
    lu = spd_factor(csc, perm)
    diag = lu.U.diagonal()
    if np.any(diag <= 0):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    lower = (lu.L @ sp.diags(np.sqrt(diag))).tocsc()
    lower.sort_indices()
    return CholeskyFactor(lower=lower, perm=perm)
