"""The one sparse SPD factorisation: every SuperLU call goes through here.

Every direct solve in the package is on a symmetric positive definite
matrix: the grounded Laplacian of the exact and random-projection
effective-resistance engines (one ground node per connected component,
positive weights), the nodal matrices of a power grid (``G_UU``,
``G_UU + C_UU/h``), the interior blocks ``A_EE`` of Alg. 1 step 2, and
the complete Cholesky factor of :func:`repro.cholesky.numeric.cholesky`.
:func:`spd_factor` factors them the way a Cholesky solver would, through
SuperLU in ``SymmetricMode`` with no partial pivoting
(``diag_pivot_thresh=0``), in one of two elimination orders:

* by default a minimum-degree ordering of ``A + Aᵀ`` (``MMD_AT_PLUS_A``)
  applied symmetrically.  On the pg-reduce grid that keeps about 45% fewer
  L+U entries than the general LU default (COLAMD column ordering with
  partial pivoting), and on a BA-3000 grounded Laplacian about 90% fewer;
* with ``perm``, the caller's order: ``P A Pᵀ`` is factored as given
  (``NATURAL``), which is how :func:`~repro.cholesky.numeric.cholesky`
  honours its fill-reducing permutation.

SuperLU may still pivot off the diagonal when a pivot is exactly zero;
the factor is then not a symmetric one, and :func:`spd_factor` raises
:class:`NotPositiveDefiniteError` instead of returning it.  Symmetric mode
does *not* detect every singular matrix: a floating node whose pivot
rounds to a tiny nonzero value is answered silently with a huge
voltage.  Callers therefore hand over nonsingular systems only: the
engines ground every connected component, and
:func:`repro.powergrid.mna.build_mna` rejects floating nodes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.cholesky.ordering import permute_symmetric


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """SuperLU left the diagonal while factoring a matrix given as SPD."""


def spd_factor(
    matrix: sp.spmatrix, perm: "np.ndarray | None" = None
) -> spla.SuperLU:
    """Factor the SPD ``matrix`` in symmetric mode without pivoting.

    Returns SuperLU's factorisation object (``.solve`` takes 1-D or 2-D
    right-hand sides).  Without ``perm`` it factors ``matrix`` on a
    symmetric minimum-degree ordering and solves ``matrix`` itself.  With
    ``perm`` it factors ``P A Pᵀ`` (``(P A Pᵀ)[i, j] = A[perm[i],
    perm[j]]``) in exactly that order, so ``.L`` and ``.U`` are the
    factors of the permuted matrix and ``.solve`` solves the permuted
    system.  Raises :class:`NotPositiveDefiniteError` if the factorisation
    pivoted (``perm_r != perm_c``), which an SPD matrix never needs.
    """
    if perm is None:
        csc, permc_spec = sp.csc_matrix(matrix), "MMD_AT_PLUS_A"
    else:
        csc, permc_spec = permute_symmetric(matrix, perm), "NATURAL"
    lu = spla.splu(
        csc,
        permc_spec=permc_spec,
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotPositiveDefiniteError(
            "SuperLU pivoted while factoring a matrix given as symmetric "
            "positive definite; it is likely indefinite or singular"
        )
    return lu
