"""Schur-complement elimination of interior nodes (Alg. 1 step 2).

For a block with kept nodes ``K`` (ports + interface) and eliminated
interior nodes ``E``, the block Laplacian partitions as::

    [A_EE  A_EK] [v_E]   [b_E]
    [A_KE  A_KK] [v_K] = [b_K]

Eliminating ``v_E`` exactly gives the reduced system::

    S v_K = b_K − Xᵀ b_E,     S = A_KK − A_KEX,     X = A_EE⁻¹ A_EK

``S`` is again a Laplacian (plus any shunt mass that was on interior
nodes), and ``−X ≥ 0`` with column sums ≤ 1 — a *current divider*: it
redistributes interior current loads and (by the same weights) interior
capacitance onto the kept nodes.  Reduction before sparsification is exact
for DC port voltages; a test asserts that property.

Floating interior components (no path to any kept node) have undefined
voltage and carry no sources; they are detected and dropped.  What remains
of ``A_EE`` is then symmetric positive definite (each interior component
is grounded through a kept node), so it is factored as SPD with
:func:`repro.linalg.spd.spd_factor`: symmetric-mode SuperLU on a
minimum-degree ordering, no pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cc

from repro.linalg.spd import spd_factor
from repro.utils.validation import require


@dataclass
class SchurReduction:
    """Result of eliminating ``eliminated`` nodes from a block matrix.

    Attributes
    ----------
    reduced:
        Dense Schur complement ``S`` over the kept nodes.
    keep:
        Kept node ids (in the indexing of the input matrix).
    eliminated:
        Interior node ids that were eliminated.
    dropped:
        Floating interior nodes that were discarded.
    divider:
        Current-divider matrix ``W = −X`` of shape
        ``(len(eliminated), len(keep))``; ``W[e, k]`` is the share of node
        ``e``'s current (or capacitance) that lands on kept node ``k``.
    """

    reduced: np.ndarray
    keep: np.ndarray
    eliminated: np.ndarray
    dropped: np.ndarray
    divider: np.ndarray

    def reduce_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Map a full-block RHS to the reduced system: ``b_K + Wᵀ b_E``."""
        out = rhs[self.keep].astype(np.float64).copy()
        if self.eliminated.size:
            out += self.divider.T @ rhs[self.eliminated]
        return out

    def lump_values(self, values: np.ndarray) -> np.ndarray:
        """Redistribute per-node quantities (e.g. capacitance) to kept nodes."""
        out = values[self.keep].astype(np.float64).copy()
        if self.eliminated.size:
            out += self.divider.T @ values[self.eliminated]
        return out

    def recover_interior(self, v_keep: np.ndarray, rhs_interior: "np.ndarray | None" = None):
        """Back-substitute interior voltages: ``v_E = W v_K + A_EE⁻¹ b_E``.

        Only available when the reduction kept its interior solve operator;
        the pipeline does not need it, but tests use it to verify exactness.
        """
        v = self.divider @ v_keep
        if rhs_interior is not None and self._interior_solver is not None:
            v += self._interior_solver(rhs_interior)
        return v

    _interior_solver = None  # populated by schur_reduce when requested


def schur_reduce(
    matrix: sp.spmatrix,
    keep: np.ndarray,
    keep_interior_solver: bool = False,
) -> SchurReduction:
    """Eliminate all nodes of ``matrix`` not listed in ``keep``.

    Parameters
    ----------
    matrix:
        Symmetric block matrix (Laplacian + optional shunt diagonal).
    keep:
        Node indices to preserve.
    keep_interior_solver:
        Retain a callable solving ``A_EE x = b`` (for exactness tests /
        interior-voltage recovery).
    """
    keep = np.asarray(keep, dtype=np.int64)
    n = matrix.shape[0]
    require(keep.size > 0, "must keep at least one node")
    csc = sp.csc_matrix(matrix)
    mask = np.zeros(n, dtype=bool)
    mask[keep] = True
    eliminate = np.flatnonzero(~mask)

    # detect floating interior components (unreachable from any kept node)
    dropped = np.empty(0, dtype=np.int64)
    if eliminate.size:
        pattern = csc.copy()
        pattern.data = np.ones_like(pattern.data)
        count, labels = _cc(pattern, directed=False)
        kept_components = np.unique(labels[keep])
        floating = ~np.isin(labels[eliminate], kept_components)
        dropped = eliminate[floating]
        eliminate = eliminate[~floating]

    if eliminate.size == 0:
        reduced = csc[keep, :][:, keep].toarray()
        result = SchurReduction(
            reduced=reduced,
            keep=keep,
            eliminated=eliminate,
            dropped=dropped,
            divider=np.zeros((0, keep.size)),
        )
        return result

    a_ee = csc[eliminate, :][:, eliminate].tocsc()
    a_ek = csc[eliminate, :][:, keep].tocsc()
    a_kk = csc[keep, :][:, keep].toarray()
    solver = spd_factor(a_ee)
    x = solver.solve(a_ek.toarray())  # X = A_EE^{-1} A_EK
    reduced = a_kk - a_ek.T @ x
    reduced = 0.5 * (reduced + reduced.T)  # enforce symmetry against roundoff
    result = SchurReduction(
        reduced=reduced,
        keep=keep,
        eliminated=eliminate,
        dropped=dropped,
        divider=-x,
    )
    if keep_interior_solver:
        result._interior_solver = solver.solve
    return result


def laplacian_to_edges(
    dense: np.ndarray, magnitude_floor: float = 1e-12
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Split a dense (near-)Laplacian into edges and ground shunts.

    Returns ``(heads, tails, conductances, shunts)`` where off-diagonal
    negatives become edges (``w = −S_ij``) and positive row sums become
    per-node shunt conductances (mass that leaked to ground through
    eliminated shunted nodes).  Entries below ``magnitude_floor`` times the
    largest diagonal are treated as numerical noise.
    """
    n = dense.shape[0]
    scale = float(np.abs(np.diag(dense)).max()) or 1.0
    floor = magnitude_floor * scale
    off = np.triu(dense, k=1)
    heads, tails = np.nonzero(off < -floor)
    conductances = -off[heads, tails]
    shunts = dense.sum(axis=1)
    shunts[np.abs(shunts) < floor] = 0.0
    shunts = np.maximum(shunts, 0.0)
    return heads.astype(np.int64), tails.astype(np.int64), conductances, shunts
