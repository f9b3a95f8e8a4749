"""Laplacian, incidence and grounding machinery (paper Section II-A).

The paper defines, for ``G = (V, E, w)`` with ``n = |V|`` and ``m = |E|``:

* the signed incidence matrix ``B ∈ R^{m×n}`` (Eq. 1),
* the diagonal weight matrix ``W`` with ``W(e,e) = w(e)``,
* the Laplacian ``L_G = BᵀWB`` (Eq. 2),

and handles the singularity of ``L_G`` by *grounding*: a small positive value
is added to the diagonal of one node per connected component, producing a
non-singular symmetric diagonally dominant (SDD) M-matrix.  As shown in the
library's documentation (and verified by tests), effective resistances
computed from the grounded matrix are *exact* for within-component queries:
for any ``b ⟂ 1`` the grounded solve differs from the pseudo-inverse solve by
a multiple of the all-ones vector, which ``bᵀx`` annihilates.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.utils.validation import check_positive, require


def incidence_matrix(graph: Graph) -> sp.csr_matrix:
    """Signed edge-node incidence matrix ``B`` of Eq. (1).

    Row ``e`` has ``+1`` at the head of edge ``e`` and ``-1`` at its tail.
    """
    m = graph.num_edges
    rows = np.repeat(np.arange(m), 2)
    cols = np.column_stack([graph.heads, graph.tails]).ravel()
    data = np.tile(np.array([1.0, -1.0]), m)
    return sp.coo_matrix((data, (rows, cols)), shape=(m, graph.num_nodes)).tocsr()


def weight_matrix(graph: Graph) -> sp.dia_matrix:
    """Diagonal edge-weight matrix ``W`` with ``W(e,e) = w(e)``."""
    return sp.diags(graph.weights)


def laplacian(graph: Graph) -> sp.csc_matrix:
    """Graph Laplacian ``L_G = BᵀWB`` (Eq. 2), assembled directly.

    Direct assembly by scatter-add is equivalent to the triple product but
    avoids materialising ``B``; a test cross-checks both constructions.
    """
    n = graph.num_nodes
    rows = np.concatenate([graph.heads, graph.tails, graph.heads, graph.tails])
    cols = np.concatenate([graph.tails, graph.heads, graph.heads, graph.tails])
    data = np.concatenate([-graph.weights, -graph.weights, graph.weights, graph.weights])
    lap = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()
    lap.sum_duplicates()
    return lap


def component_ground_nodes(labels: np.ndarray) -> np.ndarray:
    """Lowest-index node of each connected component, in ascending order.

    ``labels`` are component labels as
    :func:`~repro.graphs.components.connected_components` returns them.
    """
    _, first = np.unique(labels, return_index=True)
    return np.sort(first).astype(np.int64, copy=False)


def _check_ground_nodes(ground_nodes, n: int) -> np.ndarray:
    """``ground_nodes`` as distinct in-range int64 node ids, or ValueError."""
    nodes = np.asarray(ground_nodes, dtype=np.int64)
    require(nodes.ndim == 1, f"ground_nodes must be a 1-D array, got shape {nodes.shape}")
    outside = nodes[(nodes < 0) | (nodes >= n)]
    if outside.size:
        raise ValueError(
            f"ground node {int(outside[0])} is out of range for a graph of {n} nodes"
        )
    ordered = np.sort(nodes)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValueError(f"ground node {int(repeated[0])} is listed more than once")
    return nodes


def add_to_diagonal(matrix: sp.csc_matrix, nodes: np.ndarray, values) -> sp.csc_matrix:
    """``matrix[j, j] += values`` for the distinct ``nodes``, in place.

    ``matrix`` must be a canonical CSC matrix (sorted indices, no
    duplicates).  A diagonal entry that is not stored is inserted at its
    sorted position; one whose sum comes out exactly 0 is removed.  That
    is what item assignment on a LIL matrix does, so the result equals a
    ``tolil()`` … ``tocsc()`` round trip array for array, without the
    Python-level row lists.  The work is linear in the stored entries of
    the touched columns.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    order = np.argsort(nodes, kind="stable")
    nodes = nodes[order]
    values = np.broadcast_to(np.asarray(values, dtype=matrix.dtype), order.shape)[order]
    indptr, indices = matrix.indptr, matrix.indices
    starts = indptr[nodes].astype(np.int64)
    counts = indptr[nodes + 1].astype(np.int64) - starts
    # every stored entry of the touched columns, tagged with its column
    owner = np.repeat(np.arange(nodes.size), counts)
    offsets = np.cumsum(counts) - counts
    positions = np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)
    rows = indices[positions]
    above = np.bincount(owner[rows < nodes[owner]], minlength=nodes.size)
    stored = np.bincount(owner[rows == nodes[owner]], minlength=nodes.size) > 0
    slots = starts + above  # the diagonal's (sorted) position in each column

    hit = slots[stored]
    matrix.data[hit] += values[stored]
    zeroed = matrix.data[hit] == 0
    inserted = ~stored & (values != 0)
    if zeroed.any() or inserted.any():
        removed = hit[zeroed]  # ascending, like the touched columns
        keep = np.ones(matrix.data.shape[0], dtype=bool)
        keep[removed] = False
        at = slots[inserted]
        at = at - np.searchsorted(removed, at)  # same slot once removals are gone
        matrix.data = np.insert(matrix.data[keep], at, values[inserted])
        matrix.indices = np.insert(indices[keep], at, nodes[inserted])
        delta = np.zeros(indptr.shape[0], dtype=np.int64)
        delta[nodes[inserted] + 1] += 1
        delta[nodes[stored][zeroed] + 1] -= 1
        matrix.indptr = indptr + np.cumsum(delta).astype(indptr.dtype)
    return matrix


def grounded_laplacian(
    graph: Graph,
    ground_value: float = 1.0,
    ground_nodes: "np.ndarray | None" = None,
) -> "tuple[sp.csc_matrix, np.ndarray]":
    """Non-singular SDD matrix from ``L_G`` by grounding one node per component.

    The ground conductance goes straight onto the CSC diagonal of
    :func:`laplacian` (:func:`add_to_diagonal`); only an isolated node,
    whose diagonal is not stored, gets a new entry.

    Parameters
    ----------
    graph:
        The weighted graph.
    ground_value:
        Positive conductance added to the diagonal of each grounded node.
        Any positive value gives *exact* within-component effective
        resistances (see module docstring); moderate values near the average
        edge weight keep the matrix well conditioned.
    ground_nodes:
        Explicit nodes to ground (one per component), distinct and in
        ``range(n)`` — anything else raises ``ValueError`` naming the
        node.  By default the lowest-index node of each connected
        component (:func:`component_ground_nodes`), which is deterministic
        and therefore reproducible; a caller that already has the
        component labels passes that instead of having them recomputed.

    Returns
    -------
    (matrix, ground_nodes):
        The grounded SDD matrix in CSC form and the grounded node ids.
    """
    check_positive(ground_value, "ground_value")
    if ground_nodes is None:
        ground_nodes = component_ground_nodes(connected_components(graph)[0])
    else:
        ground_nodes = _check_ground_nodes(ground_nodes, graph.num_nodes)
    lap = add_to_diagonal(laplacian(graph), ground_nodes, ground_value)
    return lap, ground_nodes


def laplacian_from_grounded(
    grounded: sp.spmatrix, ground_nodes: np.ndarray, ground_value: float
) -> sp.csc_matrix:
    """Invert :func:`grounded_laplacian`: remove the grounding shifts.

    A diagonal entry that comes out exactly 0 (an isolated ground node) is
    removed, as in :func:`laplacian`.
    """
    lap = sp.csc_matrix(grounded, copy=True)
    lap.sum_duplicates()
    nodes = _check_ground_nodes(ground_nodes, lap.shape[0])
    return add_to_diagonal(lap, nodes, -ground_value)


def laplacian_quadratic_form(graph: Graph, x: np.ndarray) -> float:
    """Evaluate ``xᵀ L_G x = Σ_e w(e) (x_head − x_tail)²`` without forming L."""
    diff = x[graph.heads] - x[graph.tails]
    return float(np.sum(graph.weights * diff * diff))


def is_sdd_m_matrix(matrix: sp.spmatrix, tol: float = 1e-12) -> bool:
    """Check that ``matrix`` is SDD with nonpositive off-diagonal entries.

    This is the structural precondition for Lemma 1 of the paper (the
    Cholesky factor of such a matrix has positive diagonal and nonpositive
    off-diagonal entries, hence a nonnegative inverse).
    """
    coo = sp.coo_matrix(matrix)
    off = coo.row != coo.col
    if np.any(coo.data[off] > tol):
        return False
    diag = matrix.diagonal()
    offdiag_rowsum = np.zeros(matrix.shape[0])
    np.add.at(offdiag_rowsum, coo.row[off], np.abs(coo.data[off]))
    return bool(np.all(diag + tol >= offdiag_rowsum))
