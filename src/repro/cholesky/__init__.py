"""Sparse Cholesky substrate (replaces CHOLMOD for this reproduction).

The paper needs two factorisations of the grounded Laplacian:

* a **complete** Cholesky factorisation for exact effective resistances and
  for the Schur-complement power-grid reduction, and
* an **incomplete** Cholesky factorisation with threshold dropping
  (drop tolerance 1e-3 in the paper) feeding Alg. 2.

Neither scipy nor numpy provides a *sparse* Cholesky, so this package
implements the standard toolchain from Davis, "Direct Methods for Sparse
Linear Systems" (the paper's reference [19]): elimination trees, symbolic
analysis, a numeric factorisation (via :func:`repro.linalg.spd.spd_factor`),
fill-reducing orderings, a threshold incomplete factorisation, triangular
solves, and the filled-graph depth of Eq. (11).
"""

from repro.cholesky.depth import filled_graph_depth, max_depth
from repro.cholesky.etree import column_counts, elimination_tree, postorder, tree_depths
from repro.cholesky.incomplete import ICholResult, ichol
from repro.cholesky.numeric import CholeskyFactor, cholesky
from repro.cholesky.ordering import compute_ordering, minimum_degree_ordering, permute_symmetric
from repro.cholesky.symbolic import symbolic_factorization
from repro.cholesky.triangular import solve_lower, solve_lower_transpose, spd_solve

__all__ = [
    "elimination_tree",
    "postorder",
    "column_counts",
    "tree_depths",
    "symbolic_factorization",
    "cholesky",
    "CholeskyFactor",
    "ichol",
    "ICholResult",
    "compute_ordering",
    "minimum_degree_ordering",
    "permute_symmetric",
    "filled_graph_depth",
    "max_depth",
    "solve_lower",
    "solve_lower_transpose",
    "spd_solve",
]
