"""Tests for the numeric Cholesky factorisation (SuperLU, checked against
an up-looking reference kept here) and the fill-reducing orderings it runs
on."""

import heapq

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cholesky.numeric import CholeskyFactor, cholesky
from repro.cholesky.ordering import (
    ORDERING_METHODS,
    compute_ordering,
    inverse_permutation,
    minimum_degree_ordering,
    permute_symmetric,
    rcm_ordering,
)
from repro.cholesky.symbolic import symbolic_factorization
from repro.graphs.generators import (
    barabasi_albert_graph,
    fe_mesh_2d,
    grid_2d,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian
from repro.utils.validation import check_square_sparse
from tests.conftest import random_spd


# Pure-Python up-looking factorisation (Davis, ch. 4) driven by the
# symbolic pattern, kept as the transparent specification the SuperLU
# path of `cholesky` is checked against.
def _reference_uplooking(
    matrix: sp.spmatrix, perm: "np.ndarray | None" = None
) -> CholeskyFactor:
    """Reference up-looking sparse Cholesky of an SPD matrix.

    Row ``i`` of ``L`` solves ``L[0:i, 0:i] · L[i, 0:i]ᵀ = A[0:i, i]``
    restricted to the symbolic pattern; the diagonal entry absorbs the
    remaining mass.  Raises :class:`numpy.linalg.LinAlgError` when the
    matrix is not positive definite.
    """
    check_square_sparse(matrix, "matrix")
    csc = sp.csc_matrix(matrix).astype(np.float64)
    n = csc.shape[0]
    if perm is None:
        perm = np.arange(n, dtype=np.int64)
    else:
        perm = np.asarray(perm, dtype=np.int64)
        csc = permute_symmetric(csc, perm).tocsc()

    sym = symbolic_factorization(csc)
    indptr, indices = sym.indptr, sym.indices
    values = np.zeros(indices.shape[0])

    # CSR view of the symbolic pattern: row i lists its column pattern in
    # ascending order, which is a valid topological order for the row solve.
    pattern = sp.csc_matrix(
        (np.arange(indices.shape[0], dtype=np.int64), indices, indptr), shape=(n, n)
    )
    rows_csr = pattern.tocsr()

    a_upper = sp.csc_matrix(sp.triu(csc))  # column i holds A[0:i+1, i]
    fill = np.zeros(n, dtype=np.int64)  # stored entries per column of L
    x = np.zeros(n)  # dense scratch for the sparse row solve

    for i in range(n):
        a_start, a_end = a_upper.indptr[i], a_upper.indptr[i + 1]
        scatter_rows = a_upper.indices[a_start:a_end]
        x[scatter_rows] = a_upper.data[a_start:a_end]
        diag_val = x[i]
        x[i] = 0.0

        r_start, r_end = rows_csr.indptr[i], rows_csr.indptr[i + 1]
        cols_j = rows_csr.indices[r_start:r_end]  # ascending; last one is i itself
        sumsq = 0.0
        for j in cols_j[:-1]:
            col_start = indptr[j]
            lij = x[j] / values[col_start]  # diagonal of column j stored first
            x[j] = 0.0
            if lij != 0.0:
                upd_start = col_start + 1
                upd_end = col_start + fill[j]
                ks = indices[upd_start:upd_end]
                x[ks] -= values[upd_start:upd_end] * lij
            values[col_start + fill[j]] = lij  # symbolic slot for row i
            fill[j] += 1
            sumsq += lij * lij

        remaining = diag_val - sumsq
        if remaining <= 0.0:
            raise np.linalg.LinAlgError(
                f"matrix is not positive definite (pivot {remaining:g} at step {i})"
            )
        values[indptr[i]] = np.sqrt(remaining)
        fill[i] = 1

    lower = sp.csc_matrix((values, indices.copy(), indptr.copy()), shape=(n, n))
    lower.sort_indices()
    return CholeskyFactor(lower=lower, perm=perm)


# Plain quotient-graph minimum degree without supervariables, kept verbatim
# as the fill baseline the supervariable ordering must match or beat.  It
# writes into a CSR input (it zeroes the diagonal), so callers pass a copy.
def _reference_minimum_degree(matrix: sp.spmatrix, exact_degree_limit: int = 48) -> np.ndarray:
    """Quotient-graph minimum-degree ordering with element absorption.

    The classic minimum-degree algorithm (George & Liu) on the quotient
    graph: eliminating pivot ``p`` replaces ``p`` and the elements adjacent
    to it with a single new element whose variable list is the union of
    their variable lists.  A binary heap with lazy invalidation selects the
    pivot.

    Degree updates use the AMD idea of *approximate* external degrees: the
    cheap upper bound ``|A_i| + Σ_e |L_e|`` replaces the exact (set-union)
    degree whenever the bound exceeds ``exact_degree_limit``.  On mesh-like
    matrices nearly all updates stay exact; on social-network graphs the
    bound avoids the O(hub²) unions that make exact minimum degree
    intractable.

    Returns the permutation ``perm`` such that eliminating in the order
    ``perm[0], perm[1], ...`` greedily minimises fill-in.
    """
    check_square_sparse(matrix, "matrix")
    n = matrix.shape[0]
    csr = sp.csr_matrix(matrix)
    csr.setdiag(0)
    csr.eliminate_zeros()

    # adjacency between still-uneliminated variables
    adj: list[set[int]] = [set(csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist()) for i in range(n)]
    # elements adjacent to each variable (ids index `element_vars`)
    var_elements: list[set[int]] = [set() for _ in range(n)]
    element_vars: dict[int, set[int]] = {}

    degree = np.array([len(a) for a in adj], dtype=np.int64)
    heap: list[tuple[int, int]] = [(int(degree[i]), i) for i in range(n)]
    heapq.heapify(heap)
    eliminated = np.zeros(n, dtype=bool)
    perm = np.empty(n, dtype=np.int64)
    next_element = 0

    def current_degree(i: int) -> int:
        """External degree of ``i``: exact when cheap, AMD bound otherwise."""
        bound = len(adj[i]) + sum(len(element_vars[e]) for e in var_elements[i])
        if bound > exact_degree_limit and len(var_elements[i]) > 1:
            return bound
        reach = set(adj[i])
        for e in var_elements[i]:
            reach |= element_vars[e]
        reach.discard(i)
        return len(reach)

    for k in range(n):
        # pop until a live, up-to-date entry appears
        while True:
            deg, p = heapq.heappop(heap)
            if not eliminated[p] and deg == degree[p]:
                break

        # dense-tail cutoff (CHOLMOD-style): once the minimum degree spans
        # most of what remains, the rest is a quasi-clique — no ordering
        # gains are left, so append the remaining nodes by current degree
        remaining = n - k
        if deg >= 0.6 * remaining and remaining > 2:
            tail = np.flatnonzero(~eliminated)
            order = np.argsort(degree[tail], kind="stable")
            perm[k:] = tail[order]
            return perm

        eliminated[p] = True
        perm[k] = p

        # variable list of the new element: direct neighbours plus the
        # variables of every absorbed element
        new_vars = set(adj[p])
        absorbed = var_elements[p]
        for e in absorbed:
            new_vars |= element_vars[e]
        new_vars.discard(p)

        element_id = next_element
        next_element += 1
        element_vars[element_id] = new_vars

        for v in new_vars:
            mine = adj[v]
            mine.discard(p)
            # edges inside the element are now represented through it;
            # pick the cheaper set-difference direction
            if len(mine) * 4 < len(new_vars):
                adj[v] = {u for u in mine if u not in new_vars}
            else:
                mine -= new_vars
            var_elements[v] -= absorbed
            var_elements[v].add(element_id)
        for e in absorbed:
            del element_vars[e]
        adj[p] = set()
        var_elements[p] = set()

        for v in new_vars:
            degree[v] = current_degree(v)
            heapq.heappush(heap, (int(degree[v]), v))

    return perm


def _complete_bipartite(n: int) -> Graph:
    """K_{2,n} with the two hubs numbered 0 and n + 1, leaves 1..n between."""
    edges = [(hub, leaf) for leaf in range(1, n + 1) for hub in (0, n + 1)]
    return Graph.from_edges(n + 2, edges)


def _ordering_panel() -> dict:
    """Grounded Laplacians across graph families, keyed by a short name."""
    graphs = {
        "grid12": grid_2d(12, 12, jitter=0.3, seed=0),
        "grid30": grid_2d(30, 30, jitter=0.3, seed=1),
        "fe_mesh": fe_mesh_2d(9, 8, seed=42),
        "ba500": barabasi_albert_graph(500, 3, seed=0),
        "star": star_graph(40),
        "path": path_graph(50),
        "k2n": _complete_bipartite(30),
        "union": Graph.disjoint_union(
            [grid_2d(6, 7, seed=2), star_graph(9), barabasi_albert_graph(60, 2, seed=3)]
        ),
    }
    return {name: grounded_laplacian(graph, 1.0)[0] for name, graph in graphs.items()}


ORDERING_PANEL = _ordering_panel()


def _count_pops(monkeypatch) -> list:
    """Count heap pops made by both minimum-degree implementations."""
    pops = [0]
    real = heapq.heappop

    def counting(heap):
        pops[0] += 1
        return real(heap)

    monkeypatch.setattr(heapq, "heappop", counting)
    return pops


class TestUplooking:
    def test_matches_dense_cholesky(self):
        matrix = random_spd(30, 0.15, seed=0)
        factor = _reference_uplooking(matrix)
        dense = np.linalg.cholesky(matrix.toarray())
        assert np.allclose(factor.lower.toarray(), dense, atol=1e-10)

    def test_matches_dense_on_grounded_laplacian(self, spd_matrix):
        factor = _reference_uplooking(spd_matrix)
        dense = np.linalg.cholesky(spd_matrix.toarray())
        assert np.allclose(factor.lower.toarray(), dense, atol=1e-10)

    def test_with_permutation(self, spd_matrix):
        perm = rcm_ordering(spd_matrix)
        factor = _reference_uplooking(spd_matrix, perm=perm)
        permuted = permute_symmetric(spd_matrix, perm)
        reconstruction = (factor.lower @ factor.lower.T).toarray()
        assert np.allclose(reconstruction, permuted.toarray(), atol=1e-10)

    def test_rejects_indefinite(self):
        matrix = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            _reference_uplooking(matrix)

    def test_solve(self, spd_matrix):
        factor = _reference_uplooking(spd_matrix)
        rng = np.random.default_rng(1)
        b = rng.normal(size=spd_matrix.shape[0])
        x = factor.solve(b)
        assert np.allclose(spd_matrix @ x, b, atol=1e-8)


class TestSuperluEngine:
    def test_agrees_with_uplooking(self, spd_matrix):
        perm = compute_ordering(spd_matrix, "rcm")
        fast = cholesky(spd_matrix, perm=perm)
        slow = _reference_uplooking(spd_matrix, perm=perm)
        assert np.allclose(fast.lower.toarray(), slow.lower.toarray(), atol=1e-9)

    @pytest.mark.parametrize("ordering", ORDERING_METHODS)
    def test_agrees_with_uplooking_under_every_ordering(
        self, spd_matrix, ordering
    ):
        fast = cholesky(spd_matrix, ordering=ordering)
        slow = _reference_uplooking(spd_matrix, perm=fast.perm)
        assert np.allclose(fast.lower.toarray(), slow.lower.toarray(), atol=1e-9)

    def test_rejects_indefinite_like_the_reference(self):
        matrix = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(matrix, ordering="natural")

    def test_solve_matches_direct(self, spd_matrix):
        factor = cholesky(spd_matrix, ordering="amd")
        rng = np.random.default_rng(2)
        b = rng.normal(size=spd_matrix.shape[0])
        x = factor.solve(b)
        assert np.allclose(spd_matrix @ x, b, atol=1e-8)

    def test_solve_2d_rhs(self, spd_matrix):
        factor = cholesky(spd_matrix, ordering="rcm")
        rng = np.random.default_rng(3)
        b = rng.normal(size=(spd_matrix.shape[0], 4))
        x = factor.solve(b)
        assert np.allclose(spd_matrix @ x, b, atol=1e-8)

    def test_logdet(self):
        matrix = random_spd(20, 0.2, seed=5)
        factor = cholesky(matrix, ordering="natural")
        sign, expected = np.linalg.slogdet(matrix.toarray())
        assert sign > 0
        assert np.isclose(factor.logdet(), expected)

    def test_half_solve_norm_gives_quadratic_form(self, spd_matrix):
        """||L^{-1} P b||^2 must equal b^T A^{-1} b (basis of Eq. 7)."""
        factor = cholesky(spd_matrix, ordering="amd")
        rng = np.random.default_rng(4)
        b = rng.normal(size=spd_matrix.shape[0])
        y = factor.half_solve(b)
        direct = float(b @ factor.solve(b))
        assert np.isclose(float(y @ y), direct, rtol=1e-8)


class TestOrderings:
    def test_all_orderings_are_permutations(self, spd_matrix):
        n = spd_matrix.shape[0]
        for method in ORDERING_METHODS:
            perm = compute_ordering(spd_matrix, method)
            assert np.array_equal(np.sort(perm), np.arange(n))

    def test_unknown_method(self, spd_matrix):
        with pytest.raises(ValueError, match="unknown ordering"):
            compute_ordering(spd_matrix, "zzz")

    def test_unknown_method_lists_the_valid_names(self, spd_matrix):
        with pytest.raises(ValueError) as info:
            compute_ordering(spd_matrix, "zzz")
        message = str(info.value)
        assert "'zzz'" in message
        for name in ORDERING_METHODS:
            assert name in message

    @pytest.mark.parametrize("alias", ["mindeg", "minimum_degree"])
    def test_minimum_degree_aliases_are_gone(self, spd_matrix, alias):
        with pytest.raises(ValueError, match="unknown ordering"):
            compute_ordering(spd_matrix, alias)

    def test_inverse_permutation(self):
        perm = np.array([2, 0, 3, 1])
        inv = inverse_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(4))
        assert np.array_equal(inv[perm], np.arange(4))

    def test_permute_symmetric_values(self):
        matrix = random_spd(10, 0.3, seed=8)
        perm = np.random.default_rng(0).permutation(10)
        permuted = permute_symmetric(matrix, perm)
        dense = matrix.toarray()
        assert np.allclose(permuted.toarray(), dense[np.ix_(perm, perm)])

    def test_minimum_degree_reduces_fill_on_grid(self):
        graph = grid_2d(12, 12)
        matrix, _ = grounded_laplacian(graph, 1.0)
        natural = cholesky(matrix, ordering="natural").nnz
        mindeg = cholesky(matrix, ordering="amd").nnz
        assert mindeg < natural

    def test_minimum_degree_star_center_near_last(self):
        """On a star the centre (initial degree n-1) is eliminated among the
        last two pivots — it only ties with the final leaf at degree 1."""
        from repro.graphs.generators import star_graph

        matrix, _ = grounded_laplacian(star_graph(9), 1.0)
        perm = minimum_degree_ordering(matrix)
        assert int(np.flatnonzero(perm == 0)[0]) >= 7


class TestSupervariableMinimumDegree:
    @pytest.mark.parametrize("name", sorted(ORDERING_PANEL))
    def test_result_is_a_permutation(self, name):
        matrix = ORDERING_PANEL[name]
        perm = minimum_degree_ordering(matrix)
        assert perm.dtype == np.int64
        assert np.array_equal(np.sort(perm), np.arange(matrix.shape[0]))

    @pytest.mark.parametrize("name", sorted(ORDERING_PANEL))
    def test_exact_fill_no_worse_than_reference(self, name):
        matrix = ORDERING_PANEL[name]
        fill = cholesky(matrix, perm=minimum_degree_ordering(matrix)).nnz
        reference = cholesky(matrix, perm=_reference_minimum_degree(matrix.copy())).nnz
        assert fill <= reference

    def test_twin_hubs_are_mass_eliminated(self, monkeypatch):
        """K_{2,n}: the first leaf pivot makes the two hubs indistinguishable;
        they merge into one supervariable, are popped once and land next to
        each other in ``perm`` although their ids are far apart.  With
        n = 20 the hubs' degrees stay exact (below ``exact_degree_limit``),
        so the pair is popped before the dense tail takes the rest."""
        n = 20
        matrix = grounded_laplacian(_complete_bipartite(n), 1.0)[0]
        pops = _count_pops(monkeypatch)
        _reference_minimum_degree(matrix.copy())
        reference_pops, pops[0] = pops[0], 0
        perm = minimum_degree_ordering(matrix)
        assert pops[0] < n + 2
        assert pops[0] < reference_pops
        position = np.argsort(perm)
        assert abs(int(position[0]) - int(position[n + 1])) == 1

    def test_empty_and_single_node(self):
        assert minimum_degree_ordering(sp.csr_matrix((0, 0))).shape == (0,)
        assert minimum_degree_ordering(sp.csr_matrix(np.eye(1))).tolist() == [0]

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_input_matrix_is_not_modified(self, fmt):
        small = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]])).asformat(fmt)
        minimum_degree_ordering(small)
        assert np.array_equal(small.toarray(), [[2.0, -1.0], [-1.0, 2.0]])

        mesh = ORDERING_PANEL["grid12"].asformat(fmt)
        before = mesh.copy()
        minimum_degree_ordering(mesh)
        assert mesh.nnz == before.nnz
        assert (mesh != before).nnz == 0

    def test_asymmetric_pattern_orders_like_its_symmetrisation(self):
        """The quotient graph is built from the pattern of A + Aᵀ."""
        matrix = ORDERING_PANEL["fe_mesh"]
        lower = sp.tril(matrix).tocsr()
        # drop a few lower entries too, so neither triangle holds the graph
        lower.data[::7] = 0.0
        lower.eliminate_zeros()
        lower = lower + sp.diags(matrix.diagonal())
        symmetric = (abs(lower) + abs(lower.T)).tocsr()
        assert (lower != lower.T).nnz > 0
        assert np.array_equal(
            minimum_degree_ordering(lower), minimum_degree_ordering(symmetric)
        )


class TestFactorProperties:
    def test_laplacian_factor_sign_structure(self, weighted_mesh):
        """Cholesky factor of an SDD M-matrix: positive diagonal,
        nonpositive off-diagonal (the paper's Lemma 1 precondition)."""
        matrix, _ = grounded_laplacian(weighted_mesh, 1.0)
        factor = cholesky(matrix, ordering="amd")
        lower = factor.lower.tocoo()
        diag_mask = lower.row == lower.col
        assert np.all(lower.data[diag_mask] > 0)
        assert np.all(lower.data[~diag_mask] <= 1e-12)

    def test_reconstruction(self, weighted_mesh):
        matrix, _ = grounded_laplacian(weighted_mesh, 1.0)
        factor = cholesky(matrix, ordering="rcm")
        permuted = permute_symmetric(matrix, factor.perm)
        reconstruction = (factor.lower @ factor.lower.T).toarray()
        assert np.allclose(reconstruction, permuted.toarray(), atol=1e-10)
