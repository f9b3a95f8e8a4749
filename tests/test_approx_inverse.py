"""Tests for Alg. 2 — the sparse approximate inverse of a Cholesky factor."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.approx_inverse as approx_inverse_module
from repro.cholesky.depth import filled_graph_depth
from repro.cholesky.incomplete import ichol
from repro.cholesky.numeric import cholesky
from repro.core.approx_inverse import approximate_inverse, approximate_inverses
from repro.core.error_bounds import column_error_report, theorem1_bound
from repro.core.truncation import truncation_keep_mask
from repro.graphs.generators import (
    barabasi_albert_graph,
    fe_mesh_2d,
    grid_2d,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian


@pytest.fixture
def mesh_factor():
    graph = fe_mesh_2d(8, 8, seed=11)
    matrix, _ = grounded_laplacian(graph, 1.0)
    return cholesky(matrix, ordering="amd")


class TestExactLimit:
    def test_eps_zero_gives_exact_inverse(self, mesh_factor):
        z, _ = approximate_inverse(mesh_factor.lower, epsilon=0.0)
        identity = (mesh_factor.lower @ z).toarray()
        assert np.allclose(identity, np.eye(mesh_factor.n), atol=1e-9)

    def test_eps_zero_dense_reference(self):
        graph = grid_2d(5, 5)
        matrix, _ = grounded_laplacian(graph, 1.0)
        factor = cholesky(matrix, ordering="natural")
        z, _ = approximate_inverse(factor.lower, epsilon=0.0)
        reference = np.linalg.inv(factor.lower.toarray())
        assert np.allclose(z.toarray(), reference, atol=1e-10)


class TestStructure:
    def test_lemma1_nonnegative(self, mesh_factor):
        """Lemma 1: Z = L^{-1} of a Laplacian Cholesky factor is >= 0,
        and truncation preserves nonnegativity."""
        for eps in (0.0, 1e-3, 1e-1):
            z, _ = approximate_inverse(mesh_factor.lower, epsilon=eps)
            assert z.nnz == 0 or z.data.min() >= 0.0

    def test_lower_triangular(self, mesh_factor):
        z, _ = approximate_inverse(mesh_factor.lower, epsilon=1e-3)
        assert sp.triu(z, k=1).nnz == 0

    def test_diagonal_is_reciprocal(self, mesh_factor):
        z, _ = approximate_inverse(mesh_factor.lower, epsilon=1e-3)
        assert np.allclose(z.diagonal(), 1.0 / mesh_factor.lower.diagonal())

    def test_truncation_reduces_nnz(self, mesh_factor):
        z_exact, _ = approximate_inverse(mesh_factor.lower, epsilon=0.0)
        z_small, _ = approximate_inverse(mesh_factor.lower, epsilon=1e-1)
        assert z_small.nnz < z_exact.nnz


class TestTheorem1:
    def test_column_bound_holds(self, mesh_factor):
        eps = 1e-2
        z, _ = approximate_inverse(mesh_factor.lower, epsilon=eps)
        report = column_error_report(
            mesh_factor.lower, z, eps, sample_nodes=np.arange(mesh_factor.n)
        )
        assert report.max_violation <= 1e-10

    def test_column_bound_holds_incomplete(self):
        graph = fe_mesh_2d(9, 7, seed=5)
        matrix, _ = grounded_laplacian(graph, 1.0)
        result = ichol(matrix, drop_tol=1e-3, ordering="rcm")
        eps = 5e-2
        z, _ = approximate_inverse(result.lower, epsilon=eps)
        report = column_error_report(
            result.lower, z, eps, sample_nodes=np.arange(matrix.shape[0])
        )
        assert report.max_violation <= 1e-10

    def test_bound_vector(self, mesh_factor):
        bound = theorem1_bound(mesh_factor.lower, 1e-3)
        assert bound.shape == (mesh_factor.n,)
        assert np.all(bound >= 0)


class TestInterface:
    def test_stats(self, mesh_factor):
        z, stats = approximate_inverse(mesh_factor.lower, epsilon=1e-3)
        assert stats.nnz == z.nnz
        assert stats.n == mesh_factor.n
        assert stats.columns_truncated + stats.columns_kept_whole == mesh_factor.n
        assert stats.nnz_per_nlogn > 0
        assert stats.average_column_nnz == z.nnz / mesh_factor.n

    def test_small_column_threshold_keeps_columns_whole(self, mesh_factor):
        _, stats = approximate_inverse(
            mesh_factor.lower, epsilon=0.5, small_column_threshold=float("inf")
        )
        assert stats.columns_truncated == 0

    def test_negative_eps_raises(self, mesh_factor):
        with pytest.raises(ValueError):
            approximate_inverse(mesh_factor.lower, epsilon=-1e-3)

    def test_rejects_bad_diagonal(self):
        lower = sp.csc_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            approximate_inverse(lower, epsilon=0.0)

    @pytest.mark.parametrize("mode", ["blocked", "reference"])
    def test_empty_column_reports_clearly(self, mode):
        """Regression: an empty column used to make the diagonal-first check
        read the *next* column's first entry (or run off the end of the
        index array for a trailing empty column)."""
        # middle column empty
        middle = sp.csc_matrix(
            (np.array([1.0, 2.0]), np.array([0, 2]), np.array([0, 1, 1, 2])),
            shape=(3, 3),
        )
        with pytest.raises(ValueError, match="empty column 1"):
            approximate_inverse(middle, epsilon=0.0, mode=mode)
        # trailing column empty — previously an out-of-bounds read
        trailing = sp.csc_matrix(
            (np.array([1.0, 2.0]), np.array([0, 1]), np.array([0, 1, 2, 2])),
            shape=(3, 3),
        )
        with pytest.raises(ValueError, match="empty column 2"):
            approximate_inverse(trailing, epsilon=0.0, mode=mode)

    @pytest.mark.parametrize("mode", ["blocked", "reference"])
    def test_modes_share_validation(self, mesh_factor, mode):
        with pytest.raises(ValueError):
            approximate_inverse(mesh_factor.lower, epsilon=-1.0, mode=mode)

    @pytest.mark.parametrize("mode", ["blocked", "reference"])
    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_epsilon(self, mesh_factor, mode, epsilon):
        # a NaN budget used to pass the `< 0` check and drop diagonals
        with pytest.raises(
            ValueError, match=f"epsilon must be a finite number >= 0, got {epsilon}"
        ):
            approximate_inverse(mesh_factor.lower, epsilon=epsilon, mode=mode)

    @pytest.mark.parametrize("mode", ["blocked", "reference"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("offset", [0, 1], ids=["diagonal", "below"])
    def test_rejects_non_finite_factor_entry(self, mesh_factor, mode, bad, offset):
        # a non-finite entry used to reach the truncation, which dropped
        # NaN entries silently (a NaN pivot also passed the `<= 0` check);
        # the first offending column is named
        lower = sp.csc_matrix(mesh_factor.lower, copy=True)
        lower.sort_indices()
        column = 5
        lower.data[lower.indptr[column] + offset] = bad
        lower.data[lower.indptr[column + 3] + 1] = bad
        row = lower.indices[lower.indptr[column] + offset]
        with pytest.raises(
            ValueError, match=f"non-finite entry {bad} at row {row} of column {column}$"
        ):
            approximate_inverse(lower, epsilon=1e-3, mode=mode)

    @pytest.mark.parametrize("mode", ["blocked", "reference"])
    def test_list_of_factors(self, mesh_factor, mode):
        assert approximate_inverses([], mode=mode) == []
        bad = sp.csc_matrix(
            (np.array([1.0, 2.0]), np.array([0, 2]), np.array([0, 1, 1, 2])),
            shape=(3, 3),
        )
        with pytest.raises(ValueError, match="empty column 1"):
            approximate_inverses([mesh_factor.lower, bad], mode=mode)

    def test_blocked_is_default_and_matches_reference(self, mesh_factor):
        z_default, _ = approximate_inverse(mesh_factor.lower, epsilon=1e-3)
        z_ref, _ = approximate_inverse(
            mesh_factor.lower, epsilon=1e-3, mode="reference"
        )
        assert np.array_equal(z_default.indices, z_ref.indices)
        assert np.allclose(z_default.data, z_ref.data, rtol=1e-12, atol=0.0)


class TestDiagonalTruncation:
    """A ``1/L_jj`` diagonal term small enough to fall under its column's
    Eq. (10) budget is an ordinary truncation candidate in the blocked
    kernel, exactly as in the per-column reference."""

    def test_blocked_matches_reference_with_eligible_diagonals(self, monkeypatch):
        graph = grid_2d(40, 40, jitter=0.3, seed=3)
        matrix, _ = grounded_laplacian(graph, float(graph.weights.mean()))
        lower = ichol(matrix, drop_tol=1e-3, ordering="amd").lower
        epsilon = 0.3
        eligible = []
        truncate_block = approx_inverse_module._truncate_block

        def spy(cols, bindptr, bindices, bdata, diag_vals, eps, keep_whole_nnz):
            # columns of this block whose diagonal is under the budget
            counts = np.diff(bindptr)
            owner = np.repeat(np.arange(cols.shape[0]), counts)
            totals = np.bincount(owner, np.abs(bdata), minlength=cols.shape[0])
            big = counts + 1 > keep_whole_nnz
            eligible.append(
                int(np.count_nonzero(big & (diag_vals <= eps * (totals + diag_vals))))
            )
            return truncate_block(
                cols, bindptr, bindices, bdata, diag_vals, eps, keep_whole_nnz
            )

        monkeypatch.setattr(approx_inverse_module, "_truncate_block", spy)
        z_blocked, _ = approximate_inverse(lower, epsilon=epsilon)
        assert sum(eligible) > 0, "the case no longer reaches the branch"
        z_ref, _ = approximate_inverse(lower, epsilon=epsilon, mode="reference")
        assert np.array_equal(z_blocked.indptr, z_ref.indptr)
        assert np.array_equal(z_blocked.indices, z_ref.indices)
        np.testing.assert_allclose(z_blocked.data, z_ref.data, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("first_diag", [1e-4, 1.0])
    def test_block_scan_matches_truncation_keep_mask(self, first_diag):
        # three columns of one level: a heavy dependency block whose
        # diagonal is tiny (drops) or ordinary (stays), a column whose two
        # small entries drop, and a column at the keep-whole threshold.
        # Every candidate drops and none straddles the budget, so the
        # chunk has no crossing band to sort.
        cols = np.array([0, 1, 4])
        dep_rows = [[2, 3, 4, 5, 6], [3, 5, 7], [6]]
        dep_vals = [[1.0, 0.5, 0.25, 0.01, 0.002], [0.3, 0.02, 1e-3], [1e-9]]
        diag_vals = np.array([first_diag, 2.0, 1.0])
        bindptr = np.concatenate([[0], np.cumsum([len(r) for r in dep_rows])])
        bindices = np.concatenate(dep_rows).astype(np.int32)
        bdata = np.concatenate(dep_vals)
        epsilon, keep_whole_nnz = 0.05, np.full(3, 2.0)
        out_ptr, out_rows, out_vals, truncated = (
            approx_inverse_module._truncate_block(
                cols, bindptr, bindices, bdata, diag_vals, epsilon, keep_whole_nnz
            )
        )
        assert truncated.tolist() == [True, True, False]
        for c, j in enumerate(cols):
            rows = np.concatenate([[j], dep_rows[c]])
            vals = np.concatenate([[diag_vals[c]], dep_vals[c]])
            if rows.shape[0] > keep_whole_nnz[c]:
                keep = truncation_keep_mask(vals, epsilon)
                rows, vals = rows[keep], vals[keep]
            lo, hi = out_ptr[c], out_ptr[c + 1]
            assert np.array_equal(out_rows[lo:hi], rows)
            assert np.array_equal(out_vals[lo:hi], vals)
        first_column = out_rows[out_ptr[0]:out_ptr[1]]
        assert (0 in first_column) == (first_diag == 1.0)
        assert out_rows[out_ptr[1]] == 1, "ordinary diagonal must stay"

    @pytest.mark.parametrize("epsilon, kept", [(0.375, 2), (0.5, 1)])
    def test_subnormal_budget_never_rounds_up(self, epsilon, kept):
        # ε·(5e-324 + 5e-324) = 0.375 · 1e-323 rounds up to 5e-324: one
        # entry, half the column's mass, must not fit under it
        vals = np.array([5e-324, 5e-324])
        out_ptr, out_rows, out_vals, truncated = approx_inverse_module._truncate_block(
            np.array([0]), np.array([0, 1]), np.array([1], dtype=np.int32), vals[1:],
            vals[:1], epsilon, np.zeros(1),
        )
        assert truncated.tolist() == [True]
        assert out_ptr.tolist() == [0, kept]
        assert np.count_nonzero(truncation_keep_mask(vals, epsilon)) == kept


# graphs spanning the level shapes Alg. 2 meets, with their orderings;
# natural order on a path gives a chain etree, one column per level
BYTE_IDENTITY_GRAPHS = {
    "path": (lambda: path_graph(60), "natural"),
    "star": (lambda: star_graph(80), "amd"),
    "ba500": (lambda: barabasi_albert_graph(500, 3, seed=4), "amd"),
    "grid20": (lambda: grid_2d(20, 20, jitter=0.3, seed=2), "amd"),
    "union3": (
        lambda: Graph.disjoint_union([
            grid_2d(8, 8, jitter=0.3, seed=5),
            barabasi_albert_graph(80, 2, seed=6),
            path_graph(20),
        ]),
        "amd",
    ),
}


# the factors of every graph above, co-scheduled in one level sweep
COSCHEDULED = "coscheduled"


@pytest.fixture(scope="module")
def byte_identity_panel():
    """Name → ICT factors: one per ``BYTE_IDENTITY_GRAPHS`` entry, and
    all of them under ``COSCHEDULED``."""
    panel = {}
    for name, (make_graph, ordering) in BYTE_IDENTITY_GRAPHS.items():
        graph = make_graph()
        matrix, _ = grounded_laplacian(graph, float(graph.weights.mean()))
        panel[name] = [ichol(matrix, drop_tol=1e-3, ordering=ordering).lower]
    panel[COSCHEDULED] = [factors[0] for factors in panel.values()]
    return panel


class TestBlockedByteIdenticalToReference:
    """The blocked kernel reproduces the column-at-a-time reference byte
    for byte: ``csr_matmat`` sums each column's contributions from zero in
    dependency order and keeps only nonzero sums, exactly like the
    reference's scatter-add, and the block truncation makes the reference's
    Eq. (10) decisions.  Chunking is forced small so levels split and, with
    two workers, fan out."""

    @pytest.fixture(autouse=True)
    def force_chunking(self, monkeypatch):
        monkeypatch.setattr(approx_inverse_module, "_CHUNK_TARGET_NNZ", 64)

    def test_path_has_one_column_per_level(self, byte_identity_panel):
        levels = filled_graph_depth(byte_identity_panel["path"][0])
        assert np.array_equal(np.bincount(levels), np.ones(60, dtype=np.int64))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.1])
    @pytest.mark.parametrize("name", sorted(BYTE_IDENTITY_GRAPHS) + [COSCHEDULED])
    def test_same_bytes_and_stats(self, byte_identity_panel, name, epsilon, workers):
        factors = byte_identity_panel[name]
        results = approximate_inverses(factors, epsilon=epsilon, build_workers=workers)
        assert len(results) == len(factors)
        for lower, (z_blocked, stats_blocked) in zip(factors, results):
            z_ref, stats_ref = approximate_inverse(lower, epsilon=epsilon, mode="reference")
            for part in ("indptr", "indices", "data"):
                blocked, ref = getattr(z_blocked, part), getattr(z_ref, part)
                assert blocked.dtype == ref.dtype, part
                assert blocked.tobytes() == ref.tobytes(), part
            assert stats_blocked == stats_ref


class TestIndexRange:
    def test_pool_refuses_to_outgrow_int32_indptr(self, monkeypatch):
        graph = grid_2d(12, 12, jitter=0.3, seed=1)
        matrix, _ = grounded_laplacian(graph, 1.0)
        lower = cholesky(matrix, ordering="amd").lower
        z, _ = approximate_inverse(lower, epsilon=1e-3)
        monkeypatch.setattr(approx_inverse_module, "_MAX_POOL_ENTRIES", z.nnz - 1)
        with pytest.raises(OverflowError, match=r"nnz\(Z̃\) is \d+") as info:
            approximate_inverse(lower, epsilon=1e-3)
        assert "epsilon" in str(info.value)
        assert "max_shard_nodes=" in str(info.value)
        # the limit itself is still allowed
        monkeypatch.setattr(approx_inverse_module, "_MAX_POOL_ENTRIES", z.nnz)
        z_at_limit, _ = approximate_inverse(lower, epsilon=1e-3)
        assert z_at_limit.nnz == z.nnz

    def test_matmat_refuses_a_bound_past_int32_before_allocating(self, monkeypatch):
        # a 2x2 identity times itself: the bound sizes the int32 output
        ptr = np.array([0, 1, 2], dtype=np.int32)
        idx = np.array([0, 1], dtype=np.int32)
        val = np.array([2.0, 3.0])
        monkeypatch.setattr(approx_inverse_module, "_MAX_POOL_ENTRIES", 4)
        with pytest.raises(OverflowError, match=r"up to 5 entries") as info:
            approx_inverse_module._raw_matmat(2, 2, ptr, idx, val, ptr, idx, val, 5)
        assert "epsilon" in str(info.value)
        assert "max_shard_nodes=" in str(info.value)
        # the limit itself is still allowed
        out_ptr, out_idx, out_val = approx_inverse_module._raw_matmat(
            2, 2, ptr, idx, val, ptr, idx, val, 4
        )
        assert out_ptr.tolist() == [0, 1, 2]
        assert out_idx.tolist() == [0, 1]
        assert out_val.tolist() == [4.0, 9.0]
