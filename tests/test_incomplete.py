"""Tests for the threshold incomplete Cholesky (ICT) factorisation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cholesky import incomplete as incomplete_module
from repro.cholesky.incomplete import CholeskyBreakdownError, _leaf_columns, ichol
from repro.cholesky.numeric import cholesky
from repro.cholesky.ordering import permute_symmetric
from repro.core.engine import EngineConfig, build_engine
from repro.graphs.generators import barabasi_albert_graph, fe_mesh_2d, grid_2d, path_graph
from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian
from repro.linalg.pcg import ichol_preconditioner, pcg
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig


class TestExactLimit:
    def test_zero_droptol_equals_complete_factor(self, spd_matrix):
        incomplete = ichol(spd_matrix, drop_tol=0.0, ordering="natural")
        complete = cholesky(spd_matrix, ordering="natural")
        assert np.allclose(
            incomplete.lower.toarray(), complete.lower.toarray(), atol=1e-9
        )

    def test_zero_droptol_with_ordering(self, spd_matrix):
        incomplete = ichol(spd_matrix, drop_tol=0.0, ordering="rcm")
        complete = cholesky(spd_matrix, ordering="rcm")
        assert np.allclose(
            incomplete.lower.toarray(), complete.lower.toarray(), atol=1e-9
        )


class TestDropping:
    def test_droptol_reduces_nnz(self, weighted_mesh):
        matrix, _ = grounded_laplacian(weighted_mesh, 1.0)
        exact = ichol(matrix, drop_tol=0.0, ordering="rcm")
        dropped = ichol(matrix, drop_tol=1e-2, ordering="rcm")
        assert dropped.nnz < exact.nnz

    def test_residual_scales_with_droptol(self):
        graph = grid_2d(10, 10)
        matrix, _ = grounded_laplacian(graph, 1.0)
        residuals = []
        for tol in (1e-1, 1e-2, 1e-3):
            result = ichol(matrix, drop_tol=tol, ordering="rcm")
            permuted = permute_symmetric(matrix, result.perm)
            residual = permuted - result.lower @ result.lower.T
            residuals.append(abs(residual).max())
        assert residuals[0] > residuals[1] > residuals[2]

    def test_m_matrix_sign_structure(self, weighted_mesh):
        """ICT of an SDD M-matrix keeps Lemma 1's sign structure."""
        matrix, _ = grounded_laplacian(weighted_mesh, 1.0)
        result = ichol(matrix, drop_tol=1e-3, ordering="amd")
        coo = result.lower.tocoo()
        diag_mask = coo.row == coo.col
        assert np.all(coo.data[diag_mask] > 0)
        assert np.all(coo.data[~diag_mask] <= 1e-12)

    def test_max_fill_cap(self, weighted_mesh):
        matrix, _ = grounded_laplacian(weighted_mesh, 1.0)
        result = ichol(matrix, drop_tol=0.0, max_fill=3, ordering="natural")
        per_column = np.diff(result.lower.indptr)
        assert per_column.max() <= 4  # diagonal + max_fill

    def test_invalid_droptol(self, spd_matrix):
        with pytest.raises(ValueError):
            ichol(spd_matrix, drop_tol=-1.0)

    @pytest.mark.parametrize("drop_tol", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_droptol_is_named(self, spd_matrix, drop_tol):
        # NaN used to pass the `< 0` check; +inf dropped every off-diagonal
        with pytest.raises(
            ValueError, match=f"drop_tol must be a finite number >= 0, got {drop_tol}"
        ):
            ichol(spd_matrix, drop_tol=drop_tol)


class TestBreakdownRecovery:
    def test_shift_retry_succeeds(self):
        """Aggressive dropping on an ill-conditioned SPD matrix can break
        down; the Manteuffel retry must still deliver a usable factor."""
        rng = np.random.default_rng(0)
        n = 40
        # nearly singular SPD matrix with strong off-diagonal coupling
        base = rng.normal(size=(n, n))
        spd = base @ base.T + 1e-4 * np.eye(n)
        matrix = sp.csc_matrix(spd)
        result = ichol(matrix, drop_tol=0.5, ordering="natural")
        assert result.lower.shape == (n, n)
        assert np.all(result.lower.diagonal() > 0)

    def test_missing_diagonal_raises(self):
        matrix = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(CholeskyBreakdownError):
            ichol(matrix, max_retries=0)


class TestPreconditioning:
    def test_ict_accelerates_pcg(self):
        graph = fe_mesh_2d(12, 12, seed=3)
        matrix, _ = grounded_laplacian(graph, 1.0)
        rng = np.random.default_rng(5)
        b = rng.normal(size=matrix.shape[0])
        plain = pcg(matrix, b, rtol=1e-8)
        factor = ichol(matrix, drop_tol=1e-2, ordering="rcm")
        preconditioned = pcg(
            matrix, b, preconditioner=ichol_preconditioner(factor), rtol=1e-8
        )
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations


def _reference_ict(
    n: int,
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    a_data: np.ndarray,
    drop_tol: float,
    max_fill: "int | None",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The per-contribution ICT sweep, kept as the executable specification.

    One ``w[rows] -= L(j, k) · L(rows, k)`` numpy round-trip per
    contribution, in Jones–Plassmann FIFO order, with the vectorised leaf
    batch; ``ichol`` must reproduce its factor bit for bit.
    """
    column_nnz = np.diff(a_indptr)
    bad = np.flatnonzero(column_nnz == 0)
    if bad.size:
        raise CholeskyBreakdownError(
            f"structurally missing diagonal at column {int(bad[0])}"
        )
    bad = np.flatnonzero(a_indices[a_indptr[:-1]] != np.arange(n))
    if bad.size:
        raise CholeskyBreakdownError(
            f"structurally missing diagonal at column {int(bad[0])}"
        )

    # dependency-free leaves: a node with no lower-numbered neighbour in A
    # has a structurally empty row of L (row patterns are reachability sets
    # of the earlier neighbours), so no earlier column can ever update it —
    # the whole batch factors vectorised up front, whatever gets dropped
    is_diag = np.zeros(a_indices.shape[0], dtype=bool)
    is_diag[a_indptr[:-1]] = True
    has_earlier = np.zeros(n, dtype=bool)
    has_earlier[a_indices[~is_diag]] = True
    leaf = ~has_earlier
    lcols = np.flatnonzero(leaf)
    if lcols.size:
        leaf_slot = np.full(n, -1, dtype=np.int64)
        leaf_slot[lcols] = np.arange(lcols.shape[0])
        leaf_ptr, leaf_rows, leaf_vals, leaf_diag = _leaf_columns(
            lcols, a_indptr, a_indices, a_data, drop_tol, max_fill
        )

    # the computed factor lives in one growable arena (rows/vals plus a
    # start/end pair per column); columns are appended in order, so the
    # arena read front-to-back *is* the CSC layout of L.  The per-column
    # scalar state (starts, ends, cursors, FIFO chains) lives in plain
    # Python lists: scalar list access is several times cheaper than numpy
    # scalar indexing, and this loop is all scalar bookkeeping.
    capacity = max(2 * a_indices.shape[0], 64)
    out_rows = np.empty(capacity, dtype=np.int64)
    out_vals = np.empty(capacity)
    out_start = [0] * n
    out_end = [0] * n
    used = 0

    # Jones–Plassmann work lists as flat FIFO chains: head/tail anchor the
    # columns whose cursor row is r, link threads them.  FIFO preserves the
    # reference update order (and therefore its floating-point rounding).
    head = [-1] * n
    tail = [-1] * n
    link = [-1] * n
    cursor = [0] * n

    w = np.zeros(n)  # dense scratch column
    leaf_flags = leaf.tolist()

    for j in range(n):
        if leaf_flags[j]:
            slot = leaf_slot[j]
            lo, hi = leaf_ptr[slot], leaf_ptr[slot + 1]
            below = leaf_rows[lo:hi]
            vals_below = leaf_vals[lo:hi]
            diag = leaf_diag[slot]
        else:
            start, end = a_indptr[j], a_indptr[j + 1]
            rows_a = a_indices[start:end]
            vals_a = a_data[start:end]
            w[rows_a] = vals_a
            col_norm = float(np.abs(vals_a).sum())
            touched = [rows_a]

            k = head[j]
            head[j] = -1
            while k != -1:
                base = out_start[k] + cursor[k]
                stop = out_end[k]
                seg_rows = out_rows[base:stop]
                seg_vals = out_vals[base:stop]
                w[seg_rows] -= seg_vals[0] * seg_vals
                touched.append(seg_rows)
                nxt = link[k]
                if base + 1 < stop:
                    cursor[k] += 1
                    r = int(out_rows[base + 1])
                    link[k] = -1
                    if head[r] == -1:
                        head[r] = k
                    else:
                        link[tail[r]] = k
                    tail[r] = k
                k = nxt

            pivot = w[j]
            if pivot <= 0.0:
                raise CholeskyBreakdownError(
                    f"nonpositive pivot {pivot:g} at column {j}"
                )
            diag = np.sqrt(pivot)

            # candidate pattern: one sort of the gathered segment rows.  At
            # ~tens of sorted segments per column an elementwise in-place
            # merge costs more numpy dispatch than this single small sort.
            idx = np.unique(np.concatenate(touched)) if len(touched) > 1 else rows_a
            vals = w[idx]
            w[idx] = 0.0
            below_mask = idx > j
            below = idx[below_mask]
            vals_below = vals[below_mask]

            keep = np.abs(vals_below) > drop_tol * col_norm
            below = below[keep]
            vals_below = vals_below[keep]
            if max_fill is not None and below.shape[0] > max_fill:
                top = np.argpartition(np.abs(vals_below), -max_fill)[-max_fill:]
                order = np.sort(top)
                below = below[order]
                vals_below = vals_below[order]
            vals_below = vals_below / diag

        count = 1 + below.shape[0]
        if used + count > out_rows.shape[0]:
            grown = max(2 * out_rows.shape[0], used + count)
            out_rows = np.concatenate(
                [out_rows[:used], np.empty(grown - used, dtype=np.int64)]
            )
            out_vals = np.concatenate([out_vals[:used], np.empty(grown - used)])
        out_rows[used] = j
        out_vals[used] = diag
        out_rows[used + 1:used + count] = below
        out_vals[used + 1:used + count] = vals_below
        out_start[j] = used
        out_end[j] = used + count
        used += count
        if count > 1:
            cursor[j] = 1
            r = int(below[0])
            if head[r] == -1:
                head[r] = j
            else:
                link[tail[r]] = j
            tail[r] = j

    indptr = np.zeros(n + 1, dtype=np.int64)
    lengths = np.asarray(out_end, dtype=np.int64) - np.asarray(out_start, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, out_rows[:used], out_vals[:used]


class TestRegressionVsReferenceSweeps:
    def test_ict_leaf_columns_match_scalar_path(self):
        """Columns with no lower-numbered neighbour take the vectorised
        leaf batch, the rest the scalar sweep; with ``drop_tol=0`` the
        stitched-together factor must equal the dense Cholesky factor of
        the permuted matrix."""
        graph = fe_mesh_2d(9, 8, seed=13)
        matrix, _ = grounded_laplacian(graph, 1.0)
        result = ichol(matrix, drop_tol=0.0, ordering="amd")
        dense = np.linalg.cholesky(
            permute_symmetric(matrix, result.perm).toarray()
        )
        assert np.allclose(result.lower.toarray(), dense, atol=1e-9)

    def test_ict_column_layout_sorted_diag_first(self, weighted_mesh):
        """The arena assembly must deliver sorted CSC with the diagonal
        stored first in every column (Alg. 2 validates exactly that)."""
        matrix, _ = grounded_laplacian(weighted_mesh, 1.0)
        result = ichol(matrix, drop_tol=1e-3, ordering="amd")
        lower = result.lower
        n = lower.shape[0]
        assert lower.has_sorted_indices
        heads = lower.indices[lower.indptr[:-1]]
        assert np.array_equal(heads, np.arange(n))
        for j in range(n):
            col = lower.indices[lower.indptr[j]:lower.indptr[j + 1]]
            assert np.all(np.diff(col) > 0)


def _reference_kernel(*args):
    """``_reference_ict`` in ``_ict_factor``'s return shape: it factors
    every column with the sparse sweep, so no column is dense."""
    return (*_reference_ict(*args), 0)


def _ichol_pair(monkeypatch, matrix, **kwargs):
    """``ichol`` with the production kernel and with the reference sweep
    swapped in (same ordering, tril extraction and shift retry), each
    with the number of kernel calls (1 + Manteuffel retries) it made."""
    calls = {"fast": 0, "reference": 0}

    def counted(kernel, key):
        def run(*args):
            calls[key] += 1
            return kernel(*args)
        return run

    with monkeypatch.context() as patched:
        patched.setattr(
            incomplete_module, "_ict_factor", counted(incomplete_module._ict_factor, "fast")
        )
        fast = ichol(matrix, **kwargs)
        patched.setattr(incomplete_module, "_ict_factor", counted(_reference_kernel, "reference"))
        reference = ichol(matrix, **kwargs)
    assert calls["fast"] == calls["reference"]
    return fast, reference


# the dense trailing block sums each column's updates in BLAS order, not
# in the sweep's Jones–Plassmann FIFO order, so its values may move by a
# few rounding errors (measured at most 7e-14 of the column max)
DENSE_BLOCK_RTOL = 1e-13


def _assert_same_factor(fast, reference) -> None:
    """Same pattern, perm and shift; columns before the switch byte for
    byte, the dense block within ``DENSE_BLOCK_RTOL`` of each column's
    largest magnitude."""
    for part in ("indptr", "indices"):
        assert getattr(fast.lower, part).tobytes() == getattr(reference.lower, part).tobytes(), part
    assert np.array_equal(fast.perm, reference.perm)
    assert fast.shift == reference.shift
    assert reference.dense_columns == 0
    indptr = fast.lower.indptr
    head = indptr[fast.n - fast.dense_columns]
    assert fast.lower.data[:head].tobytes() == reference.lower.data[:head].tobytes()
    for j in range(fast.n - fast.dense_columns, fast.n):
        got = fast.lower.data[indptr[j]:indptr[j + 1]]
        want = reference.lower.data[indptr[j]:indptr[j + 1]]
        assert np.abs(got - want).max() <= DENSE_BLOCK_RTOL * np.abs(want).max(), j


def _ict_graphs() -> "dict[str, Graph]":
    return {
        "grid_jitter": grid_2d(12, 12, jitter=0.3, seed=2),
        "ba": barabasi_albert_graph(250, 3, weight_low=0.5, weight_high=2.0, seed=4),
        "fe_mesh": fe_mesh_2d(9, 8, seed=13),
        "components": Graph.disjoint_union(
            [grid_2d(6, 7, jitter=0.3, seed=5), barabasi_albert_graph(60, 2, seed=6), path_graph(9)]
        ),
        # larger factors, where the switch lands well inside the sweep
        "ba_1000": barabasi_albert_graph(1000, 3, weight_low=0.5, weight_high=2.0, seed=4),
        "grid_30": grid_2d(30, 30, jitter=0.3, seed=2),
    }


def _nearly_singular_spd() -> sp.csc_matrix:
    """The dense ill-conditioned SPD matrix of ``test_shift_retry_succeeds``."""
    rng = np.random.default_rng(0)
    base = rng.normal(size=(40, 40))
    return sp.csc_matrix(base @ base.T + 1e-4 * np.eye(40))


class TestIctMatchesReference:
    """Up to the switch the kernel performs the reference sweep's
    subtractions in the same order, so those columns of ``L`` match it
    byte for byte; the dense trailing block keeps the pattern, the pivots'
    breakdowns and the shift, with values equal up to rounding."""

    @pytest.mark.parametrize("graph_name", sorted(_ict_graphs()))
    @pytest.mark.parametrize("drop_tol", [0.0, 1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("max_fill", [None, 3])
    def test_factor_matches(self, monkeypatch, graph_name, drop_tol, max_fill):
        matrix, _ = grounded_laplacian(_ict_graphs()[graph_name], 1.0)
        fast, reference = _ichol_pair(
            monkeypatch, matrix, drop_tol=drop_tol, max_fill=max_fill, ordering="amd"
        )
        assert 0 < fast.dense_columns < fast.n
        _assert_same_factor(fast, reference)

    @pytest.mark.parametrize("graph_name", ["ba_1000", "grid_30"])
    def test_switch_lands_mid_factor(self, graph_name):
        matrix, _ = grounded_laplacian(_ict_graphs()[graph_name], 1.0)
        result = ichol(matrix, drop_tol=1e-3, ordering="amd")
        assert 16 <= result.dense_columns <= result.n // 4

    def test_dense_block_never_exceeds_the_cap(self, monkeypatch):
        # BA-1000's half-density run is about 200 columns; under a cap of
        # 50 the switch waits until 50 columns remain
        matrix, _ = grounded_laplacian(_ict_graphs()["ba_1000"], 1.0)
        monkeypatch.setattr(incomplete_module, "_DENSE_MAX_COLUMNS", 50)
        fast, reference = _ichol_pair(monkeypatch, matrix, drop_tol=1e-3, ordering="amd")
        assert fast.dense_columns == 50
        _assert_same_factor(fast, reference)

    @pytest.mark.parametrize("drop_tol,max_retries", [(0.5, 12), (0.05, 30)])
    def test_shift_retry_matches(self, monkeypatch, drop_tol, max_retries):
        """The ``test_shift_retry_succeeds`` matrix: at τ = 0.5 it factors
        unshifted, at τ = 0.05 only after Manteuffel retries — both kernels
        must break down on the same attempts and agree on the final shift
        and factor.  Nearly all of this dense matrix is the dense block."""
        fast, reference = _ichol_pair(
            monkeypatch, _nearly_singular_spd(), drop_tol=drop_tol,
            ordering="natural", max_retries=max_retries,
        )
        assert (fast.shift > 0.0) == (drop_tol < 0.5)
        assert fast.dense_columns == fast.n - 1
        _assert_same_factor(fast, reference)

    @pytest.mark.parametrize("case", ["pivot", "missing_diagonal"])
    def test_breakdown_message_matches(self, monkeypatch, case):
        if case == "pivot":
            matrix, expected = _nearly_singular_spd(), "nonpositive pivot"
        else:
            matrix = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
            expected = "structurally missing diagonal"
        kwargs = dict(drop_tol=0.05, ordering="natural", max_retries=0)
        with pytest.raises(CholeskyBreakdownError) as fast:
            ichol(matrix, **kwargs)
        with monkeypatch.context() as patched:
            patched.setattr(incomplete_module, "_ict_factor", _reference_kernel)
            with pytest.raises(CholeskyBreakdownError) as reference:
                ichol(matrix, **kwargs)
        assert expected in str(fast.value)
        assert str(fast.value) == str(reference.value)


def _assert_close(got, want, rtol=1e-12) -> None:
    """Every entry within ``rtol`` of its own magnitude."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))


def _with_reference_kernel(monkeypatch, build):
    """``build()`` once as is and once with the reference sweep."""
    fast = build()
    with monkeypatch.context() as patched:
        patched.setattr(incomplete_module, "_ict_factor", _reference_kernel)
        reference = build()
    return fast, reference


class TestDenseTailAnswers:
    """Alg. 3's answers do not notice which kernel factored ``L``."""

    @pytest.mark.parametrize("graph_name", ["grid_jitter", "ba"])
    def test_all_edge_resistances(self, monkeypatch, graph_name):
        graph = {
            "grid_jitter": grid_2d(40, 40, jitter=0.3, seed=1),
            "ba": barabasi_albert_graph(2000, 3, seed=1),
        }[graph_name]
        fast, reference = _with_reference_kernel(
            monkeypatch, lambda: build_engine(graph, EngineConfig())
        )
        assert fast.ichol_result.dense_columns > 0
        assert fast.z_tilde.nnz == reference.z_tilde.nnz
        _assert_close(fast.all_edge_resistances(), reference.all_edge_resistances())

    def test_pg_schur_blocks_and_reduced_grid(self, monkeypatch):
        grid = synthetic_ibmpg_like(nx=24, ny=24, pad_pitch=6, seed=2)
        config = ReductionConfig(seed=1)
        reducer = PGReducer(grid, config)
        blocks = [reducer._schur_block(b).graph for b in range(reducer.num_blocks)]
        blocks = [block for block in blocks if block.num_edges]
        assert blocks

        def all_edge():
            engines = [build_engine(block, EngineConfig()) for block in blocks]
            return engines, [engine.all_edge_resistances() for engine in engines]

        (fast, fast_er), (_, reference_er) = _with_reference_kernel(monkeypatch, all_edge)
        assert max(engine.ichol_result.dense_columns for engine in fast) > 0
        for got, want in zip(fast_er, reference_er):
            _assert_close(got, want)

        fast_grid, reference_grid = _with_reference_kernel(
            monkeypatch, lambda: PGReducer(grid, config).reduce().grid
        )
        assert fast_grid.node_names == reference_grid.node_names
        assert fast_grid.res_a == reference_grid.res_a
        assert fast_grid.res_b == reference_grid.res_b
        assert fast_grid.shunt_node == reference_grid.shunt_node
        _assert_close(np.array(fast_grid.res_ohms), np.array(reference_grid.res_ohms))


class TestPermutationValidation:
    """A ``perm`` that is not a permutation fails at the boundary."""

    @pytest.fixture
    def grid_matrix(self):
        matrix, _ = grounded_laplacian(grid_2d(6, 6), 1.0)
        return matrix

    def test_repeated_entry_rejected(self, grid_matrix):
        perm = np.arange(36)
        perm[3] = perm[2]
        with pytest.raises(ValueError, match=r"perm\[3\] = 2 repeats an earlier entry"):
            ichol(grid_matrix, perm=perm)

    @pytest.mark.parametrize("bad", [36, -1])
    def test_out_of_range_entry_rejected(self, grid_matrix, bad):
        perm = np.arange(36)
        perm[5] = bad
        with pytest.raises(ValueError, match=rf"perm\[5\] = {bad} is out of range 0..35"):
            ichol(grid_matrix, perm=perm)

    def test_first_repeat_is_named(self, grid_matrix):
        perm = np.arange(36)
        perm[[7, 20]] = perm[[30, 1]]  # value 30 repeats at 30, value 1 at 20
        with pytest.raises(ValueError, match=r"perm\[20\] = 1 repeats"):
            permute_symmetric(grid_matrix, perm)


class TestDiagnostics:
    def test_fill_ratio(self, weighted_mesh):
        matrix, _ = grounded_laplacian(weighted_mesh, 1.0)
        result = ichol(matrix, drop_tol=1e-3, ordering="rcm")
        ratio = result.fill_ratio(matrix)
        assert ratio >= 1.0  # ICT keeps at least the original pattern scale

    def test_result_metadata(self, spd_matrix):
        result = ichol(spd_matrix, drop_tol=1e-3, ordering="natural")
        assert result.drop_tol == 1e-3
        assert result.n == spd_matrix.shape[0]
        assert result.shift == 0.0
