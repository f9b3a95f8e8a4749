"""Alg. 2 — sparse approximate inverse of a Cholesky factor.

Let ``Z = L⁻¹`` where ``L`` is the (complete or incomplete) Cholesky factor
of a grounded Laplacian.  Lemma 1 of the paper shows ``Z ≥ 0`` and that its
columns obey the back-substitution recurrence (Eq. 8)::

    z_j = e_j / L_jj  +  Σ_{i>j, L_ij ≠ 0} (−L_ij / L_jj) · z_i

Alg. 2 evaluates the recurrence from column ``n−1`` down to ``0`` using the
already-*truncated* columns ``z̃_i`` on the right-hand side (Eq. 9), then
prunes each new column with the relative 1-norm rule of Eq. (10) — unless it
is already trivially sparse (``nnz ≤ log n``).  Theorem 1 bounds the column
error by ``depth(p)·ε``.

Kernels (the ``mode=`` knob)
----------------------------
``mode="blocked"`` (default)
    Level-scheduled batched kernel.  Column ``j`` depends exactly on the
    columns ``i > j`` with ``L_ij ≠ 0``, whose filled-graph depth (Eq. 11,
    :func:`repro.cholesky.depth.filled_graph_depth`) is strictly smaller
    than ``depth(j)`` — so all columns sharing a depth value are mutually
    independent.  The kernel walks the levels from the etree roots
    (depth 0) upward, and every level, from a one-column level near the
    roots to the widest one, takes the same path: one sparse matrix
    product ``Z[:, deps] @ W`` (``W`` holds the ``−L_ij/L_jj``
    coefficients), the ``e_j/L_jj`` terms prepended, the Eq. (10)
    truncation of the whole block in one vectorised scan, and a commit
    into the :class:`_ColumnPool`.  The per-level work is a handful of
    numpy/scipy C calls, so the Python overhead is O(#levels) instead of
    O(n).

``mode="blocked"`` + ``build_workers > 1``
    Only large levels are chunked: a level whose dependency entry bound
    exceeds ``2 × _CHUNK_TARGET_NNZ`` splits into contiguous *column
    chunks* of about ``_CHUNK_TARGET_NNZ`` accumulated entries each (a
    smaller chunk would pay the per-chunk dispatch without enough work to
    amortise it).  The boundaries depend only on the level itself, never
    on the worker count, and the chunks run on a thread pool — scipy's
    sparsetools matmul releases the GIL, so chunks of one level genuinely
    overlap.  Because serial and parallel runs execute the *same* chunk
    list through the *same* floating-point code and commit chunks into
    the pool in ascending column order, the result is **bit-identical**
    for every worker count.

Independent factors (:func:`approximate_inverses`)
    The blocked kernel runs any number of factors in one level sweep, as
    the diagonal blocks of one factor: no column of one factor depends on
    a column of another, and a column's depth is its depth in its own
    factor, so level ``d`` computes the depth-``d`` columns of every
    factor together.  The per-level overhead is then paid once per level
    of the deepest factor rather than once per level of each — the many
    small factors of a power-grid reduction have many short, narrow
    levels.  Each column keeps its own factor's ``log n`` keep-whole
    threshold, and each factor gets back its own ``Z̃`` and stats.
    :func:`approximate_inverse` is the case of one factor.

``mode="reference"``
    The original column-at-a-time loop, kept as the executable
    specification.  ``build_workers`` is ignored here, and independent
    factors run one after another.

The two kernels agree byte for byte.  ``csr_matmat`` accumulates each
column's contributions from zero in dependency order and stores only the
nonzero sums — the reference's scatter-add, operation for operation.  The
blocked truncation sorts magnitudes within each column with a stable key,
exactly like :func:`repro.core.truncation.truncation_keep_mask` does per
column, and the ``e_j/L_jj`` diagonal term is one more entry of that scan
(a tiny ``1/L_jj`` under a heavy column drops like any other small entry).
The column 1-norms and dropped-mass prefixes are differences of prefix
sums over a whole level chunk, so they round differently from the
reference's per-column sums; the keep decisions, and so ``Z̃``, still
match, which the tests check byte for byte — on single factors, on
co-scheduled ones, with chunks forced small and with two workers.

Implementation notes
--------------------
The reference accumulation uses a dense scratch vector with explicit
touched-index tracking, so each column costs O(Σ nnz(z̃_i) + t log t) where
``t`` is the number of touched rows — the same complexity the paper reports
(O(n log n · log log n) overall when nnz per column is O(log n)).  The
blocked kernel performs the identical floating-point work inside scipy's
sparse matmul, and is what lets :class:`repro.service.ResistanceService`
rebuild engines fast enough for online traffic.
"""

from __future__ import annotations

import concurrent.futures
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.cholesky.depth import filled_graph_depth
from repro.core.truncation import truncation_budgets, truncation_keep_mask
from repro.linalg.sparse_utils import csr_matmat_sorted
from repro.utils.validation import check_finite_nonnegative, check_square_sparse

_MODES = ("blocked", "reference")


@dataclass
class ApproxInverseStats:
    """Diagnostics of an Alg. 2 run (feeds the Table I ``nnz/n·log n`` column)."""

    nnz: int
    n: int
    columns_truncated: int
    columns_kept_whole: int

    @property
    def nnz_per_nlogn(self) -> float:
        """``nnz(Z̃) / (n · log n)`` — the paper's sparsity metric."""
        denom = self.n * max(np.log(self.n), 1.0)
        return float(self.nnz) / denom

    @property
    def average_column_nnz(self) -> float:
        """Mean stored entries per column."""
        return float(self.nnz) / max(self.n, 1)


def _validate_factor(csc: sp.csc_matrix) -> np.ndarray:
    """Check diagonal-first storage, finite entries and positive pivots;
    return the diagonal.

    An empty column is reported explicitly: indexing ``indices[indptr[j]]``
    for an empty column ``j`` would silently read the *next* column's first
    entry (or fall off the end of ``indices`` for a trailing empty column).
    """
    n = csc.shape[0]
    indptr, indices, data = csc.indptr, csc.indices, csc.data
    column_nnz = np.diff(indptr)
    if bool(np.any(column_nnz == 0)):
        j = int(np.argmax(column_nnz == 0))
        raise ValueError(
            f"factor has an empty column {j}: every column must store its diagonal entry"
        )
    diag_first = indices[indptr[:-1]] == np.arange(n)
    if not bool(np.all(diag_first)):
        raise ValueError("factor must store the diagonal as first entry of each column")
    finite = np.isfinite(data)
    if not bool(finite.all()):
        position = int(np.argmin(finite))
        j = int(np.searchsorted(indptr, position, side="right")) - 1
        raise ValueError(
            f"factor has a non-finite entry {float(data[position])} at row "
            f"{int(indices[position])} of column {j}"
        )
    diag = data[indptr[:-1]]
    if bool(np.any(diag <= 0)):
        j = int(np.argmax(diag <= 0))
        raise ValueError(f"factor has nonpositive diagonal {diag[j]:g} at column {j}")
    return diag


def approximate_inverse(
    lower: sp.spmatrix,
    epsilon: float = 1e-3,
    small_column_threshold: "float | None" = None,
    mode: str = "blocked",
    build_workers: "int | None" = None,
) -> "tuple[sp.csc_matrix, ApproxInverseStats]":
    """Run Alg. 2 on the lower-triangular factor ``lower``.

    Parameters
    ----------
    lower:
        Sparse lower-triangular Cholesky factor (positive diagonal;
        nonpositive off-diagonals for Laplacian inputs, though the code does
        not require the sign structure).
    epsilon:
        Per-column relative 1-norm truncation budget ``ε`` (paper: 1e-3).
        ``ε = 0`` keeps every computed entry: ``Z̃`` is then the exact
        ``L⁻¹`` (up to floating-point rounding).
    small_column_threshold:
        Columns with at most this many nonzeros skip truncation
        (Alg. 2 line 3 uses ``log n``, the default).
    mode:
        ``"blocked"`` (default) for the level-scheduled batched kernel,
        ``"reference"`` for the original column-at-a-time loop (see module
        docstring).
    build_workers:
        Threads for the level-parallel blocked kernel (``None``/``1`` =
        serial).  Chunk boundaries never depend on the worker count, so
        every value produces a bit-identical ``Z̃``.  Ignored by
        ``mode="reference"``.

    Returns
    -------
    (Z̃, stats):
        The sparse approximate inverse (CSC, lower triangular, nonnegative
        for M-matrix inputs) and run statistics.  This is
        :func:`approximate_inverses` on a list of one factor.
    """
    return approximate_inverses(
        [lower],
        epsilon=epsilon,
        small_column_threshold=small_column_threshold,
        mode=mode,
        build_workers=build_workers,
    )[0]


def approximate_inverses(
    factors: "Sequence[sp.spmatrix]",
    epsilon: float = 1e-3,
    small_column_threshold: "float | None" = None,
    mode: str = "blocked",
    build_workers: "int | None" = None,
) -> "list[tuple[sp.csc_matrix, ApproxInverseStats]]":
    """Run Alg. 2 on independent factors in one level sweep.

    The blocked kernel treats the factors as the diagonal blocks of one
    factor: level ``d`` of the sweep holds the depth-``d`` columns of
    every factor, so the per-level overhead is paid once per level of
    the deepest factor instead of once per level of each.  Every column
    keeps its own factor's ``log n`` keep-whole threshold (unless
    ``small_column_threshold`` sets one for all), and the result is one
    ``(Z̃, stats)`` per factor, as :func:`approximate_inverse` gives it
    for that factor alone.  ``mode="reference"`` runs the factors one
    after another.  The other parameters are those of
    :func:`approximate_inverse`.
    """
    for lower in factors:
        check_square_sparse(lower, "lower")
    check_finite_nonnegative(epsilon, "epsilon")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    workers = 1 if build_workers is None else int(build_workers)
    if workers < 1:
        raise ValueError(f"build_workers must be >= 1, got {build_workers}")
    cscs, diags, keep_whole = [], [], []
    for lower in factors:
        csc = sp.csc_matrix(lower)
        csc.sort_indices()
        n = csc.shape[0]
        keep_whole.append(
            float(np.log(max(n, 2))) if small_column_threshold is None
            else float(small_column_threshold)
        )
        diags.append(_validate_factor(csc))
        cscs.append(csc)
    if mode == "reference":
        return [
            _reference_kernel(csc, diag, epsilon, threshold)
            for csc, diag, threshold in zip(cscs, diags, keep_whole)
        ]
    if not cscs:
        return []
    return _blocked_kernel(cscs, diags, epsilon, keep_whole, workers=workers)


# ----------------------------------------------------------------------
# reference kernel — column-at-a-time executable specification
# ----------------------------------------------------------------------
def _reference_kernel(
    csc: sp.csc_matrix, diag: np.ndarray, epsilon: float, keep_whole_nnz: float
) -> "tuple[sp.csc_matrix, ApproxInverseStats]":
    n = csc.shape[0]
    indptr, indices, data = csc.indptr, csc.indices, csc.data

    col_rows: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    col_vals: list[np.ndarray] = [np.empty(0)] * n
    scratch = np.zeros(n)
    truncated_count = 0
    kept_whole = 0

    for j in range(n - 1, -1, -1):
        start, end = indptr[j], indptr[j + 1]
        below_rows = indices[start + 1:end]
        below_vals = data[start + 1:end]

        scratch[j] += 1.0 / diag[j]
        touched = [np.array([j], dtype=np.int64)]
        for i, lij in zip(below_rows, below_vals):
            coeff = -lij / diag[j]
            if coeff == 0.0:
                continue
            zi_rows = col_rows[i]
            scratch[zi_rows] += coeff * col_vals[i]
            touched.append(zi_rows)

        idx = np.unique(np.concatenate(touched)) if len(touched) > 1 else touched[0]
        vals = scratch[idx]
        scratch[idx] = 0.0
        nonzero = vals != 0.0
        idx, vals = idx[nonzero], vals[nonzero]

        if idx.shape[0] <= keep_whole_nnz:
            kept_whole += 1
        else:
            mask = truncation_keep_mask(vals, epsilon)
            idx, vals = idx[mask], vals[mask]
            truncated_count += 1

        col_rows[j] = idx
        col_vals[j] = vals

    return _assemble(n, col_rows, col_vals, truncated_count, kept_whole)


# ----------------------------------------------------------------------
# blocked kernel — level-scheduled batched evaluation
# ----------------------------------------------------------------------
# the pool's indptr is int32 (what sparsetools' matmul takes), so the
# number of stored entries must stay addressable by it
_MAX_POOL_ENTRIES = int(np.iinfo(np.int32).max)


class _ColumnPool:
    """Growable flat storage for the computed ``z̃`` columns.

    Columns are appended level by level, which makes the pool — read in
    append order — a valid CSC matrix at every moment: ``indptr[p]`` bounds
    the entries of the ``p``-th appended column and ``position[j]`` maps a
    graph column to its append slot.  The batched matmul therefore reads the
    pool *in place* (zero-copy) with pool-position column indices, and only
    the final assembly performs a gather back into natural column order.
    """

    def __init__(self, n: int, capacity: int):
        self.rows = np.empty(capacity, dtype=np.int32)
        self.vals = np.empty(capacity)
        self.start = np.zeros(n, dtype=np.int64)
        self.length = np.zeros(n, dtype=np.int64)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        self.position = np.zeros(n, dtype=np.int32)
        self.filled = 0
        self.used = 0

    def reserve(self, count: int) -> "tuple[np.ndarray, np.ndarray]":
        """Views over the next ``count`` uncommitted slots (for in-place fill).

        Raises ``OverflowError`` once the pool would outgrow the int32
        ``indptr`` (numpy would wrap the offsets silently).
        """
        if self.used + count > _MAX_POOL_ENTRIES:
            raise OverflowError(
                f"Alg. 2 cannot store more than {_MAX_POOL_ENTRIES} entries "
                f"of the approximate inverse: nnz(Z̃) is {self.used} after "
                f"{self.filled} of {self.start.shape[0]} columns and the next "
                f"level adds {count}; use a larger epsilon or "
                f"max_shard_nodes= to split the graph"
            )
        if self.used + count > self.rows.shape[0]:
            capacity = max(2 * self.rows.shape[0], self.used + count)
            self.rows = np.concatenate([self.rows[:self.used], np.empty(capacity - self.used, dtype=np.int32)])
            self.vals = np.concatenate([self.vals[:self.used], np.empty(capacity - self.used)])
        return (
            self.rows[self.used:self.used + count],
            self.vals[self.used:self.used + count],
        )

    def commit_level(self, cols: np.ndarray, ptr: np.ndarray) -> None:
        """Commit reserved slots as the columns ``cols`` (CSC layout ``ptr``)."""
        self.start[cols] = self.used + ptr[:-1]
        self.length[cols] = np.diff(ptr)
        k = cols.shape[0]
        self.indptr[self.filled + 1:self.filled + k + 1] = self.used + ptr[1:]
        self.position[cols] = self.filled + np.arange(k, dtype=np.int32)
        self.filled += k
        self.used += int(ptr[-1])

    def append_level(self, cols: np.ndarray, ptr: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
        """Store the kept entries of a level (columns ``cols``, CSC layout)."""
        count = rows.shape[0]
        out_rows, out_vals = self.reserve(count)
        out_rows[:] = rows
        out_vals[:] = vals
        self.commit_level(cols, ptr)

    def csr_of_transpose(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The computed columns as CSR-of-transpose views (pool order)."""
        return (
            self.indptr[:self.filled + 1],
            self.rows[:self.used],
            self.vals[:self.used],
        )

    def gather(self, columns: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Concatenated (indptr, rows, vals) of ``columns``, in order."""
        lens = self.length[columns]
        indptr = np.zeros(columns.shape[0] + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        positions = np.arange(indptr[-1], dtype=np.int64)
        positions += np.repeat(self.start[columns] - indptr[:-1], lens)
        return indptr, self.rows[positions], self.vals[positions]


# target accumulated-entry bound per column chunk of a level.  The
# boundaries are a pure function of the level (NOT of build_workers), so a
# serial run executes the exact chunk list a parallel run fans out — which
# is what makes the parallel kernel bit-identical to the serial one.  The
# per-chunk dispatch (one matmat + one truncation call, ~0.3 ms) is <1% of
# the work a chunk of this size carries.
_CHUNK_TARGET_NNZ = 1 << 20

# binade buckets used by the blocked truncation's crossing-binade search
_BINADES = 64


def _level_chunks(k: int, col_bound_prefix: np.ndarray) -> "list[tuple[int, int]]":
    """Contiguous column ranges of a level, ≈``_CHUNK_TARGET_NNZ`` bound each.

    ``col_bound_prefix`` holds the running dependency-entry bound per
    column (length ``k + 1``).  Levels below twice the target stay whole;
    larger levels split at bound-balanced column boundaries.  Boundaries
    depend only on the level data, never on the worker count.
    """
    total = int(col_bound_prefix[-1])
    pieces = min(total // _CHUNK_TARGET_NNZ, k)
    if pieces < 2:
        return [(0, k)]
    targets = np.arange(1, pieces) * (total / pieces)
    cuts = np.searchsorted(col_bound_prefix[1:], targets, side="left") + 1
    cuts = np.unique(np.concatenate([[0], cuts, [k]]))
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))


def _blocked_kernel(
    cscs: "list[sp.csc_matrix]",
    diags: "list[np.ndarray]",
    epsilon: float,
    keep_whole: "list[float]",
    workers: int = 1,
) -> "list[tuple[sp.csc_matrix, ApproxInverseStats]]":
    # the factors are the diagonal blocks of one factor: no column of one
    # depends on a column of another, and a column's depth is its depth
    # within its own factor, so level d sweeps the depth-d columns of all
    sizes = [csc.shape[0] for csc in cscs]
    offsets = np.zeros(len(cscs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    n = int(offsets[-1])
    entry_offsets = np.cumsum([0] + [c.indices.shape[0] for c in cscs])
    csc = sp.csc_matrix(
        (
            np.concatenate([c.data for c in cscs]),
            np.concatenate([c.indices + o for c, o in zip(cscs, offsets.tolist())]),
            np.concatenate(
                [c.indptr[:-1] + e for c, e in zip(cscs, entry_offsets.tolist())]
                + [entry_offsets[-1:]]
            ),
        ),
        shape=(n, n),
    )
    diag = np.concatenate(diags)
    indptr, indices, data = csc.indptr, csc.indices, csc.data
    # per-column Alg. 2 line 3 threshold: each factor keeps its own log n
    keep_whole_nnz = np.repeat(keep_whole, sizes)

    # level schedule: depth(j) per Eq. (11); dependencies of a column all
    # live at strictly smaller depth, so levels run 0, 1, ... max_depth
    levels = filled_graph_depth(csc)
    num_levels = int(levels.max()) + 1 if n else 0
    order = np.argsort(levels, kind="stable")
    level_ptr = np.searchsorted(levels[order], np.arange(num_levels + 1))

    # flatten the off-diagonal coefficients −L_ij/L_jj once, grouped by the
    # level of their *column* so each level slices its W entries in O(1)
    column_of_entry = np.repeat(np.arange(n), np.diff(indptr))
    offdiag = np.ones(indices.shape[0], dtype=bool)
    offdiag[indptr[:-1]] = False
    dep_rows = indices[offdiag]
    dep_cols = column_of_entry[offdiag]
    dep_coeffs = -data[offdiag] / diag[dep_cols]
    nonzero_coeff = dep_coeffs != 0.0
    dep_rows, dep_cols, dep_coeffs = (
        dep_rows[nonzero_coeff], dep_cols[nonzero_coeff], dep_coeffs[nonzero_coeff]
    )
    entry_order = np.argsort(levels[dep_cols], kind="stable")
    dep_rows, dep_cols, dep_coeffs = (
        dep_rows[entry_order], dep_cols[entry_order], dep_coeffs[entry_order]
    )
    entry_ptr = np.searchsorted(levels[dep_cols], np.arange(num_levels + 1))
    deps_per_col = np.bincount(dep_cols, minlength=n)

    # nnz(Z̃) is typically O(n log n); oversize the pool so level commits
    # rarely trigger a reallocation-and-copy of everything stored so far
    pool = _ColumnPool(n, capacity=max(16 * indices.shape[0], 64))
    truncated = np.zeros(n, dtype=bool)
    inv_diag = 1.0 / diag
    executor: "concurrent.futures.ThreadPoolExecutor | None" = None

    try:
        for level in range(num_levels):
            cols = order[level_ptr[level]:level_ptr[level + 1]]  # ascending
            k = cols.shape[0]
            lo, hi = entry_ptr[level], entry_ptr[level + 1]

            # W holds the −L_ij/L_jj coefficients with columns = level
            # columns (entries arrive grouped by column, rows ascending —
            # CSC order) and row indices remapped to pool positions, so the
            # per-chunk matmul blockᵀ = Wᵀ @ Z_poolᵀ reads the pool in
            # place with no gather; calling the sparsetools kernel scipy's
            # `@` dispatches to directly skips the per-level matrix-object,
            # validation, and symbolic passes
            w_indptr = np.zeros(k + 1, dtype=np.int32)
            np.cumsum(deps_per_col[cols], out=w_indptr[1:])
            w_indices = pool.position[dep_rows[lo:hi]]
            w_data = dep_coeffs[lo:hi]
            b_ptr, b_idx, b_val = pool.csr_of_transpose()
            # each output column is at most the sum of its dependencies'
            # sizes: the per-column running bound sizes the product buffers
            # and places the chunk boundaries
            entry_cum = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(pool.length[dep_rows[lo:hi]], out=entry_cum[1:])
            col_bound_prefix = entry_cum[w_indptr]
            level_inv_diag = inv_diag[cols]
            level_keep_whole = keep_whole_nnz[cols]

            def run_chunk(a: int, b: int):
                # matmul + Eq. (10) truncation of the columns [a, b) of the
                # level; pure function of the (frozen) pool snapshot, so
                # chunks are safe to run on pool threads
                ptr = w_indptr[a:b + 1] - w_indptr[a]
                sl = slice(int(w_indptr[a]), int(w_indptr[b]))
                bound = int(col_bound_prefix[b] - col_bound_prefix[a])
                block_ptr, block_rows, block_data = _raw_matmat(
                    b - a, n, ptr, w_indices[sl], w_data[sl],
                    b_ptr, b_idx, b_val, bound,
                )
                # the e_j/L_jj unit term lands on row j, a smaller row
                # index than every dependency entry — truncation prepends
                # it to each column before the Eq. (10) scan
                return _truncate_block(
                    cols[a:b], block_ptr, block_rows, block_data,
                    level_inv_diag[a:b], epsilon, level_keep_whole[a:b],
                )

            chunks = _level_chunks(k, col_bound_prefix)
            if workers > 1 and len(chunks) > 1:
                if executor is None:
                    executor = concurrent.futures.ThreadPoolExecutor(
                        max_workers=workers, thread_name_prefix="alg2-build"
                    )
                futures = [executor.submit(run_chunk, a, b) for a, b in chunks]
                results = [future.result() for future in futures]
            else:
                results = [run_chunk(a, b) for a, b in chunks]

            # commit in ascending column order — identical pool layout (and
            # therefore identical downstream levels) for every worker count
            for (a, b), (out_ptr, out_rows, out_vals, chunk_truncated) in zip(
                chunks, results
            ):
                pool.append_level(cols[a:b], out_ptr, out_rows, out_vals)
                truncated[cols[a:b]] = chunk_truncated
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    out = []
    for size, offset in zip(sizes, offsets.tolist()):
        ptr, rows, vals = pool.gather(np.arange(offset, offset + size, dtype=np.int64))
        rows -= offset  # a gathered copy: back to the factor's own rows
        z_tilde = sp.csc_matrix((vals, rows, ptr), shape=(size, size))
        # every stored column keeps the ascending-row order of its level block
        z_tilde.has_sorted_indices = True
        num_truncated = int(np.count_nonzero(truncated[offset:offset + size]))
        out.append((z_tilde, ApproxInverseStats(
            nnz=int(z_tilde.nnz),
            n=size,
            columns_truncated=num_truncated,
            columns_kept_whole=size - num_truncated,
        )))
    return out


def _raw_matmat(
    k: int,
    n: int,
    a_ptr: np.ndarray,
    a_idx: np.ndarray,
    a_val: np.ndarray,
    b_ptr: np.ndarray,
    b_idx: np.ndarray,
    b_val: np.ndarray,
    nnz_bound: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(A @ B)`` for CSR-major operands ``A (k×·)`` and ``B (·×n)``.

    Returns the product's ``(indptr, indices, data)`` with indices sorted
    within each major slice.  Interpreting the operands as CSC transposes,
    this evaluates a CSC ``Z_sub @ W`` product column-major.  ``nnz_bound``
    must upper-bound the product's nnz; passing it skips the symbolic pass.
    Raises ``OverflowError`` before allocating when the bound exceeds what
    the int32 output indices can address.
    """
    if nnz_bound > _MAX_POOL_ENTRIES:
        raise OverflowError(
            f"Alg. 2 cannot multiply out a chunk of up to {nnz_bound} entries: "
            f"the int32 product indices address at most {_MAX_POOL_ENTRIES}; "
            f"use a larger epsilon or max_shard_nodes= to split the graph"
        )
    return csr_matmat_sorted(
        k, n, a_ptr, a_idx, a_val, b_ptr, b_idx, b_val, nnz_bound
    )


def _prepend_diag(
    k: int,
    counts: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
    diag_rows: np.ndarray,
    diag_vals: np.ndarray,
) -> "tuple[tuple[np.ndarray, np.ndarray], np.ndarray]":
    """Insert one diagonal entry at the head of each CSC column."""
    out_ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts + 1, out=out_ptr[1:])
    total = int(out_ptr[-1])
    out_rows = np.empty(total, dtype=np.int32)
    out_vals = np.empty(total)
    heads = out_ptr[:-1]
    out_rows[heads] = diag_rows
    out_vals[heads] = diag_vals
    body = np.ones(total, dtype=bool)
    body[heads] = False
    out_rows[body] = rows
    out_vals[body] = vals
    return (out_rows, out_vals), out_ptr


def _truncate_block(
    cols: np.ndarray,
    bindptr: np.ndarray,
    bindices: np.ndarray,
    bdata: np.ndarray,
    diag_vals: np.ndarray,
    epsilon: float,
    keep_whole_nnz: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Vectorised Eq. (10) over every column of a level block (or chunk).

    ``(bindptr, bindices, bdata)`` hold the dependency contributions of the
    level in CSC layout; the ``e_j/L_jj`` diagonal term of column ``c``
    (value ``diag_vals[c]``, row ``cols[c]``) joins them at the head of the
    column — its row index is strictly smaller than every dependency row —
    and from there on is an ordinary entry: a diagonal that falls under
    the column's budget drops like any other small entry.
    ``keep_whole_nnz[c]`` is column ``c``'s ``log n`` threshold.

    Mirrors :func:`repro.core.truncation.truncation_keep_mask` column by
    column: exact zeros are discarded, entries are stably sorted by magnitude
    within their column, the within-column prefix masses are compared against
    ``ε·‖column‖₁`` (:func:`~repro.core.truncation.truncation_budgets`), and
    columns at or below the ``log n`` nnz threshold are kept whole.

    Pure function of its arguments (no shared state), so the level-parallel
    kernel runs one call per chunk on pool threads.  Returns the surviving
    entries as ``(out_ptr, out_rows, out_vals, truncated)`` with rows
    ascending per column, ready for :meth:`_ColumnPool.append_level`;
    ``truncated[c]`` says whether column ``c`` went through Eq. (10).
    """
    k = cols.shape[0]
    column_nnz = np.diff(bindptr).astype(np.int64)
    if bdata.shape[0] and np.count_nonzero(bdata) != bdata.shape[0]:
        # rare: explicit zeros (possible only with cancellation, i.e. for
        # non-M-matrix factors) — compact first, like the reference kernel
        nonzero = bdata != 0.0
        column_nnz -= np.bincount(
            np.repeat(np.arange(k, dtype=np.int64), column_nnz)[~nonzero], minlength=k
        )
        bindices, bdata = bindices[nonzero], bdata[nonzero]
        bindptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(column_nnz, out=bindptr[1:])
    counts = column_nnz + 1  # with the diagonal head
    big = counts > keep_whole_nnz
    (rows, vals), ptr = _prepend_diag(k, column_nnz, bindices, bdata, cols, diag_vals)
    if not (big.any() and epsilon > 0 and bdata.shape[0]):
        return ptr, rows, vals, big
    # M-matrix factors give nonnegative blocks — skip the abs pass then
    nonnegative = float(bdata.min()) >= 0.0
    # column 1-norms via global prefix sums over the dependency entries
    # (one cumsum, no scatter-add) plus the positive diagonal term
    running = np.cumsum(bdata if nonnegative else np.abs(bdata))
    starts, ends = bindptr[:-1], bindptr[1:]
    base = np.where(starts > 0, running[np.maximum(starts, 1) - 1], 0.0)
    dep_totals = np.where(ends > starts, running[np.maximum(ends, 1) - 1], 0.0) - base
    budget = np.where(big, truncation_budgets(epsilon, dep_totals + diag_vals), -1.0)
    magnitudes = vals if nonnegative else np.abs(vals)
    # only entries with |v| ≤ ε·‖col‖₁ can belong to the dropped prefix
    # (any larger entry's inclusive prefix mass already exceeds the
    # budget), so all further work runs on this subset only
    cand_idx = np.flatnonzero(magnitudes <= np.repeat(budget, counts))
    if not cand_idx.shape[0]:
        return ptr, rows, vals, big
    cand_col = np.searchsorted(ptr, cand_idx, side="right") - 1
    cand_mags = magnitudes[cand_idx]
    # binade bucketing: bucket b holds candidates ~2^b below the budget
    # (IEEE exponent distance, clipped).  Buckets respect magnitude order,
    # so accumulating bucket masses small-to-large finds the one *crossing*
    # binade per column — buckets below it are dropped wholesale, above it
    # kept wholesale, and only the crossing binade's entries need the exact
    # magnitude sort.
    mag_exp = (cand_mags.view(np.int64) >> 52).astype(np.int64)
    budget_exp = (budget.view(np.int64) >> 52).astype(np.int64)
    bucket = np.minimum(budget_exp[cand_col] - mag_exp, _BINADES - 1)
    key = cand_col * _BINADES + bucket
    hist_mass = np.bincount(key, weights=cand_mags, minlength=k * _BINADES)
    hist_mass = hist_mass.reshape(k, _BINADES)[:, ::-1]
    cum_rev = np.cumsum(hist_mass, axis=1)
    # first (smallest-magnitude-first) position whose mass exceeds the
    # budget; 63 - that position is the crossing binade
    first_exceed = (cum_rev <= budget[:, None]).sum(axis=1)
    crossing = _BINADES - 1 - first_exceed  # -1 → everything drops
    below_mass = np.where(
        first_exceed > 0,
        cum_rev[np.arange(k), np.maximum(first_exceed, 1) - 1],
        0.0,
    )
    entry_crossing = crossing[cand_col]
    sure = bucket > entry_crossing
    band = np.flatnonzero(bucket == entry_crossing)
    band_col = cand_col[band]
    band_mags = cand_mags[band]
    # stable two-key sort keeps within-column ties in ascending-row order,
    # matching truncation_keep_mask's kind="stable" argsort
    perm = np.lexsort((band_mags, band_col))
    band_counts = np.bincount(band_col, minlength=k)
    # prefix[0] = 0 keeps an empty band (every candidate dropped or kept
    # wholesale) indexable
    prefix = np.zeros(band.shape[0] + 1)
    np.cumsum(band_mags[perm], out=prefix[1:])
    band_starts = np.zeros(k, dtype=np.int64)
    np.cumsum(band_counts[:-1], out=band_starts[1:])
    within = prefix[1:] - np.repeat(prefix[band_starts] - below_mass, band_counts)
    dropped = within <= np.repeat(budget, band_counts)
    # within-column prefix masses are increasing, so the dropped entries
    # form a prefix of each column's band
    dcum = np.concatenate([[0], np.cumsum(dropped)])
    dropped_counts = (
        np.bincount(cand_col[sure], minlength=k)
        + dcum[np.cumsum(band_counts)]
        - dcum[band_starts]
    )
    keep = np.ones(vals.shape[0], dtype=bool)
    keep[cand_idx[sure]] = False
    keep[cand_idx[band[perm[dropped]]]] = False
    out_ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts - dropped_counts, out=out_ptr[1:])
    return out_ptr, rows[keep], vals[keep], big


def _assemble(
    n: int,
    col_rows: "list[np.ndarray]",
    col_vals: "list[np.ndarray]",
    truncated_count: int,
    kept_whole: int,
) -> "tuple[sp.csc_matrix, ApproxInverseStats]":
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    out_indptr[1:] = np.cumsum([r.shape[0] for r in col_rows])
    out_indices = np.concatenate(col_rows) if n else np.empty(0, dtype=np.int64)
    out_data = np.concatenate(col_vals) if n else np.empty(0)
    z_tilde = sp.csc_matrix((out_data, out_indices, out_indptr), shape=(n, n))
    z_tilde.sort_indices()
    stats = ApproxInverseStats(
        nnz=int(z_tilde.nnz),
        n=n,
        columns_truncated=truncated_count,
        columns_kept_whole=kept_whole,
    )
    return z_tilde, stats
