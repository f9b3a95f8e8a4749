"""Threshold incomplete Cholesky factorisation — ICT(τ).

Alg. 3 of the paper runs an *incomplete* Cholesky factorisation of the
grounded Laplacian with drop tolerance 1e-3 before computing the sparse
approximate inverse.  Dropping small fill-ins "corresponds to setting some
branches with large resistances to open and does not introduce large errors
to effective resistances" (Section III-C).

This module implements the column-wise (left-looking) threshold algorithm —
the same scheme as MATLAB's ``ichol(..., 'ict')``:

* column ``j`` gathers the original entries ``A(j:n, j)`` and subtracts the
  contributions ``L(j:n, k) · L(j, k)`` of every earlier column ``k`` with
  ``L(j, k) ≠ 0``;
* entries smaller in magnitude than ``drop_tol · ‖A(j:n, j)‖₁`` are dropped;
* the Jones–Plassmann linked-list device finds the contributing columns:
  each finished column keeps a cursor to its next untouched row index and
  is filed under that row's to-do list (stored as flat FIFO-linked
  arrays, so the sweep allocates nothing per column).

The sweep is engineered as the serial front-end of the parallel
engine-build pipeline (it feeds the level-parallel Alg. 2 kernel, so its
wall-clock is on the build critical path):

* the computed factor grows in one flat row/value arena instead of one
  pair of arrays per column — no per-column ``np.concatenate``, and the
  final CSC assembly is a pair of slices;
* the linked-list walk is pure-Python bookkeeping that only records the
  arena span ``(base, stop)`` of each contributing column; the column's
  arithmetic then runs in a few bulk calls — one gather of every span,
  one ``np.subtract.at`` scatter of the scaled values and one sort of the
  gathered rows for the candidate pattern — instead of one numpy
  round-trip per contribution ``L(j, k) ≠ 0``;
* *dependency-free leaf columns* — nodes with no lower-numbered neighbour
  in ``A``, whose row of ``L`` is structurally empty, so no earlier column
  can ever update them — are factored for the whole matrix at once in a
  handful of vectorised calls and only stitched into the arena (and the
  work lists) when their turn comes.

The sweep hands its last columns to a *dense trailing block*.  Fill
concentrates in the last columns of a fill-reducing order, where the sweep spends its time gathering, sorting
and scattering spans rather than on arithmetic.  At the first column
whose candidate pattern covers at least half of the remaining rows —
once no more than ``_DENSE_MAX_COLUMNS`` columns remain — the sweep
stops, forms the trailing Schur complement ``S = A_TT − L_TH·L_THᵀ`` with
one sparse product over the arena and finishes the last ``k`` columns
with dense left-looking updates, one GEMV per column
(:func:`_dense_tail`).  The dense columns keep the sweep's drop rule
against the same ``‖A(j:n, j)‖₁``, its nonpositive-pivot error (so the
shift retry below still works) and its ``max_fill`` cap, so ``L`` keeps
the sweep's pattern.  Columns before the switch are bit-identical to the
sweep; the dense block sums each column's updates in BLAS order rather
than in FIFO order, which moved its values by at most 7e-14 of the
column's largest entry on the test panel (tested at 1e-13).  The rule
is structural and adds no setting: the half-density run is about 500
columns on BA-3000, 110 on a 72² jittered grid, 60 on a 160² grid, 4 on
a path and nearly every column of a power-grid Schur block, whereas a
fixed-size block of 400 columns made sparse graphs slower.  The cap is
measured: the dense block costs ``k³/6`` GEMV flops, and on BA-10000
and BA-20000 (2-core host, best of 4) ICT was fastest with caps of
600–1000 columns and slower than the plain sweep beyond about 1500.

For SDD M-matrices (grounded Laplacians) every off-diagonal stays
nonpositive — the structural property Lemma 1 needs.  Zero/negative pivots
(possible for *incomplete* factorisations even of definite matrices) are
handled by the standard Manteuffel diagonal-shift retry loop:
``A + α·diag(A)`` with doubling ``α``; the permuted ``tril`` structure is
extracted once and reused across every retry (a shift only bumps the
stored diagonal values, never the pattern).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.cholesky.ordering import compute_ordering, permute_symmetric
from repro.utils.validation import (
    check_finite_nonnegative,
    check_positive,
    check_square_sparse,
)


# The sparse sweep hands over to dense left-looking updates at the first
# column whose candidate pattern covers at least half of the remaining rows,
# once no more than this many columns remain (measured; module docstring).
_DENSE_MAX_COLUMNS = 768


class CholeskyBreakdownError(np.linalg.LinAlgError):
    """Raised when an incomplete factorisation hits a nonpositive pivot."""


@dataclass
class ICholResult:
    """Incomplete Cholesky factor ``L`` with ``P(A + αD)Pᵀ ≈ L Lᵀ``.

    Attributes
    ----------
    lower:
        CSC lower-triangular incomplete factor with sorted indices.
    perm:
        Fill-reducing permutation applied before factorisation.
    shift:
        Final Manteuffel diagonal shift ``α`` (0 when no retry was needed).
    drop_tol:
        Drop tolerance the factor was computed with.
    dense_columns:
        Trailing columns factored by dense left-looking updates.
    """

    lower: sp.csc_matrix
    perm: np.ndarray
    shift: float
    drop_tol: float
    dense_columns: int = 0

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.lower.shape[0]

    @property
    def nnz(self) -> int:
        """Stored nonzeros of ``L``."""
        return int(self.lower.nnz)

    def fill_ratio(self, matrix: sp.spmatrix) -> float:
        """nnz(L) relative to nnz(tril(A)) — a fill-in diagnostic."""
        base = sp.tril(matrix).nnz
        return float(self.nnz) / max(base, 1)


def _stored_diag_mask(a_lower: sp.csc_matrix) -> np.ndarray:
    """Columns of the (sorted) tril whose first stored entry is the diagonal.

    The Manteuffel retry bumps exactly these positions; a structurally
    missing diagonal cannot be shifted into existence, and such a matrix
    fails the factorisation's structural check regardless of the shift —
    matching the old dense ``A + α·diag(A)`` behaviour, where the added
    entry was an explicit zero that still broke down.
    """
    n = a_lower.shape[0]
    heads = a_lower.indptr[:-1]
    has_diag = np.diff(a_lower.indptr) > 0
    if a_lower.indices.shape[0]:
        safe_heads = np.where(has_diag, heads, 0)
        has_diag &= a_lower.indices[safe_heads] == np.arange(n)
    return has_diag


def _leaf_columns(
    lcols: np.ndarray,
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    a_data: np.ndarray,
    drop_tol: float,
    max_fill: "int | None",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Factor every dependency-free leaf column in one vectorised batch.

    A leaf column receives no updates, so ``L(:, j)`` is just ``A(j:n, j)``
    with the pivot square-rooted, the rest scaled by it, and the drop rule
    applied.  The arithmetic matches the scalar path operation for
    operation, except the column 1-norm is accumulated per column by
    ``np.add.reduceat`` (sequential) where the scalar path uses
    ``np.sum`` (pairwise) — the norm only positions the drop threshold,
    so the kept *values* are identical either way and the kept *pattern*
    can differ only for entries within a rounding error of the threshold.
    Returns ``(ptr, rows, vals, diags)`` where ``ptr`` delimits each
    leaf's kept below-diagonal entries.
    """
    starts = a_indptr[lcols]
    ends = a_indptr[lcols + 1]
    pivots = a_data[starts]
    nonpos = np.flatnonzero(pivots <= 0.0)
    if nonpos.size:
        raise CholeskyBreakdownError(
            f"nonpositive pivot {pivots[nonpos[0]]:g} at column {int(lcols[nonpos[0]])}"
        )
    diags = np.sqrt(pivots)

    counts = (ends - starts - 1).astype(np.int64)
    total = int(counts.sum())
    offsets = np.zeros(lcols.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    take = np.arange(total, dtype=np.int64) + np.repeat(starts + 1 - offsets, counts)
    rows_b = a_indices[take].astype(np.int64)
    vals_b = a_data[take]
    col_of = np.repeat(np.arange(lcols.shape[0]), counts)
    # per-column 1-norms (diagonal included): sum each compacted segment
    # independently, so one column's norm never depends on another's mass
    below_sums = np.zeros(lcols.shape[0])
    nonempty = counts > 0
    if total:
        # empty segments occupy no space in the compacted array, so the
        # nonempty starts are exactly the reduceat boundaries
        below_sums[nonempty] = np.add.reduceat(np.abs(vals_b), offsets[nonempty])
    col_norms = np.abs(pivots) + below_sums
    keep = np.abs(vals_b) > drop_tol * col_norms[col_of]
    kept_counts = np.bincount(col_of[keep], minlength=lcols.shape[0])
    rows_b = rows_b[keep]
    vals_b = vals_b[keep]          # unscaled until after the fill cap
    col_kept = col_of[keep]
    if max_fill is not None and kept_counts.size and int(kept_counts.max()) > max_fill:
        # rare: ILUT-style per-column cap — trim only the offending
        # columns, partitioning the *unscaled* magnitudes exactly like
        # the scalar path does
        ptr = np.zeros(lcols.shape[0] + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=ptr[1:])
        keep_cap = np.ones(rows_b.shape[0], dtype=bool)
        for c in np.flatnonzero(kept_counts > max_fill):
            lo, hi = int(ptr[c]), int(ptr[c + 1])
            seg = np.abs(vals_b[lo:hi])
            drop = np.argpartition(seg, seg.shape[0] - max_fill)[:seg.shape[0] - max_fill]
            keep_cap[lo + drop] = False
        rows_b = rows_b[keep_cap]
        vals_b = vals_b[keep_cap]
        col_kept = col_kept[keep_cap]
        kept_counts = np.minimum(kept_counts, max_fill)
    vals_b = vals_b / diags[col_kept]
    ptr = np.zeros(lcols.shape[0] + 1, dtype=np.int64)
    np.cumsum(kept_counts, out=ptr[1:])
    return ptr, rows_b, vals_b, diags


def _dense_tail(
    j0: int,
    n: int,
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    a_data: np.ndarray,
    head_ptr: np.ndarray,
    head_rows: np.ndarray,
    head_vals: np.ndarray,
    leaf_flags: "list[bool]",
    leaves: "tuple[np.ndarray, ...] | None",
    drop_tol: float,
    max_fill: "int | None",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Factor columns ``j0..n-1`` with dense left-looking updates.

    ``head_*`` is the CSC factor of columns ``0..j0-1``.  The trailing
    Schur complement ``S = A_TT − L_TH·L_THᵀ`` comes from one sparse
    product of the head's rows ``>= j0``; then column ``c`` of the block
    is ``S[c:, c] − L[c:, :c]·L[c, :c]`` (one GEMV), with the sparse
    sweep's pivot check, drop rule against the stored ``‖A(j:n, j)‖₁``
    and ``max_fill`` cap.  The factor overwrites ``S`` column by column,
    so the block needs one ``k × k`` array.  Leaf columns take their
    batch-factored values as the sparse sweep does.  Returns the block's
    CSC ``(ptr, rows, vals)`` with rows in global numbering.
    """
    k = n - j0
    trailing = np.flatnonzero(head_rows >= j0)
    cols = np.searchsorted(head_ptr, trailing, side="right") - 1
    l_th = sp.csr_matrix(
        (head_vals[trailing], (head_rows[trailing] - j0, cols)), shape=(k, j0)
    )
    # column-major, so each column of S (and of L) is contiguous
    s = (l_th @ l_th.T).toarray(order="F")
    np.negative(s, out=s)
    a_start = a_indptr[j0]
    a_cols = np.repeat(np.arange(k), np.diff(a_indptr[j0:]))
    s[a_indices[a_start:] - j0, a_cols] += a_data[a_start:]

    if leaves is not None:
        leaf_slot, leaf_ptr, leaf_rows, leaf_vals, leaf_diag = leaves
    kept = np.zeros((k, k), dtype=bool, order="F")
    for c in range(k):
        j = j0 + c
        if leaf_flags[j]:
            slot = leaf_slot[j]
            lo, hi = leaf_ptr[slot], leaf_ptr[slot + 1]
            rows = leaf_rows[lo:hi] - j0
            s[c:, c] = 0.0
            s[c, c] = leaf_diag[slot]
            s[rows, c] = leaf_vals[lo:hi]
            kept[c, c] = True
            kept[rows, c] = True
            continue
        col = s[c:, c]
        if c:
            col -= s[c:, :c] @ s[c, :c]
        pivot = col[0]
        if pivot <= 0.0:
            raise CholeskyBreakdownError(f"nonpositive pivot {pivot:g} at column {j}")
        col_norm = float(np.abs(a_data[a_indptr[j]:a_indptr[j + 1]]).sum())
        keep = kept[c:, c]
        np.greater(np.abs(col), drop_tol * col_norm, out=keep)
        keep[0] = True
        if max_fill is not None:
            below = np.flatnonzero(keep[1:]) + 1
            if below.shape[0] > max_fill:
                top = np.argpartition(np.abs(col[below]), -max_fill)[-max_fill:]
                keep[np.delete(below, top)] = False
        diag = np.sqrt(pivot)
        col *= keep
        col /= diag
        col[0] = diag

    # the kept entries of each column in row order, the diagonal first
    cols_t, rows_t = np.nonzero(kept.T)
    ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols_t, minlength=k), out=ptr[1:])
    return ptr, rows_t + j0, s[rows_t, cols_t]


def _ict_factor(
    n: int,
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    a_data: np.ndarray,
    drop_tol: float,
    max_fill: "int | None",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, int]":
    """Core ICT sweep over already-permuted (and shifted) tril CSC arrays.

    Column ``j`` scatters ``A(j:n, j)`` into a dense scratch column, walks
    its Jones–Plassmann FIFO chain to collect the arena span
    ``L(j:n, k)`` of every contributing column ``k`` (re-filing each ``k``
    under its next row), and then applies all of them at once: the spans
    are gathered by one ``np.repeat`` + ``arange`` position array, scaled
    by their leading entries ``L(j, k)`` and subtracted with one
    ``np.subtract.at``.  ``ufunc.at`` applies its elements in array order,
    and the gathered array lists the spans in FIFO order, so every scratch
    entry receives the same subtractions in the same order as a per-column
    ``w[rows] -= L(j, k) · L(rows, k)`` loop — the factor is bit-identical
    to that loop, rounding included.

    Once the trailing block is dense (module docstring) the remaining
    columns go to :func:`_dense_tail`.

    Returns the factor as CSC ``(indptr, rows, vals)`` — every column
    stores its diagonal first, then the kept below-diagonal entries in
    ascending row order, so the arrays are a valid sorted CSC matrix as
    is — and the number of trailing columns factored densely.  Raises
    :class:`CholeskyBreakdownError` on a nonpositive pivot or a
    structurally missing diagonal.
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
    dense_from = n - _DENSE_MAX_COLUMNS
    dense_start = n

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

            # Jones–Plassmann walk: pure bookkeeping — record each
            # contributing column's live arena span and re-file its cursor
            bases = []
            stops = []
            k = head[j]
            head[j] = -1
            while k != -1:
                base = out_start[k] + cursor[k]
                stop = out_end[k]
                bases.append(base)
                stops.append(stop)
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

            if bases:
                # one gather of every span, one scaled scatter-subtract:
                # subtract.at applies its elements in array order, so each
                # w[r] sees the spans' subtractions in FIFO order
                span_base = np.array(bases, dtype=np.int64)
                span_len = np.array(stops, dtype=np.int64) - span_base
                span_end = span_len.cumsum()
                pos = np.arange(span_end[-1], dtype=np.int64)
                pos += (span_base + span_len - span_end).repeat(span_len)
                rows = out_rows[pos]
                np.subtract.at(
                    w, rows, out_vals[span_base].repeat(span_len) * out_vals[pos]
                )
                # candidate pattern: one sort of the gathered rows, then
                # drop repeats (cheaper than np.unique at these sizes)
                idx = np.concatenate((rows_a, rows))
                idx.sort()
                fresh = np.empty(idx.shape[0], dtype=bool)
                fresh[0] = True
                np.not_equal(idx[1:], idx[:-1], out=fresh[1:])
                idx = idx[fresh]
            else:
                idx = rows_a

            if j >= dense_from and 2 * idx.shape[0] >= n - j:
                # the trailing block is dense: finish it with dense updates
                dense_start = j
                break

            # every candidate row is >= j and the diagonal is stored, so
            # the sorted pattern starts with the pivot row j
            vals = w[idx]
            w[idx] = 0.0
            pivot = vals[0]
            if pivot <= 0.0:
                raise CholeskyBreakdownError(
                    f"nonpositive pivot {pivot:g} at column {j}"
                )
            diag = np.sqrt(pivot)
            below = idx[1:]
            vals_below = vals[1:]

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
    np.cumsum(lengths[:dense_start], out=indptr[1:dense_start + 1])
    rows, vals = out_rows[:used], out_vals[:used]
    if dense_start < n:
        leaves = (leaf_slot, leaf_ptr, leaf_rows, leaf_vals, leaf_diag) if lcols.size else None
        tail_ptr, tail_rows, tail_vals = _dense_tail(
            dense_start, n, a_indptr, a_indices, a_data,
            indptr[:dense_start + 1], rows, vals, leaf_flags, leaves, drop_tol, max_fill,
        )
        indptr[dense_start + 1:] = used + tail_ptr[1:]
        rows = np.concatenate((rows, tail_rows))
        vals = np.concatenate((vals, tail_vals))
    return indptr, rows, vals, n - dense_start


def ichol(
    matrix: sp.spmatrix,
    drop_tol: float = 1e-3,
    ordering: str = "natural",
    perm: "np.ndarray | None" = None,
    max_fill: "int | None" = None,
    initial_shift: float = 0.0,
    max_retries: int = 12,
) -> ICholResult:
    """Threshold incomplete Cholesky with diagonal-shift breakdown recovery.

    Parameters
    ----------
    matrix:
        Sparse symmetric positive-definite (or SDD) matrix.
    drop_tol:
        Relative drop tolerance τ; entries below ``τ·‖A(j:n,j)‖₁`` are
        discarded.  The paper uses ``1e-3``.  ``drop_tol=0`` yields the
        complete factor (no dropping).
    ordering:
        Fill-reducing ordering name (see :mod:`repro.cholesky.ordering`);
        ignored when ``perm`` is given.
    perm:
        Explicit permutation.
    max_fill:
        Optional cap on off-diagonal entries kept per column (ILUT-style
        ``p`` parameter); ``None`` keeps everything above the threshold.
    initial_shift:
        Starting Manteuffel shift ``α``; the retry loop doubles it on
        breakdown up to ``max_retries`` times.  The permuted ``tril``
        structure is extracted once and shared by every retry — a shift
        only bumps the stored diagonal values.
    """
    check_square_sparse(matrix, "matrix")
    check_finite_nonnegative(drop_tol, "drop_tol")
    if max_fill is not None:
        check_positive(max_fill, "max_fill")

    csc = sp.csc_matrix(matrix).astype(np.float64)
    n = csc.shape[0]
    if perm is None:
        perm = compute_ordering(csc, method=ordering)
    else:
        perm = np.asarray(perm, dtype=np.int64)
    permuted = permute_symmetric(csc, perm).tocsc()
    permuted.sort_indices()

    a_lower = sp.csc_matrix(sp.tril(permuted))
    a_lower.sort_indices()
    base_diag = permuted.diagonal()
    diag_mask = _stored_diag_mask(a_lower)
    shift = float(initial_shift)
    attempt = 0
    while True:
        if shift == 0.0:
            data = a_lower.data
        else:
            # the shift touches only stored diagonals (first entry of each
            # tril column) — pattern, indices and indptr are all reused
            data = a_lower.data.copy()
            data[a_lower.indptr[:-1][diag_mask]] += shift * base_diag[diag_mask]
        try:
            indptr, rows, vals, dense_columns = _ict_factor(
                n, a_lower.indptr, a_lower.indices, data, drop_tol, max_fill
            )
            break
        except CholeskyBreakdownError:
            attempt += 1
            if attempt > max_retries:
                raise
            shift = max(shift * 2.0, 1e-6)

    lower = sp.csc_matrix((vals, rows, indptr), shape=(n, n))
    # each column stores its diagonal first, then ascending below rows
    lower.has_sorted_indices = True
    return ICholResult(
        lower=lower, perm=perm, shift=shift, drop_tol=drop_tol, dense_columns=dense_columns
    )

