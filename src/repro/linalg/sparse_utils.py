"""Small sparse-matrix helpers shared across the library.

The two hot kernels here — :func:`column_pair_dots` (the cross terms of
Eq. 22 for a batch of pairs) and :func:`csr_matmat_sorted` (the Alg. 2
products) — call scipy's compiled ``_sparsetools`` routines directly, the
same ones scipy's own indexing, ``multiply``, ``sum`` and ``@`` dispatch
to.  Skipping the matrix wrappers removes their O(nnz) format checks,
index-dtype scans and ``prune`` copies, which dominate when the kernels
run on many small matrices (the blocks of Alg. 1).  This is the only
module that depends on scipy internals; should they ever move, both
kernels fall back to the public API with the same results.

:func:`column_pair_dots` also owns its working set.  It walks any batch
in segments of at most ``_PAIR_SEGMENT_ENTRIES`` gathered entries
through one set of reused buffers, so its scratch stays a few MB
whatever the batch.  Scratch sized to the whole batch (a 46 MB peak for
all edges of a 72² mesh) comes back from the allocator as fresh
``mmap`` pages, thousands of minor page faults per call, and streams
through the cache on every pass.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

try:  # the kernels scipy's own sparse operations dispatch to
    from scipy.sparse import _sparsetools
except ImportError:  # pragma: no cover - scipy internals moved
    _sparsetools = None
_KERNELS = ("csr_row_index", "csr_elmul_csr", "csr_matmat", "csr_sort_indices")
if not all(hasattr(_sparsetools, name) for name in _KERNELS):  # pragma: no cover
    _sparsetools = None

_INT32_MAX = int(np.iinfo(np.int32).max)
# Gathered entries (Σ nnz_p + nnz_q) per segment of column_pair_dots:
# about 1.5 MB of gathers, within a core's L2.  Swept on a 2-core Xeon
# (2 MB L2 per core) over grid72, BA-3000 and the pg-reduce blocks:
# 3.2e4–2.5e5 are equally fast and fault-free, 5e5–1e6 start to fault.
_PAIR_SEGMENT_ENTRIES = 128_000


def nnz_per_column(matrix: sp.spmatrix) -> np.ndarray:
    """Number of stored nonzeros in each column."""
    csc = sp.csc_matrix(matrix)
    return np.diff(csc.indptr)


def column_slices(csc: sp.csc_matrix, j: int) -> "tuple[np.ndarray, np.ndarray]":
    """Row indices and values of column ``j`` (views into the CSC arrays)."""
    start, end = csc.indptr[j], csc.indptr[j + 1]
    return csc.indices[start:end], csc.data[start:end]


def drop_small(matrix: sp.spmatrix, threshold: float) -> sp.csc_matrix:
    """Zero out entries with ``|value| < threshold`` and compress."""
    csc = sp.csc_matrix(matrix).copy()
    csc.data[np.abs(csc.data) < threshold] = 0.0
    csc.eliminate_zeros()
    return csc


def relative_residual(matrix: sp.spmatrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """``‖A x − b‖ / ‖b‖`` with a safe denominator."""
    b_norm = float(np.linalg.norm(rhs)) or 1.0
    return float(np.linalg.norm(matrix @ x - rhs)) / b_norm


def gather_index_dtype(gather_nnz: int, source_dtype) -> np.dtype:
    """Index dtype for gathering ``gather_nnz`` entries out of a matrix
    whose index arrays have ``source_dtype``.

    ``int32`` when the source is ``int32`` and the gather's row pointer
    fits, ``int64`` otherwise — so a large gather never wraps, and an
    ``int64`` source is read without a converted copy.
    """
    if np.dtype(source_dtype) == np.int32 and gather_nnz <= _INT32_MAX:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def column_pair_dots(
    csc: sp.csc_matrix,
    cols_p: np.ndarray,
    cols_q: np.ndarray,
    assume_finite: bool = False,
) -> np.ndarray:
    """``csc[:, p]ᵀ csc[:, q]`` for every pair ``(p, q)`` of column ids.

    Bit-identical to ``np.asarray(csc[:, cols_p].multiply(csc[:, cols_q])
    .sum(axis=0)).ravel()``, and runs the same compiled kernels: two
    ``csr_row_index`` gathers of the columns, one ``csr_elmul_csr`` merge
    of each pair of sorted row lists (products that come out exactly 0
    are dropped, as scipy does), and ``np.add.reduceat`` over the
    non-empty products, which is what scipy's ``sum`` applies.

    The batch runs in consecutive segments of at most
    ``_PAIR_SEGMENT_ENTRIES`` gathered entries, ``Σ (nnz_p + nnz_q)``
    (a pair larger than that is a segment of its own), through one set
    of gather and product buffers sized for the largest segment: the
    scratch stays cache-sized and fault-free whatever the batch (see the
    module docstring).  Every pair's dot is its own ``reduceat`` sum, so
    segmenting cannot change it.  The index dtype comes from
    :func:`gather_index_dtype` on the largest segment.

    With ``assume_finite`` (every stored value is finite) the product
    buffer holds ``Σ min(nnz_p, nnz_q)`` entries — only rows present in
    both columns can give a nonzero product — instead of
    ``Σ (nnz_p + nnz_q)``, which an ``inf`` or ``nan`` times an implicit
    zero needs.
    """
    cols_p = np.asarray(cols_p, dtype=np.int64)
    cols_q = np.asarray(cols_q, dtype=np.int64)
    m = cols_p.shape[0]
    dots = np.zeros(m)
    if m == 0:
        return dots
    if _sparsetools is None:  # pragma: no cover - scipy internals moved
        return np.asarray(csc[:, cols_p].multiply(csc[:, cols_q]).sum(axis=0)).ravel()
    indptr = csc.indptr
    nnz_p = indptr[cols_p + 1] - indptr[cols_p]
    nnz_q = indptr[cols_q + 1] - indptr[cols_q]
    products = np.minimum(nnz_p, nnz_q) if assume_finite else nnz_p + nnz_q
    bounds = _pair_segments(nnz_p + nnz_q)
    if len(bounds) == 2:  # one segment: the batch totals size the buffers
        k_max = m
        caps = [int(counts.sum(dtype=np.int64)) for counts in (nnz_p, nnz_q, products)]
    else:
        k_max = int(np.diff(bounds).max())
        caps = [
            int(np.add.reduceat(counts, bounds[:-1], dtype=np.int64).max())
            for counts in (nnz_p, nnz_q, products)
        ]
    dtype = gather_index_dtype(max(caps), csc.indices.dtype)
    src_ptr = indptr.astype(dtype, copy=False)
    src_idx = csc.indices.astype(dtype, copy=False)
    ptr_p, ptr_q, out_ptr = (np.zeros(k_max + 1, dtype=dtype) for _ in range(3))
    idx_p, idx_q, out_idx = (np.empty(cap, dtype=dtype) for cap in caps)
    val_p, val_q, out_val = (np.empty(cap, dtype=csc.data.dtype) for cap in caps)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        k = stop - start
        for cols, counts, ptr, idx, val in (
            (cols_p, nnz_p, ptr_p, idx_p, val_p), (cols_q, nnz_q, ptr_q, idx_q, val_q)
        ):
            counts[start:stop].cumsum(out=ptr[1:k + 1])
            _sparsetools.csr_row_index(
                k, cols[start:stop].astype(dtype, copy=False),
                src_ptr, src_idx, csc.data, idx, val,
            )
        seg_ptr = out_ptr[:k + 1]
        _sparsetools.csr_elmul_csr(
            k, csc.shape[0], ptr_p[:k + 1], idx_p, val_p, ptr_q[:k + 1], idx_q, val_q,
            seg_ptr, out_idx, out_val,
        )
        nonempty = np.flatnonzero(seg_ptr[1:] != seg_ptr[:-1])
        if nonempty.size:
            dots[start + nonempty] = np.add.reduceat(
                out_val[: int(seg_ptr[-1])], seg_ptr[nonempty].astype(np.intp)
            )
    return dots


def _pair_segments(gathered: np.ndarray) -> "list[int]":
    """Boundaries of consecutive pair segments that each gather at most
    ``_PAIR_SEGMENT_ENTRIES`` entries (``gathered[i]`` is pair ``i``'s
    count); a pair over the budget gets a segment of its own."""
    m = gathered.shape[0]
    cum = gathered.cumsum(dtype=np.int64)
    if cum[-1] <= _PAIR_SEGMENT_ENTRIES:
        return [0, m]
    bounds = [0]
    while bounds[-1] < m:
        start = bounds[-1]
        base = int(cum[start - 1]) if start else 0
        stop = int(cum.searchsorted(base + _PAIR_SEGMENT_ENTRIES, side="right"))
        bounds.append(max(stop, start + 1))
    return bounds


def csr_matmat_sorted(
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
    """``(A @ B)`` for CSR operands ``A (k×·)`` and ``B (·×n)``.

    Returns the product's ``(indptr, indices, data)`` in ``int32`` indices,
    sorted within each row.  ``nnz_bound`` must upper-bound the product's
    nnz and fit ``int32``; passing it skips scipy's symbolic pass.
    """
    if _sparsetools is None:  # pragma: no cover - scipy internals moved
        a = sp.csr_matrix((a_val, a_idx, a_ptr), shape=(k, b_ptr.shape[0] - 1))
        b = sp.csr_matrix((b_val, b_idx, b_ptr), shape=(b_ptr.shape[0] - 1, n))
        out = (a @ b).tocsr()
        out.sort_indices()
        return out.indptr, out.indices, out.data
    out_ptr = np.empty(k + 1, dtype=np.int32)
    out_idx = np.empty(nnz_bound, dtype=np.int32)
    out_val = np.empty(nnz_bound)
    _sparsetools.csr_matmat(
        k, n, a_ptr, a_idx, a_val, b_ptr, b_idx, b_val, out_ptr, out_idx, out_val
    )
    nnz = int(out_ptr[-1])
    out_idx, out_val = out_idx[:nnz], out_val[:nnz]
    _sparsetools.csr_sort_indices(k, out_ptr, out_idx, out_val)
    return out_ptr, out_idx, out_val
