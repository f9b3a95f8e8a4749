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

:func:`column_pair_dots` also owns its working set.  A batch of more
than ``_PAIR_SEGMENT_ENTRIES`` gathered entries is walked in segments
through reused buffers, and one call's buffers stay within that budget
however many threads share the call, so its scratch is a few MB whatever
the batch and the host.  Scratch sized to the whole batch (a 46 MB peak
for all edges of a 72² mesh) comes back from the allocator as fresh
``mmap`` pages, thousands of minor page faults per call, and streams
through the cache on every pass.

Cores are owned in two layers.  The service's executor
(:mod:`repro.service.executor`) owns the fan-out *between* the
sub-batches of a planned batch; :func:`column_pair_dots` owns the
fan-out *inside* one batch.  Its segments are independent, and scipy's
gather and merge kernels release the GIL, so a batch of several
segments is shared out between the calling thread and the helpers of
one process-wide pool of ``cores − 1`` threads (none on a 1-core host).
A call's segments shrink to ``1 / min(cores, _MAX_PARTICIPANTS)`` of
the budget, and it has at most that many participants (see
:func:`_pair_plan`).  The two layers compose without oversubscribing the host or stalling a
caller because the caller always works on its own batch and never waits
for a helper that has not started: when its segments run out it cancels
any helper task still queued (say, behind another caller's segments) and
waits only for helpers already running.  However many threads query at
once, the process holds at most ``cores − 1`` helpers.  A one-segment
batch (a small request) runs inline without touching the pool, and so
does every batch once the interpreter is shutting down and the pool
takes no more work.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait

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
# Gathered entries (Σ nnz_p + nnz_q) per call of column_pair_dots that
# walks a batch in segments: about 1.5 MB of gathers, within a core's L2.
# Swept on a 2-core Xeon (2 MB L2 per core) over grid72, BA-3000 and the
# pg-reduce blocks: segments of 3.2e4–2.5e5 are equally fast and
# fault-free, 5e5–1e6 start to fault, and below 3.2e4 the per-segment
# calls show (one thread, all edges: +12–17% at 1.6e4, +35–55% at 8e3).
_PAIR_SEGMENT_ENTRIES = 128_000
# Participants in one call, whose segments take 1/participants of the
# budget each: four keeps them at 3.2e4 entries, the smallest of the
# flat range above.
_MAX_PARTICIPANTS = 4


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API on this OS
        return os.cpu_count() or 1


# A multi-segment column_pair_dots call has at most
# min(_CORES, _MAX_PARTICIPANTS) participants: its caller and helpers
# from one pool of _CORES - 1 threads, which a 1-core host never makes.
_CORES = _usable_cores()
_HELPER_PREFIX = "repro-pair-dots"
_HELPERS: "dict[str, ThreadPoolExecutor]" = {}
if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads and may hold its locks
    # as the parent left them: it makes a pool of its own on first use
    os.register_at_fork(after_in_child=_HELPERS.clear)


def _helper_pool() -> ThreadPoolExecutor:
    """The process-wide pool of ``_CORES − 1`` pair-dot helpers, made on
    first use; its threads start as work is first submitted to them."""
    pool = _HELPERS.get("pool")
    if pool is None:
        # two first callers may both build one; dict.setdefault is atomic
        # under the GIL, so both use the same pool and the other (which
        # never started a thread) is dropped
        pool = _HELPERS.setdefault(
            "pool", ThreadPoolExecutor(_CORES - 1, thread_name_prefix=_HELPER_PREFIX)
        )
    return pool


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

    A batch of at most ``_PAIR_SEGMENT_ENTRIES`` gathered entries,
    ``Σ (nnz_p + nnz_q)``, runs inline as one segment.  A larger batch
    runs in consecutive segments, through gather and product buffers
    sized for the largest segment, shared out one segment at a time
    between the calling thread and helpers of the process-wide pool
    (:func:`_pair_plan` sets the segments and the participant count).
    Each participant has a buffer set of its own, and participants ×
    largest segment stays within the budget, so a call's scratch stays
    cache-sized and fault-free whatever the batch and the core count
    (see the module docstring).  Every pair's dot is its own
    ``reduceat`` sum, written by exactly one participant, so neither the
    segmentation nor the participant count can change it.  The index
    dtype comes from :func:`gather_index_dtype` on the largest segment.
    The caller never waits for a helper that has not started (see the
    module docstring), and a helper's exception re-raises here.

    With ``assume_finite`` (every stored value is finite) the product
    buffer holds ``Σ min(nnz_p, nnz_q)`` entries — only rows present in
    both columns can give a nonzero product — instead of
    ``Σ (nnz_p + nnz_q)``, which an ``inf`` or ``nan`` times an implicit
    zero needs.  (A one-segment batch takes the bound
    ``min(Σ nnz_p, Σ nnz_q)`` instead, which needs no per-pair pass.)
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
    bounds, participants = _pair_plan(nnz_p + nnz_q)
    if len(bounds) == 2:  # one segment: the batch totals size the buffers
        k_max = m
        cap_p, cap_q = int(nnz_p.sum(dtype=np.int64)), int(nnz_q.sum(dtype=np.int64))
        # Σ min(nnz_p, nnz_q) is at most min(Σ nnz_p, Σ nnz_q)
        caps = [cap_p, cap_q, min(cap_p, cap_q) if assume_finite else cap_p + cap_q]
    else:
        products = np.minimum(nnz_p, nnz_q) if assume_finite else nnz_p + nnz_q
        k_max = int(np.diff(bounds).max())
        caps = [
            int(np.add.reduceat(counts, bounds[:-1], dtype=np.int64).max())
            for counts in (nnz_p, nnz_q, products)
        ]
    dtype = gather_index_dtype(max(caps), csc.indices.dtype)
    source = (indptr.astype(dtype, copy=False), csc.indices.astype(dtype, copy=False), csc.data)
    # next() on an itertools.count is one C call, atomic under the GIL:
    # every segment number goes to exactly one participant, with no lock
    tickets = itertools.count()
    work = (tickets, bounds, dtype, csc.shape[0], source, ((cols_p, nnz_p), (cols_q, nnz_q)), dots)
    # the caller allocates every participant's buffers: a helper thread
    # allocates from a malloc arena of its own, whose freed pages the
    # builds on the calling thread never reuse (in perfbench that raised
    # peak RSS by 3–5 MB)
    own = _segment_buffers(k_max, caps, dtype, csc.data.dtype)
    if participants == 1:
        _dot_segments(*work, own)
        return dots
    # what the helper tasks share: the call's work and one buffer set per
    # helper, task i taking set i
    shared = [work]
    for _ in range(participants - 1):
        shared.append(_segment_buffers(k_max, caps, dtype, csc.data.dtype))
    helpers = []
    try:
        pool = _helper_pool()
        for i in range(1, participants):
            helpers.append(pool.submit(_help, shared, i))
    except RuntimeError:
        # the interpreter is shutting down (or the pool broke) and takes
        # no more work: the caller answers alone, with the same bytes
        pass
    try:
        _dot_segments(*work, own)
    finally:
        # a helper still queued (behind another caller's segments) would
        # only find the tickets used up: drop it instead of waiting; wait
        # for a running one, which holds its last segment
        running = [helper for helper in helpers if not helper.cancel()]
        wait(running)
        # a cancelled task stays in the pool's queue until a helper takes
        # it off: leave it an empty list, not the buffers and the batch
        shared.clear()
    for helper in running:
        helper.result()  # re-raises a helper's exception
    return dots


def _help(shared: list, i: int) -> None:
    """A helper's part of a call: run segments through buffer set
    ``shared[i]`` until the call's tickets are used up (``shared[0]`` is
    the call's work)."""
    _dot_segments(*shared[0], shared[i])


def _segment_buffers(k_max, caps, dtype, value_dtype) -> "tuple":
    """One participant's buffers for segments of at most ``k_max`` pairs
    that gather and multiply at most ``caps`` entries: the row pointers,
    indices and values of the ``p`` gather, the ``q`` gather and the
    products (one allocation per dtype, cut into the three)."""
    cap_p, cap_pq = caps[0], caps[0] + caps[1]
    indices = np.empty(cap_pq + caps[2], dtype=dtype)
    values = np.empty(cap_pq + caps[2], dtype=value_dtype)
    return (
        np.zeros((3, k_max + 1), dtype=dtype),
        (indices[:cap_p], indices[cap_p:cap_pq], indices[cap_pq:]),
        (values[:cap_p], values[cap_p:cap_pq], values[cap_pq:]),
    )


def _dot_segments(tickets, bounds, dtype, n_rows, source, sides, dots, buffers) -> None:
    """Take segment numbers from ``tickets`` until they pass the last
    segment of ``bounds``, and write each segment's pair dots into
    ``dots``, through this participant's own ``buffers``
    (:func:`_segment_buffers`).  ``source`` is the matrix's
    ``(indptr, indices, data)`` in ``dtype`` indices, ``sides`` the
    ``(columns, nnz)`` of the ``p`` and the ``q`` ends."""
    segments = len(bounds) - 1
    src_ptr, src_idx, src_val = source
    (cols_p, nnz_p), (cols_q, nnz_q) = sides
    (ptr_p, ptr_q, out_ptr), (idx_p, idx_q, out_idx), (val_p, val_q, out_val) = buffers
    gathers = ((cols_p, nnz_p, ptr_p, idx_p, val_p), (cols_q, nnz_q, ptr_q, idx_q, val_q))
    i = next(tickets)
    while i < segments:
        start, stop = bounds[i], bounds[i + 1]
        k = stop - start
        for cols, counts, ptr, idx, val in gathers:
            counts[start:stop].cumsum(out=ptr[1:k + 1])
            _sparsetools.csr_row_index(
                k, cols[start:stop].astype(dtype, copy=False),
                src_ptr, src_idx, src_val, idx, val,
            )
        seg_ptr = out_ptr[:k + 1]
        _sparsetools.csr_elmul_csr(
            k, n_rows, ptr_p[:k + 1], idx_p, val_p, ptr_q[:k + 1], idx_q, val_q,
            seg_ptr, out_idx, out_val,
        )
        nonempty = np.flatnonzero(seg_ptr[1:] != seg_ptr[:-1])
        if nonempty.size:
            # segments are disjoint pair ranges and each goes to one
            # participant, so no two threads write the same entry
            dots[start + nonempty] = np.add.reduceat(  # repro: ignore[executor-escape]
                out_val[: int(seg_ptr[-1])], seg_ptr[nonempty].astype(np.intp)
            )
        i = next(tickets)


def _pair_plan(gathered: np.ndarray) -> "tuple[list[int], int]":
    """Segment boundaries and participant count of a batch whose pair
    ``i`` gathers ``gathered[i]`` entries.

    A batch within ``_PAIR_SEGMENT_ENTRIES`` is one segment for the
    caller alone.  A larger one is cut into consecutive segments of at
    most ``_PAIR_SEGMENT_ENTRIES // c`` entries, ``c = min(_CORES,
    _MAX_PARTICIPANTS)`` (a pair over that is a segment of its own), and
    shared by at most ``c`` participants — but only by as many as can
    each hold the largest segment within the budget, so the buffers of
    one call never take more than one budget (or, with a pair over it,
    the buffers of that pair alone).
    """
    m = gathered.shape[0]
    cum = gathered.cumsum(dtype=np.int64)
    if cum[-1] <= _PAIR_SEGMENT_ENTRIES:
        return [0, m], 1
    cores = min(_CORES, _MAX_PARTICIPANTS)
    budget = _PAIR_SEGMENT_ENTRIES // cores
    bounds, largest = [0], 0
    while bounds[-1] < m:
        start = bounds[-1]
        base = int(cum[start - 1]) if start else 0
        stop = max(int(cum.searchsorted(base + budget, side="right")), start + 1)
        bounds.append(stop)
        largest = max(largest, int(cum[stop - 1]) - base)
    participants = min(cores, len(bounds) - 1, max(1, _PAIR_SEGMENT_ENTRIES // largest))
    return bounds, participants


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
