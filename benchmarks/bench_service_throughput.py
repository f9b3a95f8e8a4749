"""E8 — blocked Alg. 2 kernel speedup and ResistanceService throughput.

Two claims back the serving layer:

* the level-scheduled blocked Alg. 2 kernel beats the per-column reference
  loop by ≥ 3× on a ~50k-node grid while producing the *same* ``Z̃``
  (cross-checked here entry-for-entry);
* a :class:`repro.service.ResistanceService` answering a skewed query
  stream (hot pairs dominate, as in production traffic) serves repeat
  traffic much faster than engine-only evaluation thanks to its
  direct-mapped, epoch-stamped result table.

``REPRO_BENCH_SMOKE=1`` shrinks both cases to CI-smoke size;
``REPRO_BENCH_FULL=1`` grows the kernel case beyond the paper scale.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import emit, full_scale
from repro.bench.reporting import format_table
from repro.cholesky.incomplete import ichol
from repro.core.approx_inverse import approximate_inverse
from repro.core.engine import EngineConfig
from repro.graphs.generators import grid_2d
from repro.graphs.laplacian import grounded_laplacian
from repro.service import ResistanceService


def smoke_scale() -> bool:
    """True for the CI smoke configuration (tiny cases, loose asserts)."""
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _kernel_side() -> int:
    if smoke_scale():
        return 60  # 3.6k nodes
    if full_scale():
        return 300  # 90k nodes
    return 224  # ~50k nodes — the acceptance case


def _best_of(fn, repeats: int = 2) -> "tuple[float, object]":
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, result = elapsed, out
    return best, result


def test_blocked_kernel_speedup(benchmark, bench_out_dir):
    side = _kernel_side()
    graph = grid_2d(side, side, jitter=0.3, seed=5)
    matrix, _ = grounded_laplacian(graph, 1.0)
    factor = ichol(matrix, drop_tol=1e-3, ordering="amd")
    rows = []

    def run():
        rows.clear()
        t_ref, (z_ref, _) = _best_of(
            lambda: approximate_inverse(factor.lower, epsilon=1e-3, mode="reference")
        )
        t_blk, (z_blk, _) = _best_of(
            lambda: approximate_inverse(factor.lower, epsilon=1e-3, mode="blocked")
        )
        assert (z_ref.indptr == z_blk.indptr).all()
        assert (z_ref.indices == z_blk.indices).all()
        assert np.allclose(z_ref.data, z_blk.data, rtol=1e-12, atol=0.0)
        rows.append(
            [graph.num_nodes, graph.num_edges, z_blk.nnz, t_ref, t_blk, t_ref / t_blk]
        )
        return rows

    benchmark.pedantic(run, iterations=1, rounds=1)
    speedup = rows[0][5]
    if not smoke_scale():
        assert speedup >= 3.0, f"blocked kernel only {speedup:.2f}x over reference"

    table = format_table(
        ["n", "m", "nnz(Z)", "reference_s", "blocked_s", "speedup"],
        rows,
        title="E8a — blocked vs reference Alg. 2 kernel (same Z̃, paper ε)",
    )
    emit(bench_out_dir, "service_kernel_speedup", table)


def test_service_query_throughput(benchmark, bench_out_dir):
    side = 40 if smoke_scale() else 140
    graph = grid_2d(side, side, jitter=0.3, seed=7)
    rng = np.random.default_rng(11)
    # skewed stream: many requests concentrated on few hot pairs
    distinct = 500 if smoke_scale() else 5000
    stream_len = 10 * distinct
    hot = np.column_stack([
        rng.integers(0, graph.num_nodes, size=distinct),
        rng.integers(0, graph.num_nodes, size=distinct),
    ])
    stream = hot[rng.integers(0, distinct, size=stream_len)]
    rows = []

    def run():
        rows.clear()
        service = ResistanceService(
            graph, config=EngineConfig(epsilon=1e-3, drop_tol=1e-3)
        )
        t0 = time.perf_counter()
        cold = service.query_pairs(stream)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = service.query_pairs(stream)
        t_warm = time.perf_counter() - t0
        assert np.array_equal(cold, warm, equal_nan=True)
        rows.append([
            graph.num_nodes, stream_len, distinct,
            stream_len / t_cold, stream_len / t_warm,
            service.stats.hit_rate,
        ])
        return service

    service = benchmark.pedantic(run, iterations=1, rounds=1)
    assert service.stats.hit_rate > 0.5  # repeats + duplicates hit the result table
    assert rows[0][4] > rows[0][3]  # warm pass beats cold pass

    table = format_table(
        ["n", "queries", "distinct", "cold_qps", "warm_qps", "hit_rate"],
        rows,
        title="E8b — ResistanceService throughput on a skewed pair stream",
    )
    emit(bench_out_dir, "service_throughput", table)
