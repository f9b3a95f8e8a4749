"""E5 — scalability: nnz(Z̃) and runtime grow like n·log n.

Section III-C claims nnz(Z̃) ≈ C·n·log n with a small constant C (< 20),
and overall complexity O(n log n · log log n) — the basis of the paper's
6.0E7-node "thupg10" data point.  This bench sweeps grid sizes and checks

* the measured C = nnz(Z̃)/(n log n) stays bounded (no upward drift);
* runtime grows sub-quadratically (doubling n far less than 4X time).

Besides the rendered table, the run writes ``BENCH_scaling.json`` (one row
per size: n, m, nnz(Z̃), nnz(L̃) of the ICT factor, per-stage wall time,
workers) so CI artifacts record the scaling and fill trajectory
machine-readably across commits.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit, emit_json, full_scale
from repro.bench.reporting import format_table
from repro.core.effective_resistance import CholInvEffectiveResistance
from repro.graphs.generators import grid_2d
from repro.utils.timing import timed


def _sizes():
    if full_scale():
        return [(60, 60), (85, 85), (120, 120), (170, 170), (240, 240)]
    return [(40, 40), (57, 57), (80, 80), (113, 113)]


def test_nnz_and_time_scale_like_nlogn(benchmark, bench_out_dir):
    rows = []
    records = []

    def run():
        rows.clear()
        records.clear()
        for rows_n, cols_n in _sizes():
            graph = grid_2d(rows_n, cols_n, jitter=0.3, seed=5)
            with timed() as elapsed:
                est = CholInvEffectiveResistance(
                    graph, epsilon=1e-3, drop_tol=1e-3, ordering="amd"
                )
                est.all_edge_resistances()
            n = graph.num_nodes
            rows.append(
                [n, graph.num_edges, est.stats.nnz, est.stats.nnz_per_nlogn,
                 est.max_depth, elapsed()]
            )
            records.append({
                "nodes": n,
                "edges": int(graph.num_edges),
                "nnz_z": int(est.stats.nnz),
                "nnz_l": int(est.ichol_result.nnz),
                "nnz_per_nlogn": float(est.stats.nnz_per_nlogn),
                "max_depth": int(est.max_depth),
                "workers": int(est.build_workers),
                "stage_seconds": {
                    stage: float(seconds)
                    for stage, seconds in est.timer.times.items()
                },
                "total_seconds": float(elapsed()),
            })
        return rows

    benchmark.pedantic(run, iterations=1, rounds=1)

    ratios = np.array([r[3] for r in rows])
    times = np.array([r[5] for r in rows])
    ns = np.array([r[0] for r in rows])

    # C stays small and does not drift upward (paper: C < 20)
    assert ratios.max() < 25.0
    assert ratios[-1] < 2.0 * ratios[0]

    # runtime clearly sub-quadratic: fit slope of log(time) vs log(n)
    slope = np.polyfit(np.log(ns), np.log(times), 1)[0]
    assert slope < 1.8, f"runtime scaling exponent {slope:.2f} looks superlinear"

    table = format_table(
        ["n", "m", "nnz(Z)", "nnz/(n log n)", "dpt", "time_s"],
        rows,
        title="E5 — nnz(Z̃) and runtime scaling (paper: C < 20, ~n log n)",
    )
    emit(bench_out_dir, "scaling", table + f"\nfitted time exponent: {slope:.2f}")
    emit_json(bench_out_dir, "scaling", {
        "fitted_time_exponent": float(slope),
        "sizes": records,
    })
