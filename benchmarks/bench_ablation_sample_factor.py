"""Ablation — sparsifier sample budget (Alg. 1 step 4).

The Spielman–Srivastava sample count ``q = factor·n·ln n`` controls the
size/accuracy trade-off of the sparsified blocks.  Sweeping the factor
shows the reduced-model edge count growing and the port error shrinking —
the design choice behind the paper's reduced-model sizes in Table II.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.bench.reporting import format_table
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig

SAMPLE_FACTORS = (2.0, 4.0, 8.0, 16.0)


def test_sample_factor_tradeoff(benchmark, bench_out_dir):
    grid = synthetic_ibmpg_like(nx=26, ny=26, pad_pitch=7, seed=11)
    original = dc_analysis(grid)
    ports = grid.port_nodes()
    rows = []

    def run():
        rows.clear()
        for factor in SAMPLE_FACTORS:
            reducer = PGReducer(
                grid,
                ReductionConfig(sparsify_sample_factor=factor, seed=1),
            )
            reduced = reducer.reduce()
            solution = dc_analysis(reduced.grid)
            errors = reduced.port_voltage_errors(
                original.voltages, solution.voltages, ports
            )
            rows.append(
                [factor, reduced.grid.num_nodes, reduced.grid.num_resistors,
                 errors.mean() / original.max_drop() * 100]
            )
        return rows

    benchmark.pedantic(run, iterations=1, rounds=1)

    edges = np.array([r[2] for r in rows], dtype=float)
    rels = np.array([r[3] for r in rows])
    assert edges[-1] >= edges[0]  # bigger budget, denser model
    assert rels[-1] <= rels[0] + 0.5  # ... and at least as accurate

    table = format_table(
        ["sample_factor", "|V|red", "|E|red", "Rel_%"],
        rows,
        title="Ablation — sparsifier sample factor",
    )
    emit(bench_out_dir, "ablation_sample_factor", table)
