"""Ablation — ports-per-block (Alg. 1 step 1 sets #blocks = #ports/50).

The block count trades reduction cost against quality: few large blocks
mean expensive Schur complements and denser reduced blocks; many tiny
blocks keep more interface nodes (less reduction).  This ablation sweeps
the divisor around the paper's 50 and records size / time / error.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.bench.reporting import format_table
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig
from repro.utils.timing import timed

PORTS_PER_BLOCK = (15, 30, 50, 80)


def test_block_size_tradeoff(benchmark, bench_out_dir):
    grid = synthetic_ibmpg_like(nx=30, ny=30, pad_pitch=8, seed=10)
    original = dc_analysis(grid)
    ports = grid.port_nodes()
    rows = []

    def run():
        rows.clear()
        for divisor in PORTS_PER_BLOCK:
            with timed() as elapsed:
                reducer = PGReducer(
                    grid,
                    ReductionConfig(ports_per_block=divisor, seed=1),
                )
                reduced = reducer.reduce()
            t_red = elapsed()
            solution = dc_analysis(reduced.grid)
            errors = reduced.port_voltage_errors(
                original.voltages, solution.voltages, ports
            )
            rows.append(
                [divisor, reducer.num_blocks, reduced.grid.num_nodes,
                 reduced.grid.num_resistors, t_red,
                 errors.mean() / original.max_drop() * 100]
            )
        return rows

    benchmark.pedantic(run, iterations=1, rounds=1)

    rels = np.array([r[5] for r in rows])
    assert rels.max() < 10.0  # all operating points stay accurate
    # every setting truly reduces the model
    assert all(r[2] < grid.num_nodes for r in rows)

    table = format_table(
        ["ports/block", "#blocks", "|V|red", "|E|red", "Tred_s", "Rel_%"],
        rows,
        title="Ablation — block-size divisor (paper uses 50)",
    )
    emit(bench_out_dir, "ablation_block_size", table)
