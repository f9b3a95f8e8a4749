"""DC incremental analysis — the ECO (engineering change order) loop.

A designer iterates on a power grid: each fix touches a small region, and
re-verifying IR drop from scratch is wasteful.  Because Alg. 1's reduction
is block-local, only the modified blocks are re-reduced.  This example
runs three consecutive "design edits" and compares incremental reduction
against full re-reduction and direct solving.

Run:  python examples/incremental_design.py
"""

from __future__ import annotations

import numpy as np

from repro.apps.incremental import perturb_blocks
from repro.core.engine import EngineConfig
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig
from repro.utils.timing import timed


def main() -> None:
    grid = synthetic_ibmpg_like(nx=30, ny=30, pad_pitch=8, seed=3)
    ports = grid.port_nodes()
    config = ReductionConfig(engine=EngineConfig(method="cholinv"), seed=1)

    with timed() as elapsed:
        reducer = PGReducer(grid, config)
        reduced = reducer.reduce()
    print(f"initial reduction: {grid.num_nodes} -> {reduced.grid.num_nodes} nodes "
          f"in {elapsed():.2f}s ({reducer.num_blocks} blocks)")

    rng = np.random.default_rng(0)
    current = grid
    current_reducer = reducer
    for iteration in range(1, 4):
        # the designer edits one block
        block = int(rng.integers(reducer.num_blocks))
        edited = perturb_blocks(current, reducer.labels, [block], seed=iteration)

        with timed() as elapsed:
            current_reducer = current_reducer.rebuild_for(edited, [block])
            reduced = current_reducer.reduce()
        t_incremental = elapsed()

        with timed() as elapsed:
            reduced_dc = dc_analysis(reduced.grid)
        t_solve = elapsed()

        with timed() as elapsed:
            direct_dc = dc_analysis(edited)
        t_direct = elapsed()

        err = reduced.port_voltage_errors(
            direct_dc.voltages, reduced_dc.voltages, ports
        )
        print(
            f"edit #{iteration} (block {block}): "
            f"re-reduce {t_incremental:.3f}s + solve {t_solve:.3f}s "
            f"vs direct {t_direct:.3f}s | "
            f"port err avg {err.mean() * 1e3:.4f} mV"
        )
        current = edited


if __name__ == "__main__":
    main()
