"""Full Alg. 1 power-grid reduction and transient verification.

Builds a synthetic IBM-style power grid (VDD + GND nets, pads, pulsed
loads, decaps), reduces it with the graph-sparsification flow using
Alg. 3 effective resistances, and verifies the reduced model by transient
simulation at the ports — the paper's Table II protocol in miniature.

Run:  python examples/power_grid_reduction.py
"""

from __future__ import annotations

from repro.apps.transient_flow import run_transient_flow
from repro.core.engine import EngineConfig
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import ReductionConfig


def main() -> None:
    grid = synthetic_ibmpg_like(
        nx=32, ny=32, pad_pitch=8, transient=True, seed=7
    )
    ports = grid.port_nodes()
    print(f"original grid: {grid}")
    print(f"ports to preserve: {ports.size}")

    for method in ("exact", "cholinv"):
        outcome = run_transient_flow(
            grid,
            ReductionConfig(engine=EngineConfig(method=method), seed=1),
            step=1e-11,
            num_steps=300,
        )
        reduced = outcome.reduced.grid
        label = "accurate ER" if method == "exact" else "Alg. 3 ER"
        print(f"\n--- reduction with {label} ---")
        print(f"reduced grid: {reduced}")
        print(
            f"nodes {grid.num_nodes} -> {reduced.num_nodes} "
            f"({reduced.num_nodes / grid.num_nodes:.1%})"
        )
        print(f"Tred = {outcome.time_reduction:.2f}s")
        print(
            f"Ttr original = {outcome.time_transient_original:.2f}s, "
            f"reduced = {outcome.time_transient_reduced:.2f}s"
        )
        print(f"Err = {outcome.err_mv:.4f} mV,  Rel = {outcome.rel_pct:.2f}%")

        if method == "cholinv":
            from repro.reduction.quality import assess_reduction_quality

            quality = assess_reduction_quality(
                grid, outcome.reduced, num_corners=4, seed=0
            )
            print(f"corner sign-off: {quality.summary()}")


if __name__ == "__main__":
    main()
