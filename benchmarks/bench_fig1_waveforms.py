"""Fig. 1 — transient waveforms of a VDD node and a GND node.

Runs the original and Alg.3-reduced transient simulations of the pg3-like
case, picks the worst-drop VDD port and worst-bounce GND port, writes the
four waveforms to ``benchmarks/out/fig1_waveforms.csv`` and renders an
ASCII figure.  The claim: the reduced-model waveforms visually coincide
with the original (paper shows overlapping curves).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit, full_scale
from repro.bench.cases import TABLE2_CASES
from repro.bench.fig1 import ascii_plot, run_fig1


def test_fig1_waveforms(benchmark, bench_out_dir):
    case = TABLE2_CASES["pg3-like"]
    steps = 1000 if full_scale() else 300

    def run():
        return run_fig1(
            case,
            num_steps=steps,
            output_csv=bench_out_dir / "fig1_waveforms.csv",
        )

    result = benchmark.pedantic(run, iterations=1, rounds=1)

    # the curves must coincide: divergence well under the grid's IR drop
    drop_scale = max(
        np.max(1.8 - result.vdd_original), np.max(result.gnd_original), 1e-9
    )
    assert result.max_divergence() < 0.25 * drop_scale

    vdd_plot = ascii_plot(
        result.times,
        {"original": result.vdd_original, "reduced": result.vdd_reduced},
        title=f"Fig. 1 (top): VDD node {result.vdd_node_name}",
    )
    gnd_plot = ascii_plot(
        result.times,
        {"original": result.gnd_original, "reduced": result.gnd_reduced},
        title=f"Fig. 1 (bottom): GND node {result.gnd_node_name}",
    )
    emit(bench_out_dir, "fig1", vdd_plot + "\n\n" + gnd_plot)
