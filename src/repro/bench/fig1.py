"""Fig. 1 — transient waveforms of a VDD node and a GND node.

The paper plots the transient simulation of one VDD node and one GND node
of case "ibmpg3t", obtained from the original and the reduced power grid,
and shows the curves coincide.  This module reproduces that experiment on
the synthetic case: it picks the worst-IR-drop VDD port and the
worst-bounce GND port, runs both simulations, writes a CSV, and renders an
ASCII plot (the offline stand-in for the paper's matplotlib figure).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bench.cases import Table2Case
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.powergrid.transient import transient_analysis
from repro.reduction.pipeline import PGReducer, ReductionConfig


@dataclass
class Fig1Result:
    """Waveform data of the Fig. 1 reproduction."""

    times: np.ndarray
    vdd_node_name: str
    gnd_node_name: str
    vdd_original: np.ndarray
    vdd_reduced: np.ndarray
    gnd_original: np.ndarray
    gnd_reduced: np.ndarray

    def max_divergence(self) -> float:
        """Largest |original − reduced| over both waveforms (volts)."""
        return float(
            max(
                np.abs(self.vdd_original - self.vdd_reduced).max(),
                np.abs(self.gnd_original - self.gnd_reduced).max(),
            )
        )

    def to_csv(self, path: "str | Path") -> None:
        """Dump the four waveforms to CSV for external plotting."""
        header = (
            f"time_s,vdd_original({self.vdd_node_name}),vdd_reduced,"
            f"gnd_original({self.gnd_node_name}),gnd_reduced"
        )
        data = np.column_stack(
            [self.times, self.vdd_original, self.vdd_reduced, self.gnd_original, self.gnd_reduced]
        )
        np.savetxt(str(path), data, delimiter=",", header=header, comments="")


def ascii_plot(
    times: np.ndarray,
    series: "dict[str, np.ndarray]",
    width: int = 72,
    height: int = 16,
    title: str = "",
) -> str:
    """Minimal ASCII line plot (offline stand-in for Fig. 1)."""
    all_values = np.concatenate(list(series.values()))
    lo, hi = float(all_values.min()), float(all_values.max())
    if hi - lo < 1e-15:
        hi = lo + 1e-15
    canvas = [[" "] * width for _ in range(height)]
    markers = "ox+*"
    for (label, values), marker in zip(series.items(), markers):
        xs = np.linspace(0, width - 1, values.shape[0]).astype(int)
        ys = ((values - lo) / (hi - lo) * (height - 1)).astype(int)
        for x, y in zip(xs, ys):
            canvas[height - 1 - y][x] = marker
    lines = [title] if title else []
    lines.append(f"{hi:.4f} V")
    lines.extend("".join(row) for row in canvas)
    lines.append(f"{lo:.4f} V" + " " * max(0, width - 20) + f"t = {times[-1]:.2e} s")
    legend = "   ".join(f"{m} {label}" for (label, _), m in zip(series.items(), markers))
    lines.append(legend)
    return "\n".join(lines)


def run_fig1(
    case: Table2Case,
    num_steps: int = 1000,
    output_csv: "str | Path | None" = None,
) -> Fig1Result:
    """Reproduce Fig. 1 on a synthetic case, reduced with the default Alg. 3
    engine (see module docstring)."""
    grid = synthetic_ibmpg_like(case.config, seed=case.seed, transient=True)
    ports = grid.port_nodes()

    # choose observation nodes: the ports with the worst DC drop per net
    dc = dc_analysis(grid)
    port_names = [grid.name_of(int(p)) for p in ports]
    vdd_ports = [p for p, nm in zip(ports, port_names) if "_vdd_" in nm]
    gnd_ports = [p for p, nm in zip(ports, port_names) if "_gnd_" in nm]
    vdd_node = int(max(vdd_ports, key=lambda p: 1.8 - dc.voltages[p]))
    gnd_node = int(max(gnd_ports, key=lambda p: dc.voltages[p]))
    observe = np.array([vdd_node, gnd_node])

    original = transient_analysis(
        grid, step=case.transient_step, num_steps=num_steps, observe=observe
    )

    reducer = PGReducer(grid, ReductionConfig(seed=case.seed))
    reduced = reducer.reduce()
    reduced_observe = reduced.reduced_index_of(observe)
    reduced_run = transient_analysis(
        reduced.grid, step=case.transient_step, num_steps=num_steps, observe=reduced_observe
    )

    result = Fig1Result(
        times=original.times,
        vdd_node_name=grid.name_of(vdd_node),
        gnd_node_name=grid.name_of(gnd_node),
        vdd_original=original.voltages[0],
        vdd_reduced=reduced_run.voltages[0],
        gnd_original=original.voltages[1],
        gnd_reduced=reduced_run.voltages[1],
    )
    if output_csv is not None:
        result.to_csv(output_csv)
    return result
