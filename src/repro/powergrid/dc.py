"""DC operating-point analysis of a power grid.

Solves ``G_UU v_U = i_U − G_UK v_K`` with one sparse factorisation and
reports node voltages plus IR-drop statistics.  This is both the reference
solver ("Original" columns of Table II) and the workhorse behind the DC
incremental-analysis application.

``G_UU`` is symmetric positive definite (:func:`~repro.powergrid.mna.build_mna`
rejects floating nodes), so it is factored as the paper's Cholesky flow
would: :func:`repro.linalg.spd.spd_factor`, symmetric-mode SuperLU on a
minimum-degree ordering of ``A + Aᵀ``.  Its answers agree with a general
pivoting LU's to a few 1e-15 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.spd import spd_factor
from repro.powergrid.mna import MNASystem, build_mna
from repro.powergrid.netlist import PowerGrid
from repro.utils.timing import Timer


@dataclass
class DCResult:
    """DC solution of a power grid.

    Attributes
    ----------
    voltages:
        Node voltage for every grid node (pads at their pinned value).
    system:
        The assembled :class:`~repro.powergrid.mna.MNASystem`.
    timer:
        Assembly / factorisation / solve timings.
    """

    voltages: np.ndarray
    system: MNASystem
    timer: Timer

    def voltage_of(self, name: str) -> float:
        """Voltage of a node addressed by netlist name."""
        return float(self.voltages[self.system.grid.index_of(name)])

    def drops(self) -> np.ndarray:
        """IR drop per node, relative to its net's pad voltage.

        For nodes electrically tied to VDD pads the drop is ``VDD − v``;
        for GND-net nodes (pad voltage 0) it is the ground bounce ``v``.
        The net assignment uses the nearest pad voltage in the solution:
        nodes above half the maximum pad voltage count as VDD-net.
        """
        pads = self.system.pad_voltages
        vmax = float(pads.max()) if pads.size else float(self.voltages.max())
        is_high = self.voltages > 0.5 * vmax
        return np.where(is_high, vmax - self.voltages, self.voltages)

    def max_drop(self) -> float:
        """Worst IR drop / ground bounce over all nodes (volts)."""
        return float(np.max(self.drops())) if self.voltages.size else 0.0


def max_voltage_drop(grid: PowerGrid, voltages: np.ndarray) -> float:
    """Worst drop/bounce relative to each net's supply, over all samples.

    ``voltages`` may be a vector (DC) or ``(nodes, steps)`` matrix
    (transient).  VDD-net nodes (above half the max pad voltage) contribute
    ``VDD − v``; GND-net nodes contribute ``v``.  This is the denominator
    of Table II's ``Rel`` column.
    """
    pads = grid.pad_voltage_vector()
    finite = pads[np.isfinite(pads)]
    vmax = float(finite.max()) if finite.size else float(np.max(voltages))
    arr = np.asarray(voltages, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]  # DC vector: one sample per node
    reference = arr[:, 0] if arr.shape[1] else np.zeros(arr.shape[0])
    is_high = reference > 0.5 * vmax
    drops = np.where(is_high[:, None], vmax - arr, arr)
    return float(drops.max()) if drops.size else 0.0


def dc_analysis(grid: "PowerGrid | MNASystem") -> DCResult:
    """Run a DC analysis: assemble (if needed), factor ``G_UU`` once, solve."""
    timer = Timer()
    if isinstance(grid, MNASystem):
        system = grid
    else:
        with timer.section("assemble"):
            system = build_mna(grid)
    with timer.section("factorize"):
        solver = spd_factor(system.g_uu())
    with timer.section("solve"):
        rhs = system.injected_currents()[system.unknown] - system.g_uk_vk()
        v_unknown = solver.solve(rhs)
    voltages = system.assemble_full_voltages(v_unknown)
    return DCResult(voltages=voltages, system=system, timer=timer)
