"""Fixed-step Backward-Euler transient analysis.

Table II's protocol: "each case is simulated for 1000 fixed-size time steps
and both original models and reduced models are analyzed with the direct
solver (performing just once matrix factorization)".  Backward Euler on the
RC system ``C v̇ + G v = i(t)`` with step ``h`` gives::

    (G + C/h) v_{t+1} = (C/h) v_t + i(t+1)

Since ``h`` is fixed and pad voltages are constant, ``(G + C/h)`` restricted
to unknown nodes is factorised exactly once and every step is a pair of
triangular solves — matching the paper's setup.  ``G_UU + C_UU/h`` is
symmetric positive definite, so it is factored like the DC initial state's
``G_UU``: :func:`repro.linalg.spd.spd_factor` (symmetric-mode SuperLU on a
minimum-degree ordering, no pivoting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.spd import spd_factor
from repro.powergrid.dc import dc_analysis
from repro.powergrid.mna import MNASystem, build_mna
from repro.powergrid.netlist import PowerGrid
from repro.utils.timing import Timer
from repro.utils.validation import require


class _SourceBank:
    """Vectorised evaluation of every current source at a time point.

    Groups sources by waveform kind so a 1000-step simulation with
    thousands of pulse loads evaluates each step with a handful of numpy
    expressions instead of a Python loop per source.
    """

    def __init__(self, system: MNASystem):
        from repro.powergrid.waveforms import PulseWaveform, PWLWaveform

        n = system.num_nodes
        self.num_nodes = n
        const_nodes, const_values = [], []
        pulse_nodes, pulse_params = [], []
        other = []
        for source in system.grid.isources:
            wf = source.waveform
            if wf is None:
                const_nodes.append(source.node)
                const_values.append(source.dc)
            elif isinstance(wf, PulseWaveform):
                pulse_nodes.append(source.node)
                pulse_params.append(
                    (wf.low, wf.high, wf.delay, wf.rise, wf.width, wf.fall, wf.period)
                )
            else:
                other.append(source)
        self._const = np.zeros(n)
        if const_nodes:
            np.add.at(
                self._const,
                np.asarray(const_nodes, dtype=np.int64),
                -np.asarray(const_values),
            )
        self._pulse_nodes = np.asarray(pulse_nodes, dtype=np.int64)
        if pulse_nodes:
            params = np.asarray(pulse_params)
            (
                self._low,
                self._high,
                self._delay,
                self._rise,
                self._width,
                self._fall,
                self._period,
            ) = params.T
        self._other = other

    def injected(self, t: float) -> np.ndarray:
        """Injected current vector at time ``t`` (loads enter negatively)."""
        rhs = self._const.copy()
        if self._pulse_nodes.size:
            local = np.mod(t - self._delay, self._period)
            local = np.where(t < self._delay, -1.0, local)  # before delay: low
            drawn = self._low.copy()
            rising = (local >= 0) & (local < self._rise)
            drawn = np.where(
                rising,
                self._low + (self._high - self._low) * local / self._rise,
                drawn,
            )
            flat = (local >= self._rise) & (local < self._rise + self._width)
            drawn = np.where(flat, self._high, drawn)
            t_fall = local - self._rise - self._width
            falling = (t_fall >= 0) & (t_fall < self._fall)
            drawn = np.where(
                falling,
                self._high - (self._high - self._low) * t_fall / self._fall,
                drawn,
            )
            np.add.at(rhs, self._pulse_nodes, -drawn)
        for source in self._other:
            rhs[source.node] -= float(source.current_at(t))
        return rhs


@dataclass
class TransientResult:
    """Waveforms of a transient run.

    Attributes
    ----------
    times:
        Time points ``t_1 .. t_T`` (the initial DC point is ``times[0]-h``).
    voltages:
        ``(num_observed, T)`` array of node voltage waveforms.
    observed:
        Node indices corresponding to the rows of ``voltages``.
    timer:
        Stage timings (assemble / factorize / steps).
    """

    times: np.ndarray
    voltages: np.ndarray
    observed: np.ndarray
    timer: Timer

    def waveform_of(self, node: int) -> np.ndarray:
        """Waveform of an observed node (by grid node index)."""
        hits = np.flatnonzero(self.observed == node)
        require(hits.size == 1, f"node {node} was not observed")
        return self.voltages[hits[0]]


def transient_analysis(
    grid: "PowerGrid | MNASystem",
    step: float,
    num_steps: int = 1000,
    observe: "np.ndarray | None" = None,
) -> TransientResult:
    """Run Backward-Euler transient analysis.

    Parameters
    ----------
    grid:
        Power grid or a pre-assembled MNA system.
    step:
        Fixed time step ``h`` in seconds.
    num_steps:
        Number of steps (paper: 1000).
    observe:
        Node indices whose waveforms to record; default: all nodes.

    Notes
    -----
    The initial condition is the DC operating point with sources at their
    ``t = 0`` values — grids start in steady state, as in the benchmarks.
    """
    require(step > 0, "time step must be positive")
    require(num_steps >= 1, "need at least one step")
    timer = Timer()
    if isinstance(grid, MNASystem):
        system = grid
    else:
        with timer.section("assemble"):
            system = build_mna(grid)

    unknown = system.unknown
    if observe is None:
        observe = np.arange(system.num_nodes, dtype=np.int64)
    else:
        observe = np.asarray(observe, dtype=np.int64)

    with timer.section("factorize"):
        g_uu = system.g_uu()
        c_uu = system.c_uu() / step
        solver = spd_factor(g_uu + c_uu)

    # initial state: DC solve at t = 0 source values
    with timer.section("dc_init"):
        dc = dc_analysis(system)
        v_full = dc.voltages.copy()
    pad_term = system.g_uk_vk()
    # note: the C_UK (v_K(t+1) − v_K(t))/h coupling term vanishes because pad
    # voltages are constant, so only the conductance pad term remains.

    times = step * np.arange(1, num_steps + 1)
    voltages = np.empty((observe.shape[0], num_steps))
    v_u = v_full[unknown]
    bank = _SourceBank(system)
    with timer.section("steps"):
        for idx, t in enumerate(times):
            rhs = c_uu @ v_u
            rhs += bank.injected(float(t))[unknown]
            rhs -= pad_term
            v_u = solver.solve(rhs)
            v_full[unknown] = v_u
            voltages[:, idx] = v_full[observe]
    return TransientResult(times=times, voltages=voltages, observed=observe, timer=timer)
