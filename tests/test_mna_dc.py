"""Tests for MNA assembly and DC analysis against hand-computed circuits."""

import numpy as np
import pytest

from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.powergrid.mna import build_mna
from repro.powergrid.netlist import GROUND, PowerGrid


def voltage_divider():
    """1.8 V pad — 1Ω — mid — 1Ω — ground shunt: classic divider."""
    pg = PowerGrid()
    pad, mid = pg.node("pad"), pg.node("mid")
    pg.add_resistor(pad, mid, 1.0)
    pg.add_resistor(mid, GROUND, 1.0)
    pg.add_vsource(pad, 1.8)
    return pg, pad, mid


class TestMNA:
    def test_divider_matrices(self):
        pg, pad, mid = voltage_divider()
        system = build_mna(pg)
        assert np.array_equal(system.pads, [pad])
        assert np.array_equal(system.unknown, [mid])
        dense = system.conductance.toarray()
        assert np.allclose(dense, [[1.0, -1.0], [-1.0, 2.0]])

    def test_injected_currents_sign(self):
        pg = PowerGrid()
        a, p = pg.node("a"), pg.node("p")
        pg.add_resistor(a, p, 1.0)  # a floating load node is rejected
        pg.add_vsource(p, 1.0)
        pg.add_isource(a, 0.25)
        system = build_mna(pg)
        rhs = system.injected_currents()
        assert rhs[a] == -0.25  # loads LEAVE the node

    def test_coupling_capacitor_stamps(self):
        pg = PowerGrid()
        a, b = pg.node("a"), pg.node("b")
        pg.add_resistor(a, b, 1.0)
        pg.add_capacitor(a, 2e-12, b=b)
        pg.add_vsource(a, 1.0)
        system = build_mna(pg)
        cap = system.capacitance.toarray()
        assert np.allclose(cap, [[2e-12, -2e-12], [-2e-12, 2e-12]])

    def test_ground_capacitor_is_diagonal(self):
        pg = PowerGrid()
        a, p = pg.node("a"), pg.node("p")
        pg.add_resistor(a, p, 1.0)  # a floating node is rejected
        pg.add_vsource(p, 1.0)
        pg.add_capacitor(a, 5e-13)
        system = build_mna(pg)
        cap = system.capacitance.toarray()
        assert cap[a, a] == 5e-13
        assert np.count_nonzero(cap) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            build_mna(PowerGrid())


class TestDC:
    def test_divider_voltage(self):
        pg, pad, mid = voltage_divider()
        result = dc_analysis(pg)
        assert np.isclose(result.voltages[pad], 1.8)
        assert np.isclose(result.voltages[mid], 0.9)

    def test_ir_drop_two_segments(self):
        """pad —1Ω— a —1Ω— b with 0.1 A load at b: v_a=1.7, v_b=1.6."""
        pg = PowerGrid()
        pad, a, b = pg.node("pad"), pg.node("a"), pg.node("b")
        pg.add_resistor(pad, a, 1.0)
        pg.add_resistor(a, b, 1.0)
        pg.add_vsource(pad, 1.8)
        pg.add_isource(b, 0.1)
        result = dc_analysis(pg)
        assert np.isclose(result.voltages[a], 1.7)
        assert np.isclose(result.voltages[b], 1.6)
        assert np.isclose(result.max_drop(), 0.2)
        assert np.isclose(result.voltage_of("b"), 1.6)

    def test_superposition(self):
        """DC solves are linear in the load currents."""
        pg, pad, mid = voltage_divider()
        pg.add_isource(mid, 0.1)
        single = dc_analysis(pg)
        pg.isources[0].dc = 0.2
        double = dc_analysis(pg)
        drop_single = 0.9 - single.voltages[mid]
        drop_double = 0.9 - double.voltages[mid]
        assert np.isclose(drop_double, 2 * drop_single)

    def test_gnd_net_bounce_is_positive_drop(self):
        grid = synthetic_ibmpg_like(nx=10, ny=10, seed=1)
        result = dc_analysis(grid)
        drops = result.drops()
        assert np.all(drops >= -1e-9)
        assert result.max_drop() > 0

    def test_kcl_at_internal_node(self):
        """Currents into every unknown node sum to the injected load."""
        grid = synthetic_ibmpg_like(nx=8, ny=8, seed=2, nets=("vdd",))
        result = dc_analysis(grid)
        system = result.system
        residual = system.conductance @ result.voltages - system.injected_currents()
        assert np.allclose(residual[system.unknown], 0.0, atol=1e-9)
