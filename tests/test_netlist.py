"""Tests for the PowerGrid netlist model."""

import numpy as np
import pytest

from repro.powergrid.netlist import GROUND, PowerGrid
from repro.powergrid.waveforms import PulseWaveform


@pytest.fixture
def tiny_grid():
    """Three nodes in a row, pad on the left, load on the right."""
    pg = PowerGrid()
    a, b, c = pg.node("a"), pg.node("b"), pg.node("c")
    pg.add_resistor(a, b, 1.0)
    pg.add_resistor(b, c, 2.0)
    pg.add_vsource(a, 1.8)
    pg.add_isource(c, 0.1)
    return pg


class TestNodes:
    def test_node_creation_is_idempotent(self):
        pg = PowerGrid()
        assert pg.node("x") == pg.node("x") == 0
        assert pg.num_nodes == 1

    def test_name_round_trip(self, tiny_grid):
        assert tiny_grid.name_of(tiny_grid.index_of("b")) == "b"

    def test_unknown_name_raises(self, tiny_grid):
        with pytest.raises(KeyError):
            tiny_grid.index_of("zzz")


class TestElements:
    def test_resistor_to_ground_becomes_shunt(self):
        pg = PowerGrid()
        a = pg.node("a")
        pg.add_resistor(a, GROUND, 4.0)
        assert pg.num_resistors == 0
        assert pg.shunt_node == [a]
        assert np.isclose(pg.shunt_siemens[0], 0.25)

    def test_rejects_bad_values(self):
        pg = PowerGrid()
        a, b = pg.node("a"), pg.node("b")
        with pytest.raises(ValueError):
            pg.add_resistor(a, b, 0.0)
        with pytest.raises(ValueError):
            pg.add_resistor(a, a, 1.0)
        with pytest.raises(ValueError):
            pg.add_capacitor(a, -1e-12)
        with pytest.raises(ValueError):
            pg.add_vsource(GROUND, 1.0)

    def test_bulk_adds_equal_one_call_per_element(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, size=40)
        b = np.where(rng.random(40) < 0.3, GROUND, (a + rng.integers(1, 5, size=40)) % 5)
        ohms = rng.uniform(0.1, 10.0, size=40)
        farads = rng.uniform(1e-15, 1e-12, size=40)
        one, bulk = PowerGrid(), PowerGrid()
        for grid in (one, bulk):
            for k in range(5):
                grid.node(f"n{k}")
        for x, y, r, c in zip(a, b, ohms, farads):
            one.add_resistor(int(x), int(y), float(r))
            one.add_capacitor(int(x), float(c))
        bulk.add_resistors(a, b, ohms)
        bulk.add_capacitors(a, farads)
        for name in ("res_a", "res_b", "res_ohms", "shunt_node", "shunt_siemens",
                     "cap_a", "cap_b", "cap_farads"):
            got, want = getattr(bulk, name), getattr(one, name)
            assert got == want, name
            assert [type(v) for v in got] == [type(v) for v in want], name

    def test_bulk_adds_reject_bad_values(self):
        pg = PowerGrid()
        a, b = pg.node("a"), pg.node("b")
        with pytest.raises(ValueError, match="resistance must be positive"):
            pg.add_resistors([a, a], [b, GROUND], [1.0, 0.0])
        with pytest.raises(ValueError, match="endpoints must differ"):
            pg.add_resistors([a, b], [b, b], [1.0, 1.0])
        with pytest.raises(ValueError, match="capacitance must be positive"):
            pg.add_capacitors([a, b], [1e-12, -1e-12])
        assert pg.num_resistors == 0 and not pg.shunt_node and not pg.cap_a

    def test_current_source_waveform(self):
        pg = PowerGrid()
        a = pg.node("a")
        wf = PulseWaveform(low=0.0, high=1.0, rise=0.1, width=0.3, fall=0.1, period=1.0)
        pg.add_isource(a, 0.0, waveform=wf)
        assert pg.isources[0].current_at(0.2) == 1.0

    def test_current_source_dc(self, tiny_grid):
        assert tiny_grid.isources[0].current_at(123.0) == 0.1


class TestDerivedViews:
    def test_port_nodes(self, tiny_grid):
        assert np.array_equal(tiny_grid.port_nodes(), [0, 2])

    def test_pad_nodes_and_voltages(self, tiny_grid):
        assert np.array_equal(tiny_grid.pad_nodes(), [0])
        pinned = tiny_grid.pad_voltage_vector()
        assert pinned[0] == 1.8
        assert np.isnan(pinned[1])

    def test_dc_load_vector(self, tiny_grid):
        loads = tiny_grid.dc_load_vector()
        assert np.allclose(loads, [0.0, 0.0, 0.1])

    def test_to_graph(self, tiny_grid):
        graph = tiny_grid.to_graph()
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert np.allclose(np.sort(graph.weights), [0.5, 1.0])

    def test_total_capacitance(self):
        pg = PowerGrid()
        a = pg.node("a")
        pg.add_capacitor(a, 1e-12)
        pg.add_capacitor(a, 2e-12)
        assert np.isclose(pg.total_capacitance(), 3e-12)
