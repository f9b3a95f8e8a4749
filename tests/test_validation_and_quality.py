"""Tests for netlist validation, reduction quality and multi-layer grids."""

import numpy as np
import pytest

from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import PGConfig, synthetic_ibmpg_like
from repro.powergrid.netlist import GROUND, PowerGrid
from repro.powergrid.validation import validate_power_grid
from repro.reduction.pipeline import PGReducer, ReductionConfig
from repro.reduction.quality import assess_reduction_quality


class TestValidation:
    def test_clean_grid_passes(self):
        grid = synthetic_ibmpg_like(nx=8, ny=8, seed=0)
        report = validate_power_grid(grid)
        assert report.ok
        assert report.num_components == 2  # vdd + gnd nets
        assert "OK" in report.summary()

    def test_detects_floating_island(self):
        grid = synthetic_ibmpg_like(nx=6, ny=6, seed=1)
        a, b = grid.node("float_a"), grid.node("float_b")
        grid.add_resistor(a, b, 1.0)
        report = validate_power_grid(grid)
        assert not report.ok
        assert a in report.floating_nodes
        assert b in report.floating_nodes
        assert "without a DC path" in report.summary()

    def test_detects_floating_load(self):
        pg = PowerGrid()
        pad, mid = pg.node("pad"), pg.node("mid")
        pg.add_resistor(pad, mid, 1.0)
        pg.add_vsource(pad, 1.0)
        lone = pg.node("lone")
        other = pg.node("other")
        pg.add_resistor(lone, other, 1.0)
        pg.add_isource(lone, 0.1)
        report = validate_power_grid(pg)
        assert lone in report.floating_loads

    def test_shunt_counts_as_anchor(self):
        pg = PowerGrid()
        a, b = pg.node("a"), pg.node("b")
        pg.add_resistor(a, b, 1.0)
        pg.add_resistor(a, GROUND, 10.0)  # DC return through the shunt
        pg.add_vsource(pg.node("pad"), 1.0)
        report = validate_power_grid(pg)
        assert a not in report.floating_nodes
        assert b not in report.floating_nodes

    def test_detects_conflicting_pads(self):
        pg = PowerGrid()
        node = pg.node("pad")
        pg.node("other")
        pg.add_resistor(0, 1, 1.0)
        pg.add_vsource(node, 1.8)
        pg.add_vsource(node, 1.2)
        report = validate_power_grid(pg)
        assert node in report.conflicting_pads
        assert not report.ok

    def test_resistance_ratio(self):
        pg = PowerGrid()
        a, b, c = pg.node("a"), pg.node("b"), pg.node("c")
        pg.add_resistor(a, b, 1e-3)
        pg.add_resistor(b, c, 1e3)
        pg.add_vsource(a, 1.0)
        report = validate_power_grid(pg)
        assert np.isclose(report.extreme_resistance_ratio, 1e6)


class TestQualityReport:
    @pytest.fixture(scope="class")
    def reduced_case(self):
        grid = synthetic_ibmpg_like(nx=14, ny=14, pad_pitch=6, seed=2)
        reducer = PGReducer(grid, ReductionConfig(seed=1))
        return grid, reducer.reduce()

    def test_quality_across_corners(self, reduced_case):
        grid, reduced = reduced_case
        report = assess_reduction_quality(grid, reduced, num_corners=4, seed=3)
        assert report.corner_rel_errors.shape == (4,)
        assert report.worst_rel_error < 0.10
        assert report.mean_rel_error <= report.worst_rel_error
        assert "corners" in report.summary()

    def test_corner_errors_consistent(self, reduced_case):
        grid, reduced = reduced_case
        report = assess_reduction_quality(grid, reduced, num_corners=3, seed=4)
        assert np.all(report.corner_mean_errors <= report.corner_max_errors + 1e-15)


class TestMultiLayer:
    def test_two_layer_structure(self):
        config = PGConfig(nx=12, ny=12, nets=("vdd",), num_layers=2, strap_pitch=4)
        grid = synthetic_ibmpg_like(config, seed=5)
        m2_nodes = [n for n in grid.node_names if "_m2_" in n]
        assert len(m2_nodes) == 3 * 3  # straps every 4 on a 12-mesh
        # pads sit on the top metal
        for vs in grid.vsources:
            assert "_m2_" in grid.name_of(vs.node)

    def test_two_layer_grid_is_connected_and_solvable(self):
        config = PGConfig(nx=10, ny=10, num_layers=2, strap_pitch=5)
        grid = synthetic_ibmpg_like(config, seed=6)
        report = validate_power_grid(grid)
        assert report.ok
        result = dc_analysis(grid)
        assert np.all(np.isfinite(result.voltages))
        assert result.max_drop() > 0

    def test_two_layer_reduces_ir_drop(self):
        """Low-resistance top straps must lower the worst IR drop."""
        single = synthetic_ibmpg_like(
            PGConfig(nx=16, ny=16, nets=("vdd",), num_layers=1), seed=7
        )
        double = synthetic_ibmpg_like(
            PGConfig(nx=16, ny=16, nets=("vdd",), num_layers=2, strap_pitch=4), seed=7
        )
        drop_single = dc_analysis(single).max_drop()
        drop_double = dc_analysis(double).max_drop()
        assert drop_double < drop_single

    def test_two_layer_reduction_works(self):
        config = PGConfig(nx=12, ny=12, num_layers=2, strap_pitch=4, pad_pitch=6)
        grid = synthetic_ibmpg_like(config, seed=8)
        original = dc_analysis(grid)
        reducer = PGReducer(grid, ReductionConfig(seed=0))
        reduced = reducer.reduce()
        solution = dc_analysis(reduced.grid)
        errors = reduced.port_voltage_errors(
            original.voltages, solution.voltages, grid.port_nodes()
        )
        assert errors.mean() / original.max_drop() < 0.08
