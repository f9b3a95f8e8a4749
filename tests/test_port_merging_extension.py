"""Tests for the [8]-style port-merging extension (protect_all_ports=False)."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig


@pytest.fixture(scope="module")
def dense_port_grid():
    """A grid with many closely-spaced loads, so ports do merge."""
    return synthetic_ibmpg_like(
        nx=16, ny=16, pad_pitch=6, load_fraction=0.25, seed=4
    )


def reduce_with(grid, protect_all_ports, merge_fraction=0.3):
    config = ReductionConfig(
        engine=EngineConfig(method="exact"),
        protect_all_ports=protect_all_ports,
        merge_resistance_fraction=merge_fraction,
        seed=2,
    )
    reducer = PGReducer(grid, config)
    return reducer.reduce()


def test_modified_alg1_keeps_every_port(dense_port_grid):
    reduced = reduce_with(dense_port_grid, protect_all_ports=True)
    ports = dense_port_grid.port_nodes()
    assert np.all(reduced.node_map[ports] >= 0)
    assert np.array_equal(reduced.redirect[ports], ports)


def test_original_alg1_merges_some_ports(dense_port_grid):
    reduced = reduce_with(dense_port_grid, protect_all_ports=False)
    ports = dense_port_grid.port_nodes()
    merged_ports = np.sum(reduced.redirect[ports] != ports)
    assert merged_ports > 0, "aggressive merge threshold should merge ports"
    # every merged port still resolves to a live reduced node
    assert np.all(reduced.reduced_index_of(ports) >= 0)


def test_pads_never_merge(dense_port_grid):
    reduced = reduce_with(dense_port_grid, protect_all_ports=False)
    pads = dense_port_grid.pad_nodes()
    assert np.array_equal(reduced.redirect[pads], pads)
    # pad voltages intact in the reduced netlist
    assert len(reduced.grid.vsources) == len(dense_port_grid.vsources)


def test_port_merging_shrinks_model_more(dense_port_grid):
    keep_all = reduce_with(dense_port_grid, protect_all_ports=True)
    merge_ports = reduce_with(dense_port_grid, protect_all_ports=False)
    assert merge_ports.grid.num_nodes <= keep_all.grid.num_nodes


def test_accuracy_still_reasonable_with_port_merging(dense_port_grid):
    original = dc_analysis(dense_port_grid)
    reduced = reduce_with(dense_port_grid, protect_all_ports=False, merge_fraction=0.1)
    solution = dc_analysis(reduced.grid)
    ports = dense_port_grid.port_nodes()
    errors = reduced.port_voltage_errors(original.voltages, solution.voltages, ports)
    rel = errors.mean() / original.max_drop()
    assert rel < 0.15  # merging trades accuracy for size, within reason


def test_total_load_current_preserved(dense_port_grid):
    reduced = reduce_with(dense_port_grid, protect_all_ports=False)
    original_total = sum(cs.dc for cs in dense_port_grid.isources)
    reduced_total = sum(cs.dc for cs in reduced.grid.isources)
    assert np.isclose(original_total, reduced_total)
