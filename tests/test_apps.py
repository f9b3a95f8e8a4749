"""Tests for the Table II application flows."""

import numpy as np
import pytest

from repro.apps.incremental import perturb_blocks, run_incremental_flow
from repro.apps.transient_flow import max_voltage_drop, run_transient_flow
from repro.core.engine import EngineConfig
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig


@pytest.fixture(scope="module")
def transient_grid():
    return synthetic_ibmpg_like(nx=14, ny=14, transient=True, seed=0, pad_pitch=6)


@pytest.fixture(scope="module")
def dc_grid():
    return synthetic_ibmpg_like(nx=14, ny=14, transient=False, seed=0, pad_pitch=6)


class TestMaxVoltageDrop:
    def test_dc_vector(self, dc_grid):
        result = dc_analysis(dc_grid)
        drop = max_voltage_drop(dc_grid, result.voltages)
        assert np.isclose(drop, result.max_drop(), rtol=1e-9)

    def test_transient_matrix(self, dc_grid):
        result = dc_analysis(dc_grid)
        matrix = np.column_stack([result.voltages, result.voltages])
        assert np.isclose(
            max_voltage_drop(dc_grid, matrix), result.max_drop(), rtol=1e-9
        )


class TestTransientFlow:
    def test_outcome_fields(self, transient_grid):
        out = run_transient_flow(
            transient_grid,
            ReductionConfig(seed=1),
            step=1e-11,
            num_steps=30,
        )
        assert out.err_volts >= 0
        assert out.rel_error >= 0
        assert out.err_mv == out.err_volts * 1e3
        assert out.rel_pct == out.rel_error * 1e2
        assert out.time_reduction > 0
        assert out.total_time == out.time_reduction + out.time_transient_reduced
        ports = transient_grid.port_nodes()
        assert out.original_result.voltages.shape == (ports.size, 30)
        assert out.reduced_result.voltages.shape == (ports.size, 30)

    def test_accuracy_single_digit_percent(self, transient_grid):
        out = run_transient_flow(
            transient_grid,
            ReductionConfig(seed=1),
            step=1e-11,
            num_steps=50,
        )
        assert out.rel_pct < 5.0

    def test_reuses_prebuilt_artefacts(self, transient_grid):
        ports = transient_grid.port_nodes()
        from repro.powergrid.transient import transient_analysis

        original = transient_analysis(
            transient_grid, step=1e-11, num_steps=10, observe=ports
        )
        reducer = PGReducer(
            transient_grid, ReductionConfig(engine=EngineConfig(method="exact"), seed=2)
        )
        out = run_transient_flow(
            transient_grid,
            step=1e-11,
            num_steps=10,
            reducer=reducer,
            original_result=original,
        )
        assert out.original_result is original


class TestPerturbBlocks:
    def test_only_chosen_blocks_modified(self, dc_grid):
        reducer = PGReducer(dc_grid, ReductionConfig(seed=3))
        modified = perturb_blocks(dc_grid, reducer.labels, [0], seed=4)
        labels = reducer.labels
        changed = [
            i
            for i, (a, b) in enumerate(zip(dc_grid.res_a, dc_grid.res_b))
            if not np.isclose(modified.res_ohms[i], dc_grid.res_ohms[i])
        ]
        for i in changed:
            assert labels[dc_grid.res_a[i]] == 0
            assert labels[dc_grid.res_b[i]] == 0
        assert changed  # something actually changed

    def test_original_untouched(self, dc_grid):
        reducer = PGReducer(dc_grid, ReductionConfig(seed=3))
        before = list(dc_grid.res_ohms)
        perturb_blocks(dc_grid, reducer.labels, [0, 1], seed=5)
        assert dc_grid.res_ohms == before


class TestIncrementalFlow:
    def test_outcome(self, dc_grid):
        out = run_incremental_flow(dc_grid, ReductionConfig(seed=1), seed=6)
        assert out.rel_pct < 8.0
        assert out.modified_blocks.size >= 1
        assert out.time_incremental_reduction > 0
        assert out.total_time == (
            out.time_incremental_reduction + out.time_reduced_solve
        )

    def test_incremental_faster_than_full(self, dc_grid):
        """Re-reducing ~1 block must beat partitioning + reducing all."""
        from repro.utils.timing import timed

        config = ReductionConfig(seed=1, num_blocks=6)
        base = PGReducer(dc_grid, config)
        base.reduce()
        assert base.num_blocks >= 4  # otherwise the comparison is vacuous
        out = run_incremental_flow(dc_grid, config, seed=7, base_reducer=base)
        with timed() as elapsed:
            fresh = PGReducer(dc_grid, config)
            fresh.reduce()
        assert out.time_incremental_reduction < elapsed()

    def test_validation(self, dc_grid):
        with pytest.raises(ValueError):
            run_incremental_flow(dc_grid, modified_fraction=0.0)
