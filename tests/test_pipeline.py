"""Tests for the end-to-end Alg. 1 reduction pipeline."""

import numpy as np
import pytest

from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig


@pytest.fixture(scope="module")
def pg_case():
    grid = synthetic_ibmpg_like(nx=16, ny=16, seed=0, pad_pitch=6)
    return grid, dc_analysis(grid)


def run_reduction(grid, **config_kwargs):
    config_kwargs.setdefault("seed", 1)
    reducer = PGReducer(grid, ReductionConfig(**config_kwargs))
    return reducer, reducer.reduce()


class TestInvariants:
    def test_all_ports_preserved(self, pg_case):
        grid, _ = pg_case
        _, reduced = run_reduction(grid, er_method="cholinv")
        ports = grid.port_nodes()
        assert np.all(reduced.node_map[ports] >= 0)
        # sources present with unchanged values
        assert len(reduced.grid.vsources) == len(grid.vsources)
        assert len(reduced.grid.isources) == len(grid.isources)
        original_total = sum(cs.dc for cs in grid.isources)
        reduced_total = sum(cs.dc for cs in reduced.grid.isources)
        assert np.isclose(original_total, reduced_total)

    def test_node_count_shrinks(self, pg_case):
        grid, _ = pg_case
        _, reduced = run_reduction(grid, er_method="cholinv")
        assert reduced.grid.num_nodes < grid.num_nodes

    def test_node_names_survive(self, pg_case):
        grid, _ = pg_case
        _, reduced = run_reduction(grid, er_method="cholinv")
        for port in grid.port_nodes():
            name = grid.name_of(int(port))
            assert reduced.grid.name_of(int(reduced.node_map[port])) == name

    def test_block_cache_populated(self, pg_case):
        grid, _ = pg_case
        reducer, _ = run_reduction(grid, er_method="cholinv")
        assert len(reducer._block_cache) == reducer.num_blocks

    def test_requires_ports(self):
        from repro.powergrid.netlist import PowerGrid

        pg = PowerGrid()
        a, b = pg.node("a"), pg.node("b")
        pg.add_resistor(a, b, 1.0)
        with pytest.raises(ValueError, match="no ports"):
            PGReducer(pg)


class TestExactnessLimit:
    def test_schur_only_reduction_is_exact(self, pg_case):
        """No merging + no sampling => reduced DC solution is exact."""
        grid, original = pg_case
        _, reduced = run_reduction(
            grid,
            er_method="exact",
            merge_resistance_fraction=0.0,
            sparsify_sample_factor=1e9,
        )
        solution = dc_analysis(reduced.grid)
        ports = grid.port_nodes()
        errors = reduced.port_voltage_errors(
            original.voltages, solution.voltages, ports
        )
        assert errors.max() < 1e-8


class TestAccuracy:
    @pytest.mark.parametrize("method", ["exact", "cholinv", "random_projection"])
    def test_port_errors_small(self, pg_case, method):
        grid, original = pg_case
        kwargs = {}
        if method == "random_projection":
            kwargs = {"er_kwargs": {"num_projections": 400}}
        _, reduced = run_reduction(grid, er_method=method, **kwargs)
        solution = dc_analysis(reduced.grid)
        ports = grid.port_nodes()
        errors = reduced.port_voltage_errors(
            original.voltages, solution.voltages, ports
        )
        rel = errors.mean() / original.max_drop()
        assert rel < 0.08  # single-digit percent, as in Table II

    def test_cholinv_matches_exact_reduction_quality(self, pg_case):
        """Alg. 3-based reduction must not lose accuracy vs exact ER
        (the headline claim of Table II)."""
        grid, original = pg_case
        ports = grid.port_nodes()
        rels = {}
        for method in ("exact", "cholinv"):
            _, reduced = run_reduction(grid, er_method=method)
            solution = dc_analysis(reduced.grid)
            errors = reduced.port_voltage_errors(
                original.voltages, solution.voltages, ports
            )
            rels[method] = errors.mean() / original.max_drop()
        assert rels["cholinv"] < 2.5 * rels["exact"] + 1e-4


class TestIncrementalMachinery:
    def test_rebuild_reuses_cache(self, pg_case):
        grid, _ = pg_case
        reducer, _ = run_reduction(grid, er_method="cholinv")
        import copy

        modified = copy.deepcopy(grid)
        clone = reducer.rebuild_for(modified, modified_blocks=[0])
        assert 0 not in clone._block_cache
        for b in range(1, reducer.num_blocks):
            assert b in clone._block_cache

    def test_rebuild_identical_grid_gives_same_result(self, pg_case):
        grid, _ = pg_case
        reducer, reduced = run_reduction(grid, er_method="exact",
                                         merge_resistance_fraction=0.0,
                                         sparsify_sample_factor=1e9)
        import copy

        clone = reducer.rebuild_for(copy.deepcopy(grid), modified_blocks=[0])
        reduced2 = clone.reduce()
        a = dc_analysis(reduced.grid)
        b = dc_analysis(reduced2.grid)
        ports = grid.port_nodes()
        va = a.voltages[reduced.node_map[ports]]
        vb = b.voltages[reduced2.node_map[ports]]
        assert np.allclose(va, vb, atol=1e-9)

    def test_rebuild_rejects_different_topology(self, pg_case):
        grid, _ = pg_case
        reducer, _ = run_reduction(grid, er_method="cholinv")
        other = synthetic_ibmpg_like(nx=8, ny=8, seed=3)
        with pytest.raises(ValueError):
            reducer.rebuild_for(other, modified_blocks=[0])


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ReductionConfig(er_method="bogus")

    def test_unknown_er_kwargs_rejected_at_construction(self):
        # a typo fails here, listing the valid names, not mid-reduction
        with pytest.raises(ValueError, match=r"\['dropp_tol'\].*'drop_tol'"):
            ReductionConfig(er_kwargs={"dropp_tol": 1e-3})
        # the method is er_method's job, not an er_kwargs entry
        with pytest.raises(ValueError, match="unknown er_kwargs"):
            ReductionConfig(er_kwargs={"method": "exact"})
        ReductionConfig(er_method="random_projection",
                        er_kwargs={"num_projections": 50})

    def test_block_count_from_ports(self, pg_case):
        grid, _ = pg_case
        reducer = PGReducer(grid, ReductionConfig(ports_per_block=20, seed=0))
        expected = max(1, grid.port_nodes().size // 20)
        assert reducer.num_blocks == expected

    def test_explicit_block_count(self, pg_case):
        grid, _ = pg_case
        reducer = PGReducer(grid, ReductionConfig(num_blocks=3, seed=0))
        assert reducer.num_blocks == 3
