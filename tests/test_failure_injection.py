"""Failure-injection tests: degenerate inputs must fail loudly or degrade
gracefully, never silently corrupt results."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cholesky.incomplete import CholeskyBreakdownError, ichol
from repro.cholesky.numeric import cholesky
from repro.core.approx_inverse import approximate_inverse
from repro.core.effective_resistance import (
    CholInvEffectiveResistance,
    ExactEffectiveResistance,
)
from repro.core.engine import EngineConfig
from repro.graphs.graph import Graph
from repro.graphs.generators import grid_2d, path_graph
from repro.powergrid.netlist import PowerGrid
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig
from repro.reduction.schur import schur_reduce


class TestDegenerateGraphs:
    def test_single_node_graph(self):
        g = Graph.from_edges(1, [])
        est = ExactEffectiveResistance(g)
        assert est.query(0, 0) == 0.0

    def test_single_edge_graph(self):
        g = Graph.from_edges(2, [(0, 1, 2.0)])
        est = CholInvEffectiveResistance(g)
        assert np.isclose(est.query(0, 1), 0.5)

    def test_fully_disconnected(self):
        g = Graph.from_edges(3, [])
        est = ExactEffectiveResistance(g)
        assert est.query(0, 2) == np.inf

    def test_huge_weight_ratio(self):
        """14 orders of magnitude of conductance spread must not break.

        Such a graph is inherently ill-conditioned (κ ≈ 1e14), so any
        float64 solver carries ~κ·ε_mach ≈ 1% relative error; the check is
        agreement at that level plus exactness on the well-conditioned
        moderate-spread variant.
        """
        g = Graph.from_edges(4, [(0, 1, 1e-7), (1, 2, 1e7), (2, 3, 1.0)])
        exact = ExactEffectiveResistance(g)
        approx = CholInvEffectiveResistance(g, epsilon=0.0, drop_tol=0.0)
        for p, q in [(0, 1), (1, 2), (0, 3)]:
            assert np.isclose(approx.query(p, q), exact.query(p, q), rtol=5e-2)

        mild = Graph.from_edges(4, [(0, 1, 1e-3), (1, 2, 1e3), (2, 3, 1.0)])
        exact_mild = ExactEffectiveResistance(mild)
        approx_mild = CholInvEffectiveResistance(mild, epsilon=0.0, drop_tol=0.0)
        for p, q in [(0, 1), (1, 2), (0, 3)]:
            assert np.isclose(
                approx_mild.query(p, q), exact_mild.query(p, q), rtol=1e-8
            )

    def test_star_with_huge_center_degree(self):
        from repro.graphs.generators import star_graph

        g = star_graph(500)
        est = CholInvEffectiveResistance(g, epsilon=1e-3, drop_tol=1e-3)
        assert np.isclose(est.query(1, 2), 2.0, rtol=0.05)


class TestNumericFailures:
    def test_indefinite_matrix_rejected_by_both_engines(self):
        bad = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(np.linalg.LinAlgError, match="SuperLU pivoted"):
            cholesky(bad, ordering="natural")
        with pytest.raises(Exception):
            ichol(bad, max_retries=0)

    def test_ichol_retry_cap_respected(self):
        bad = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(CholeskyBreakdownError):
            ichol(bad, max_retries=2)

    def test_approx_inverse_rejects_non_triangular_diag(self):
        bad = sp.csc_matrix(np.array([[0.0, 0.0], [1.0, 2.0]]))
        with pytest.raises(ValueError):
            approximate_inverse(bad)

    def test_schur_rejects_empty_keep(self):
        from repro.graphs.laplacian import laplacian

        with pytest.raises(ValueError):
            schur_reduce(laplacian(path_graph(4)), keep=np.array([], dtype=np.int64))


class TestPipelineRobustness:
    def test_grid_with_isolated_island(self):
        """An unconnected resistor island without sources must not crash
        the reduction (it is dropped or kept inert)."""
        grid = synthetic_ibmpg_like(nx=8, ny=8, pad_pitch=4, seed=0)
        a = grid.node("island_a")
        b = grid.node("island_b")
        grid.add_resistor(a, b, 1.0)
        config = ReductionConfig(engine=EngineConfig(method="exact"), seed=0)
        reducer = PGReducer(grid, config)
        reduced = reducer.reduce()
        from repro.powergrid.dc import dc_analysis

        original_ports = synthetic_ibmpg_like(nx=8, ny=8, pad_pitch=4, seed=0).port_nodes()
        solution = dc_analysis(reduced.grid)
        assert np.all(np.isfinite(solution.voltages))
        assert np.all(reduced.reduced_index_of(original_ports) >= 0)

    def test_all_nodes_are_ports(self):
        """Degenerate but legal: nothing to eliminate, reduction ≈ identity."""
        pg = PowerGrid()
        nodes = [pg.node(f"n{i}") for i in range(6)]
        for i in range(5):
            pg.add_resistor(nodes[i], nodes[i + 1], 1.0)
        pg.add_vsource(nodes[0], 1.0)
        for node in nodes[1:]:
            pg.add_isource(node, 1e-3)
        config = ReductionConfig(engine=EngineConfig(method="exact"), num_blocks=2, seed=0)
        reducer = PGReducer(pg, config)
        reduced = reducer.reduce()
        assert reduced.grid.num_nodes == 6

    def test_single_block(self):
        grid = synthetic_ibmpg_like(nx=8, ny=8, pad_pitch=4, seed=1)
        reducer = PGReducer(grid, ReductionConfig(num_blocks=1, seed=0))
        reduced = reducer.reduce()
        from repro.powergrid.dc import dc_analysis

        original = dc_analysis(grid)
        solution = dc_analysis(reduced.grid)
        errors = reduced.port_voltage_errors(
            original.voltages, solution.voltages, grid.port_nodes()
        )
        assert errors.mean() / original.max_drop() < 0.1

    def test_many_blocks_tiny_grid(self):
        """More blocks than structure: must still produce a valid model."""
        grid = synthetic_ibmpg_like(nx=6, ny=6, pad_pitch=3, seed=2)
        config = ReductionConfig(engine=EngineConfig(method="exact"), num_blocks=8, seed=0)
        reducer = PGReducer(grid, config)
        reduced = reducer.reduce()
        assert reduced.grid.num_nodes >= grid.port_nodes().size


class TestQueryEdgeCases:
    def test_empty_pair_array(self, small_grid):
        est = ExactEffectiveResistance(small_grid)
        out = est.query_pairs(np.empty((0, 2), dtype=np.int64))
        assert out.shape == (0,)

    def test_bad_pair_shape(self, small_grid):
        est = ExactEffectiveResistance(small_grid)
        with pytest.raises(ValueError):
            est.query_pairs(np.zeros((3, 3), dtype=np.int64))

    def test_repeated_pairs(self, small_grid):
        est = CholInvEffectiveResistance(small_grid)
        out = est.query_pairs([(0, 1), (0, 1), (1, 0)])
        assert np.isclose(out[0], out[1])
        assert np.isclose(out[0], out[2])
