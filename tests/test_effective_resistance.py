"""Tests for the effective-resistance engines against closed forms."""

import numpy as np
import pytest

from repro.core.effective_resistance import (
    CholInvEffectiveResistance,
    ExactEffectiveResistance,
    dense_pinv_resistance,
    effective_resistances,
    spanning_edge_centrality,
)
from repro.core.engine import EngineConfig
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    fe_mesh_2d,
    grid_2d,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph


class TestClosedForms:
    """Textbook effective resistances on canonical graphs."""

    def test_path(self):
        est = ExactEffectiveResistance(path_graph(6))
        for i in range(6):
            for j in range(6):
                assert np.isclose(est.query(i, j), abs(i - j), atol=1e-9)

    def test_weighted_path(self):
        est = ExactEffectiveResistance(path_graph(4, weight=2.0))
        assert np.isclose(est.query(0, 3), 1.5)  # three 0.5-ohm resistors

    def test_cycle(self):
        n = 8
        est = ExactEffectiveResistance(cycle_graph(n))
        for d in range(1, n):
            expected = d * (n - d) / n
            assert np.isclose(est.query(0, d), expected, atol=1e-9)

    def test_star(self):
        est = ExactEffectiveResistance(star_graph(7))
        assert np.isclose(est.query(0, 3), 1.0)
        assert np.isclose(est.query(2, 5), 2.0)

    def test_complete(self):
        n = 9
        est = ExactEffectiveResistance(complete_graph(n))
        assert np.isclose(est.query(1, 7), 2.0 / n)

    def test_parallel_edges(self):
        g = Graph.from_edges(2, [(0, 1, 1.0), (0, 1, 1.0)])
        est = ExactEffectiveResistance(g)
        assert np.isclose(est.query(0, 1), 0.5)


class TestExactEngine:
    def test_matches_dense_pinv(self, weighted_mesh):
        est = ExactEffectiveResistance(weighted_mesh)
        pairs = weighted_mesh.edge_array()[::5]
        assert np.allclose(
            est.query_pairs(pairs), dense_pinv_resistance(weighted_mesh, pairs),
            rtol=1e-8,
        )

    def test_ground_value_irrelevant(self, weighted_mesh):
        pairs = weighted_mesh.edge_array()[:10]
        a = ExactEffectiveResistance(weighted_mesh, ground_value=0.1).query_pairs(pairs)
        b = ExactEffectiveResistance(weighted_mesh, ground_value=10.0).query_pairs(pairs)
        assert np.allclose(a, b, rtol=1e-8)

    def test_cross_component_is_inf(self, two_components):
        est = ExactEffectiveResistance(two_components)
        assert est.query(0, 4) == np.inf
        assert np.isclose(est.query(0, 1), 2.0 / 3.0)

    def test_same_node_is_zero(self, small_grid):
        est = ExactEffectiveResistance(small_grid)
        assert est.query(5, 5) == 0.0

    def test_symmetry(self, weighted_mesh):
        est = ExactEffectiveResistance(weighted_mesh)
        assert np.isclose(est.query(0, 17), est.query(17, 0))

    def test_triangle_inequality(self, weighted_mesh):
        """Effective resistance is a metric."""
        est = ExactEffectiveResistance(weighted_mesh)
        rng = np.random.default_rng(0)
        n = weighted_mesh.num_nodes
        for _ in range(25):
            a, b, c = rng.choice(n, size=3, replace=False)
            rab, rbc, rac = est.query(a, b), est.query(b, c), est.query(a, c)
            assert rac <= rab + rbc + 1e-9

    def test_all_edge_resistances_shape(self, small_grid):
        est = ExactEffectiveResistance(small_grid)
        r = est.all_edge_resistances()
        assert r.shape == (small_grid.num_edges,)
        assert np.all(r > 0)

    def test_rayleigh_monotonicity(self):
        """Adding an edge can only lower effective resistances."""
        sparse = path_graph(5)
        denser = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        r_sparse = ExactEffectiveResistance(sparse).query(0, 4)
        r_dense = ExactEffectiveResistance(denser).query(0, 4)
        assert r_dense < r_sparse


class TestCholInvEngine:
    def test_close_to_exact_paper_settings(self, weighted_mesh):
        exact = ExactEffectiveResistance(weighted_mesh)
        approx = CholInvEffectiveResistance(
            weighted_mesh, epsilon=1e-3, drop_tol=1e-3, ordering="amd"
        )
        pairs = weighted_mesh.edge_array()
        truth = exact.query_pairs(pairs)
        estimate = approx.query_pairs(pairs)
        rel = np.abs(estimate - truth) / truth
        assert rel.mean() < 5e-3
        assert rel.max() < 5e-2

    def test_exact_settings_are_exact(self, weighted_mesh):
        approx = CholInvEffectiveResistance(
            weighted_mesh, epsilon=0.0, drop_tol=0.0, ordering="amd"
        )
        exact = ExactEffectiveResistance(weighted_mesh)
        pairs = weighted_mesh.edge_array()[:25]
        assert np.allclose(
            approx.query_pairs(pairs), exact.query_pairs(pairs), rtol=1e-8
        )

    def test_error_decreases_with_epsilon(self):
        graph = fe_mesh_2d(9, 9, seed=3)
        exact = ExactEffectiveResistance(graph)
        pairs = graph.edge_array()
        truth = exact.query_pairs(pairs)
        errors = []
        for eps in (1e-1, 1e-2, 1e-3):
            est = CholInvEffectiveResistance(graph, epsilon=eps, drop_tol=0.0)
            rel = np.abs(est.query_pairs(pairs) - truth) / truth
            errors.append(rel.mean())
        assert errors[0] > errors[1] > errors[2]

    def test_cross_component_inf(self, two_components):
        est = CholInvEffectiveResistance(two_components)
        assert est.query(1, 5) == np.inf

    def test_same_node_zero(self, small_grid):
        est = CholInvEffectiveResistance(small_grid)
        assert est.query(3, 3) == 0.0

    def test_nonnegative_results(self, weighted_mesh):
        est = CholInvEffectiveResistance(weighted_mesh, epsilon=1e-1, drop_tol=1e-2)
        assert np.all(est.all_edge_resistances() >= 0.0)

    def test_orderings_agree(self, weighted_mesh):
        pairs = weighted_mesh.edge_array()[:15]
        results = []
        for ordering in ("natural", "rcm", "amd"):
            est = CholInvEffectiveResistance(
                weighted_mesh, epsilon=1e-4, drop_tol=0.0, ordering=ordering
            )
            results.append(est.query_pairs(pairs))
        assert np.allclose(results[0], results[1], rtol=1e-2)
        assert np.allclose(results[0], results[2], rtol=1e-2)

    def test_depth_and_stats_exposed(self, weighted_mesh):
        est = CholInvEffectiveResistance(weighted_mesh)
        assert est.max_depth >= 1
        assert est.depths.shape == (weighted_mesh.num_nodes,)
        assert est.stats.nnz == est.z_tilde.nnz
        assert set(est.timer.times) >= {"ordering", "ichol", "approx_inverse"}

    def test_single_pair_list_form(self, small_grid):
        est = CholInvEffectiveResistance(small_grid)
        r = est.query_pairs((0, 1))
        assert r.shape == (1,)


EXACT = EngineConfig(method="exact")


class TestDispatcher:
    def test_default_pairs_are_edges(self, small_grid):
        r = effective_resistances(small_grid, config=EXACT)
        assert r.shape == (small_grid.num_edges,)

    def test_methods_agree(self, small_grid):
        pairs = small_grid.edge_array()[:10]
        exact = effective_resistances(small_grid, pairs, EXACT)
        cholinv = effective_resistances(
            small_grid, pairs, EngineConfig(epsilon=0.0, drop_tol=0.0)
        )
        assert np.allclose(exact, cholinv, rtol=1e-8)

    def test_random_projection_dispatch(self, small_grid):
        pairs = small_grid.edge_array()[:5]
        r = effective_resistances(
            small_grid,
            pairs,
            EngineConfig(
                method="random_projection",
                num_projections=2000,
                solver="splu",
                seed=0,
            ),
        )
        exact = effective_resistances(small_grid, pairs, EXACT)
        assert np.allclose(r, exact, rtol=0.25)

    def test_unknown_method(self, small_grid):
        with pytest.raises(ValueError, match="unknown method"):
            effective_resistances(small_grid, config=EngineConfig(method="bogus"))


class TestSpanningEdgeCentrality:
    def test_sums_to_n_minus_one(self, weighted_mesh):
        """Σ_e w(e)R(e) = n - 1 on a connected graph (matrix-tree identity)."""
        centrality = spanning_edge_centrality(weighted_mesh, EXACT)
        assert np.isclose(centrality.sum(), weighted_mesh.num_nodes - 1, rtol=1e-8)

    def test_tree_edges_have_centrality_one(self):
        centrality = spanning_edge_centrality(path_graph(6), EXACT)
        assert np.allclose(centrality, 1.0)

    def test_bounded_by_one(self, small_grid):
        centrality = spanning_edge_centrality(small_grid, EXACT)
        assert np.all(centrality <= 1.0 + 1e-9)
        assert np.all(centrality > 0.0)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_cycle_edges(self, n):
        """Every cycle edge is left out of exactly one of the n trees."""
        centrality = spanning_edge_centrality(cycle_graph(n), EXACT)
        assert np.allclose(centrality, (n - 1) / n)

    def test_complete_graph_edges(self):
        """K_n: n − 1 tree edges shared evenly by n(n − 1)/2 edges."""
        n = 7
        centrality = spanning_edge_centrality(complete_graph(n), EXACT)
        assert np.allclose(centrality, 2.0 / n)

    def test_heavy_edge_is_in_almost_every_tree(self):
        """Triangle with one 100-siemens edge: c = 100 / (100 + 1/2)."""
        graph = Graph.from_edges(3, [(0, 1, 100.0), (1, 2, 1.0), (0, 2, 1.0)])
        centrality = spanning_edge_centrality(graph, EXACT)
        heavy = 100.0 / 100.5
        light = (1.0 - heavy) / 2.0 + 0.5  # the two light edges share the rest
        assert np.allclose(centrality, [heavy, light, light])
        assert np.isclose(centrality.sum(), 2.0)

    def test_forest_sums_to_n_minus_components(self):
        """On a disconnected graph every component contributes its own
        n_c − 1 (a spanning forest)."""
        graph = Graph.from_edges(8, [
            (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),  # triangle: 2
            (3, 4, 2.0), (4, 5, 1.0), (5, 6, 1.0),  # 4-cycle with a
            (6, 3, 0.5), (3, 5, 1.0),               # chord: 3
        ])                                          # node 7 isolated: 0
        centrality = spanning_edge_centrality(graph, EXACT)
        assert np.all(np.isfinite(centrality))
        assert np.isclose(centrality.sum(), 8 - 3)

    def test_cholinv_default_is_close_to_exact(self, weighted_mesh):
        approx = spanning_edge_centrality(weighted_mesh)
        exact = spanning_edge_centrality(weighted_mesh, EXACT)
        assert np.allclose(approx, exact, rtol=0.05)
        assert np.isclose(approx.sum(), weighted_mesh.num_nodes - 1, rtol=0.01)
