"""Cross-engine regression suite and ResistanceService behaviour tests.

The cross-engine matrix: ``CholInvEffectiveResistance`` (blocked and
reference Alg. 2 kernels), ``ExactEffectiveResistance``, and
``ResistanceService`` over both engines must agree on the structural
answers — ``inf`` across components, ``0.0`` on the diagonal — and the two
Alg. 2 kernels must produce the *identical* ``Z̃``.
"""

import re

import numpy as np
import pytest

from repro.apps.incremental import perturb_edge_weights, run_edge_update_flow
from repro.cholesky.incomplete import ichol
from repro.cholesky.numeric import cholesky
from repro.core.approx_inverse import approximate_inverse
from repro.core.effective_resistance import (
    CholInvEffectiveResistance,
    ExactEffectiveResistance,
    dense_pinv_resistance,
)
from repro.core.engine import EngineConfig, build_engine
from repro.graphs.generators import barabasi_albert_graph, fe_mesh_2d, grid_2d
from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian
from repro.service import ResistanceService


def _engines(graph):
    return {
        "cholinv-blocked": CholInvEffectiveResistance(graph, mode="blocked"),
        "cholinv-reference": CholInvEffectiveResistance(graph, mode="reference"),
        "exact": ExactEffectiveResistance(graph),
        "service-cholinv": ResistanceService(graph),
        "service-exact": ResistanceService(
            graph, config=EngineConfig(method="exact")
        ),
    }


class TestKernelsIdentical:
    # ε = 2 is degenerate but legal: it exercises the blocked kernel's slow
    # path where even diagonal entries become truncation-eligible
    @pytest.mark.parametrize("epsilon", [0.0, 1e-3, 5e-2, 0.5, 2.0])
    def test_blocked_matches_reference_complete(self, epsilon):
        graph = fe_mesh_2d(9, 8, seed=3)
        matrix, _ = grounded_laplacian(graph, 1.0)
        factor = cholesky(matrix, ordering="amd")
        z_ref, s_ref = approximate_inverse(factor.lower, epsilon=epsilon, mode="reference")
        z_blk, s_blk = approximate_inverse(factor.lower, epsilon=epsilon, mode="blocked")
        assert np.array_equal(z_ref.indptr, z_blk.indptr)
        assert np.array_equal(z_ref.indices, z_blk.indices)
        assert np.allclose(z_ref.data, z_blk.data, rtol=1e-12, atol=0.0)
        assert s_ref.columns_truncated == s_blk.columns_truncated
        assert s_ref.columns_kept_whole == s_blk.columns_kept_whole

    @pytest.mark.parametrize("epsilon", [1e-3, 5e-2])
    def test_blocked_matches_reference_incomplete(self, epsilon):
        graph = grid_2d(14, 11, jitter=0.3, seed=9)
        matrix, _ = grounded_laplacian(graph, 1.0)
        factor = ichol(matrix, drop_tol=1e-3, ordering="amd")
        z_ref, _ = approximate_inverse(factor.lower, epsilon=epsilon, mode="reference")
        z_blk, _ = approximate_inverse(factor.lower, epsilon=epsilon, mode="blocked")
        assert np.array_equal(z_ref.indptr, z_blk.indptr)
        assert np.array_equal(z_ref.indices, z_blk.indices)
        assert np.allclose(z_ref.data, z_blk.data, rtol=1e-12, atol=0.0)

    def test_engine_mode_knob_same_answers(self, weighted_mesh):
        pairs = weighted_mesh.edge_array()
        blocked = CholInvEffectiveResistance(weighted_mesh, mode="blocked")
        reference = CholInvEffectiveResistance(weighted_mesh, mode="reference")
        assert np.allclose(
            blocked.query_pairs(pairs), reference.query_pairs(pairs), rtol=1e-12
        )

    def test_unknown_mode_raises(self, weighted_mesh):
        matrix, _ = grounded_laplacian(weighted_mesh, 1.0)
        factor = ichol(matrix, drop_tol=1e-3, ordering="amd")
        with pytest.raises(ValueError):
            approximate_inverse(factor.lower, mode="banana")


class TestCrossEngineStructure:
    def test_cross_component_pairs_are_inf(self, two_components):
        pairs = [(0, 3), (1, 4), (2, 5)]
        for name, engine in _engines(two_components).items():
            values = engine.query_pairs(pairs)
            assert np.all(np.isinf(values)), name

    def test_same_node_pairs_are_zero(self, two_components):
        pairs = [(0, 0), (4, 4)]
        for name, engine in _engines(two_components).items():
            assert np.array_equal(engine.query_pairs(pairs), [0.0, 0.0]), name

    def test_within_component_values_agree(self, two_components):
        pairs = [(0, 1), (3, 5)]
        truth = dense_pinv_resistance(two_components, pairs)
        for name, engine in _engines(two_components).items():
            assert np.allclose(engine.query_pairs(pairs), truth, rtol=1e-6), name

    def test_engines_agree_on_mesh(self, weighted_mesh):
        pairs = weighted_mesh.edge_array()
        truth = ExactEffectiveResistance(weighted_mesh).query_pairs(pairs)
        engines = _engines(weighted_mesh)
        for name in ("cholinv-blocked", "cholinv-reference", "service-cholinv"):
            values = engines[name].query_pairs(pairs)
            rel = np.abs(values - truth) / truth
            assert rel.max() < 2e-2, name
        assert np.allclose(engines["service-exact"].query_pairs(pairs), truth)


class TestServiceCaching:
    def test_repeat_queries_hit_cache(self, weighted_mesh):
        service = ResistanceService(weighted_mesh)
        pairs = [(0, 5), (1, 7), (5, 0)]
        first = service.query_pairs(pairs)
        # (5, 0) normalises to (0, 5) and dedupes into a single engine miss
        assert service.stats.result_misses == 2
        assert first[0] == first[2]
        second = service.query_pairs(pairs)
        assert np.array_equal(first, second)
        assert service.stats.result_hits == 3
        assert service.stats.hit_rate >= 0.5

    @pytest.mark.parametrize(
        "graph",
        [grid_2d(24, 24, jitter=0.3, seed=0), barabasi_albert_graph(600, 3, seed=0)],
        ids=["mesh", "ba"],
    )
    def test_single_query_bit_identical_to_batch(self, graph):
        # one cached answer per pair, whichever call fills the cache first
        rng = np.random.default_rng(7)
        pairs = np.vstack([
            rng.integers(0, graph.num_nodes, size=(300, 2)),
            graph.edge_array()[rng.integers(0, graph.num_edges, size=300)],
        ])
        engine = build_engine(graph, EngineConfig())
        scalar_first = ResistanceService.from_engine(engine)
        singles = [scalar_first.query(p, q) for p, q in pairs]
        assert np.array_equal(singles, scalar_first.query_pairs(pairs))
        batch_first = ResistanceService.from_engine(engine)
        batch = batch_first.query_pairs(pairs)
        assert np.array_equal(batch, [batch_first.query(p, q) for p, q in pairs])
        assert np.array_equal(batch, singles)

    def test_result_cache_capacity_zero_disables_caching(self, weighted_mesh):
        service = ResistanceService(weighted_mesh, result_cache_size=0)
        service.query(0, 5)
        service.query(0, 5)
        assert service.stats.result_hits == 0
        pairs = [(0, 5), (1, 7), (5, 0)]
        first = service.query_pairs(pairs)
        second, report = service.query_pairs_with_report(pairs)
        assert np.array_equal(first, second)
        assert report.cache_hit_rows == 0
        assert service.stats.result_hits == 0

    @pytest.mark.parametrize("capacity", [1, 3])
    def test_tiny_table_answers_bit_identical_to_engine(self, capacity):
        # far more distinct pairs than slots: every batch writes some slot
        # several times, and every probe may find another pair in its slot
        graph = grid_2d(12, 12, jitter=0.3, seed=3)
        engine = build_engine(graph, EngineConfig())
        service = ResistanceService.from_engine(engine, result_cache_size=capacity)
        rng = np.random.default_rng(capacity)
        hot = rng.integers(0, graph.num_nodes, size=(4, 2))
        for step in range(30):
            batch = np.vstack([hot, rng.integers(0, graph.num_nodes, size=(20, 2))])
            assert np.array_equal(service.query_pairs(batch), engine.query_pairs(batch))
            for p, q in batch[step % 3::7]:
                assert service.query(p, q) == engine.query_pairs([(p, q)])[0]
        assert service.stats.result_hits > 0
        # every filled slot holds its own pair's value
        table = service._results
        filled = np.flatnonzero(table.epochs)
        lo, hi = np.divmod(table.keys[filled], engine.n)
        assert np.array_equal(
            table.values[filled], engine.query_pairs(np.column_stack([lo, hi]))
        )

    def test_hot_pairs_survive_a_flood_smaller_than_capacity(self):
        graph = grid_2d(24, 24, jitter=0.3, seed=0)
        service = ResistanceService(graph)  # 65536 slots
        rng = np.random.default_rng(5)
        hot = rng.integers(0, graph.num_nodes, size=(200, 2))
        hot = hot[hot[:, 0] != hot[:, 1]]
        service.query_pairs(hot)
        service.query_pairs(rng.integers(0, graph.num_nodes, size=(8192, 2)))
        _, report = service.query_pairs_with_report(hot)
        assert report.cache_hit_rows >= 0.8 * hot.shape[0]

    def test_top_k_central_edges(self, weighted_mesh):
        service = ResistanceService(weighted_mesh)
        edges, centrality = service.top_k_central_edges(5)
        assert edges.shape == (5,) and centrality.shape == (5,)
        assert np.all(np.diff(centrality) <= 0)
        full = weighted_mesh.weights * service.all_edge_resistances()
        assert centrality[0] == pytest.approx(full.max())

    def test_top_k_larger_than_edge_count(self, tiny_path):
        service = ResistanceService(tiny_path)
        edges, _ = service.top_k_central_edges(100)
        assert edges.shape[0] == tiny_path.num_edges


class TestServiceRefresh:
    def test_refresh_with_new_graph_changes_answers(self, weighted_mesh):
        service = ResistanceService(
            weighted_mesh, config=EngineConfig(epsilon=1e-5, drop_tol=1e-5)
        )
        before = service.query(0, 7)
        updated = perturb_edge_weights(weighted_mesh, fraction=0.5, seed=2)
        stats = service.refresh_after_edge_update(updated)
        assert stats.invalidated_results >= 1
        after = service.query(0, 7)
        truth = ExactEffectiveResistance(updated).query(0, 7)
        assert after == pytest.approx(truth, rel=2e-2)
        assert after != before
        assert service.stats.refreshes == 1

    def test_refresh_invalidates_by_epoch_without_clearing(self, weighted_mesh):
        service = ResistanceService(weighted_mesh)
        pairs = [(0, 5), (1, 7), (2, 30), (3, 3)]
        service.query_pairs(pairs)
        service.query(4, 9)
        table = service._results
        current = int(np.count_nonzero(table.epochs == service._epoch))
        keys, values = table.keys.copy(), table.values.copy()
        stats = service.refresh_after_edge_update(weighted_mesh)
        assert current == 4 and stats.invalidated_results == current
        # the slots are left in place; only the epoch retired them
        assert np.array_equal(table.keys, keys)
        assert np.array_equal(table.values, values)
        assert np.count_nonzero(table.epochs == service._epoch) == 0
        _, report = service.query_pairs_with_report(pairs)
        assert report.cache_hit_rows == 0

    def test_refresh_with_edge_list_adds_conductance(self, tiny_path):
        service = ResistanceService(tiny_path, config=EngineConfig(method="exact"))
        before = service.query(0, 4)
        # a parallel unit edge over (0, 1) halves that segment's resistance
        service.refresh_after_edge_update(edges=[(0, 1)], weights=[1.0])
        after = service.query(0, 4)
        assert after == pytest.approx(before - 0.5)

    def test_refresh_connects_components(self, two_components):
        service = ResistanceService(two_components)
        assert np.isinf(service.query(0, 3))
        service.refresh_after_edge_update(edges=[(2, 3)], weights=[2.0])
        assert np.isfinite(service.query(0, 3))

    def test_run_edge_update_flow(self, weighted_mesh):
        service = ResistanceService(
            weighted_mesh, config=EngineConfig(epsilon=1e-5, drop_tol=1e-5)
        )
        outcome = run_edge_update_flow(service, modified_fraction=0.2, seed=4)
        assert outcome.refresh_seconds >= 0.0
        assert outcome.max_rel_error < 2e-2
        assert outcome.updated_graph.num_edges == weighted_mesh.num_edges

    def test_refresh_rejects_both_graph_and_edges(self, tiny_path):
        service = ResistanceService(tiny_path)
        with pytest.raises(ValueError):
            service.refresh_after_edge_update(tiny_path, edges=[(0, 1)])


class TestServiceValidation:
    def test_unknown_method(self, tiny_path):
        with pytest.raises(ValueError):
            ResistanceService(tiny_path, config=EngineConfig(method="voodoo"))

    @pytest.mark.parametrize(
        "value", [2.5, True, float("inf"), "8", -1, None, np.float64(8.0)]
    )
    def test_bad_result_cache_size_names_field_and_value(self, tiny_path, value):
        engine = build_engine(tiny_path, EngineConfig(method="exact"))
        with pytest.raises(ValueError, match=rf"result_cache_size .*{re.escape(repr(value))}"):
            ResistanceService.from_engine(engine, result_cache_size=value)

    @pytest.mark.parametrize("value", [0, -3, 2.5, True, float("inf"), "8"])
    def test_bad_max_task_pairs_names_field_and_value(self, tiny_path, value):
        engine = build_engine(tiny_path, EngineConfig(method="exact"))
        with pytest.raises(ValueError, match=rf"max_task_pairs .*{re.escape(repr(value))}"):
            ResistanceService.from_engine(engine, max_task_pairs=value)

    def test_unallocatable_table_fails_at_construction_with_byte_cost(self, tiny_path):
        with pytest.raises(MemoryError, match=r"24,000,000,000,000 B"):
            ResistanceService(tiny_path, result_cache_size=10**12)

    def test_numpy_integer_knobs_accepted(self, tiny_path):
        engine = build_engine(tiny_path, EngineConfig(method="exact"))
        service = ResistanceService.from_engine(
            engine, result_cache_size=np.int64(4), max_task_pairs=np.int32(2)
        )
        assert service.query(0, 4) == service.query_pairs([(4, 0)])[0]

    def test_bad_pairs_shape(self, tiny_path):
        service = ResistanceService(tiny_path)
        with pytest.raises(ValueError):
            service.query_pairs(np.zeros((2, 3)))

    def test_isolated_declared_nodes_served(self):
        # ids preserved verbatim (the read_edgelist contract): isolated
        # nodes exist and cross-component queries answer inf
        graph = Graph.from_edges(6, [(0, 5)])
        service = ResistanceService(graph)
        assert np.isinf(service.query(0, 3))
        assert service.query(0, 5) == pytest.approx(1.0)
