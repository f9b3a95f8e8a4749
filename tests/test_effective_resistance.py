"""Tests for the effective-resistance engines against closed forms."""

import concurrent.futures
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import repro.linalg.sparse_utils as sparse_utils_module
from repro.core.effective_resistance import (
    CholInvEffectiveResistance,
    ExactEffectiveResistance,
    dense_pinv_resistance,
    effective_resistances,
    spanning_edge_centrality,
)
from repro.core.engine import EngineConfig, as_pair_columns, build_engines
from repro.core.persistence import load_engine
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    fe_mesh_2d,
    grid_2d,
    path_graph,
    star_graph,
    stochastic_block_model,
)
from repro.graphs.graph import Graph
from repro.linalg.sparse_utils import column_pair_dots, gather_index_dtype
from repro.powergrid.generators import PGConfig, synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig
from repro.service import ResistanceService


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


# ----------------------------------------------------------------------
_REFERENCE_CHUNK = 65536


def _reference_query_pairs(engine, pairs) -> np.ndarray:
    """``CholInvEffectiveResistance.query_pairs`` through scipy's public
    sparse API — the specification the raw pair-dot kernel must match
    bit for bit (same Eq. 22 arithmetic).  Each pair's dot is its own
    column sum, so the chunk size bounds memory and not the answers."""
    ps, qs = as_pair_columns(pairs)
    cols_p = engine._position[ps]
    cols_q = engine._position[qs]
    out = np.empty(ps.shape[0])
    for start in range(0, ps.shape[0], _REFERENCE_CHUNK):
        stop = min(start + _REFERENCE_CHUNK, ps.shape[0])
        a = engine.z_tilde[:, cols_p[start:stop]]
        b = engine.z_tilde[:, cols_q[start:stop]]
        dots = np.asarray(a.multiply(b).sum(axis=0)).ravel()
        out[start:stop] = (
            engine._column_sq_norms[cols_p[start:stop]]
            + engine._column_sq_norms[cols_q[start:stop]]
            - 2.0 * dots
        )
    np.maximum(out, 0.0, out=out)
    same = engine.component_labels[ps] == engine.component_labels[qs]
    out[~same] = np.inf
    out[ps == qs] = 0.0
    return out


def _isolated_nodes_graph() -> Graph:
    return Graph.disjoint_union(
        [Graph(2, [], [], []), grid_2d(6, 5, jitter=0.3, seed=4), Graph(1, [], [], []),
         barabasi_albert_graph(40, 2, seed=5)]
    )


KERNEL_GRAPHS = {
    "grid": lambda: grid_2d(20, 17, jitter=0.3, seed=1),
    "ba": lambda: barabasi_albert_graph(400, 3, weight_low=0.5, weight_high=2.0, seed=2),
    "sbm": lambda: stochastic_block_model([40, 60, 50], p_in=0.2, p_out=0.01, seed=3),
    "disconnected": lambda: Graph.disjoint_union(
        [grid_2d(8, 8, seed=6), barabasi_albert_graph(60, 3, seed=7), path_graph(5)]
    ),
    "isolated-nodes": _isolated_nodes_graph,
}


def _probe_pairs(n: int, seed: int, count: int = 2000) -> np.ndarray:
    """Random pairs plus ``p == q``, reversed and repeated pairs."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(count, 2))
    diagonal = np.repeat(rng.integers(0, n, size=(20, 1)), 2, axis=1)
    return np.concatenate([pairs, diagonal, pairs[:50, ::-1], pairs[:50]])


def _gathered_per_pair(engine, pairs) -> np.ndarray:
    """``nnz_p + nnz_q`` of each pair's two Z̃ columns, the count the
    kernel's segment budget is measured in."""
    ps, qs = as_pair_columns(pairs)
    nnz = np.diff(engine.z_tilde.indptr)
    return nnz[engine._position[ps]] + nnz[engine._position[qs]]


def _assert_same(engine, pairs) -> None:
    got = engine.query_pairs(pairs)
    want = _reference_query_pairs(engine, pairs)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestPairDotKernelMatchesScipy:
    """The raw pair-dot kernel equals scipy's column-slice expression
    byte for byte on every input shape the engines see."""

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_graph_families(self, name):
        graph = KERNEL_GRAPHS[name]()
        engine = CholInvEffectiveResistance(graph)
        _assert_same(engine, _probe_pairs(graph.num_nodes, seed=len(name)))
        _assert_same(engine, graph.edge_array())

    def test_cross_component_and_isolated_pairs(self):
        graph = _isolated_nodes_graph()
        engine = CholInvEffectiveResistance(graph)
        # nodes 0, 1 and 32 are isolated; 2..31 and 33..72 are components
        pairs = np.array([[0, 1], [0, 0], [2, 3], [31, 32], [32, 40], [5, 70], [1, 1]])
        out = engine.query_pairs(pairs)
        assert np.isinf(out[[0, 3, 4, 5]]).all() and np.isfinite(out[2])
        assert out[1] == 0.0 and out[6] == 0.0
        _assert_same(engine, pairs)

    def test_empty_batch(self):
        engine = CholInvEffectiveResistance(grid_2d(5, 5))
        out = engine.query_pairs(np.empty((0, 2), dtype=np.int64))
        assert out.shape == (0,)
        _assert_same(engine, np.empty((0, 2), dtype=np.int64))

    def test_pg_schur_blocks(self):
        grid = synthetic_ibmpg_like(PGConfig(nx=32, ny=32, pad_pitch=8), seed=0)
        reducer = PGReducer(grid, ReductionConfig(seed=2))
        graphs = [reducer._schur_block(b).graph for b in range(reducer.num_blocks)]
        graphs = [g for g in graphs if g.num_edges]
        assert graphs
        for graph, engine in zip(graphs, build_engines(graphs, EngineConfig())):
            _assert_same(engine, graph.edge_array())
            _assert_same(engine, _probe_pairs(graph.num_nodes, seed=graph.num_nodes))

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_batch_spanning_several_chunks(self, monkeypatch, budget):
        # 1 and 7 entries: pairs over the budget, each pair a segment of
        # its own; 64: no pair over it, segments of up to four pairs (one
        # participant, whose segments take the whole budget)
        monkeypatch.setattr(sparse_utils_module, "_CORES", 1)
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        graph = KERNEL_GRAPHS["disconnected"]()
        engine = CholInvEffectiveResistance(graph)
        pairs = _probe_pairs(graph.num_nodes, seed=11, count=300)
        gathered = _gathered_per_pair(engine, pairs)
        bounds = sparse_utils_module._pair_plan(gathered)[0]
        sizes = np.diff(bounds)
        totals = np.add.reduceat(gathered, bounds[:-1])
        # within budget unless alone, and greedy: the next pair did not fit
        assert np.all((totals <= budget) | (sizes == 1))
        assert np.all(totals[:-1] + gathered[bounds[1:-1]] > budget)
        assert (gathered > budget).any() == (budget < 64)
        assert (sizes > 1).any() == (budget == 64)
        _assert_same(engine, pairs)

    def test_batch_over_the_natural_chunk(self):
        graph = grid_2d(12, 12, seed=3)
        engine = CholInvEffectiveResistance(graph)
        pairs = _probe_pairs(graph.num_nodes, seed=12, count=70000)
        # more pairs than the reference's chunk, and many segments
        bounds = sparse_utils_module._pair_plan(_gathered_per_pair(engine, pairs))[0]
        assert len(bounds) > 3
        _assert_same(engine, pairs)

    def test_engine_reloaded_with_mmap(self, tmp_path):
        graph = KERNEL_GRAPHS["ba"]()
        engine = CholInvEffectiveResistance(graph)
        mapped = load_engine(engine.save(tmp_path / "engine.npz"), mmap=True)
        assert isinstance(mapped._column_sq_norms, np.memmap)
        pairs = _probe_pairs(graph.num_nodes, seed=13)
        _assert_same(mapped, pairs)
        assert mapped.query_pairs(pairs).tobytes() == engine.query_pairs(pairs).tobytes()

    def test_int64_index_arrays(self):
        graph = KERNEL_GRAPHS["sbm"]()
        engine = CholInvEffectiveResistance(graph)
        pairs = _probe_pairs(graph.num_nodes, seed=14)
        before = engine.query_pairs(pairs)
        z = engine.z_tilde
        z.indptr = z.indptr.astype(np.int64)
        z.indices = z.indices.astype(np.int64)
        assert z.indices.dtype == np.int64
        _assert_same(engine, pairs)
        assert engine.query_pairs(pairs).tobytes() == before.tobytes()

    def test_one_pair_query_agrees(self):
        graph = KERNEL_GRAPHS["grid"]()
        engine = CholInvEffectiveResistance(graph)
        pairs = _probe_pairs(graph.num_nodes, seed=15, count=200)
        batch = engine.query_pairs(pairs)
        single = np.array([engine.query(p, q) for p, q in pairs])
        assert batch.tobytes() == single.tobytes()


class TestColumnPairDots:
    @staticmethod
    def _scipy(matrix, cols_p, cols_q):
        return np.asarray(matrix[:, cols_p].multiply(matrix[:, cols_q]).sum(axis=0)).ravel()

    def test_explicit_zeros_and_underflow(self):
        rng = np.random.default_rng(0)
        dense = rng.choice([0.0, 1e-200, 3.0, -2.0], size=(30, 25))
        matrix = sp.csc_matrix(dense)
        matrix.data[::5] = 0.0  # stored zeros
        cols_p, cols_q = rng.integers(0, 25, size=(2, 400))
        for finite in (False, True):
            got = column_pair_dots(matrix, cols_p, cols_q, assume_finite=finite)
            assert got.tobytes() == self._scipy(matrix, cols_p, cols_q).tobytes()

    def test_non_finite_values_need_the_full_buffer(self):
        matrix = sp.csc_matrix(np.array([[np.inf, 0.0], [0.0, 1.0], [np.nan, 2.0]]))
        cols_p, cols_q = np.array([0, 1, 0]), np.array([1, 0, 0])
        got = column_pair_dots(matrix, cols_p, cols_q)
        want = self._scipy(matrix, cols_p, cols_q)
        assert np.array_equal(got, want, equal_nan=True)

    def test_index_dtype_from_lengths_alone(self):
        fits = np.iinfo(np.int32).max
        assert gather_index_dtype(0, np.int32) == np.int32
        assert gather_index_dtype(fits, np.int32) == np.int32
        assert gather_index_dtype(fits + 1, np.int32) == np.int64
        assert gather_index_dtype(5 * fits, np.int32) == np.int64
        # an int64 matrix is read as it is, whatever the gather size
        assert gather_index_dtype(10, np.int64) == np.int64

    def test_large_gather_switches_dtype(self, monkeypatch):
        """Past the int32 range the gather runs on int64 indices (the
        limit is lowered here, so nothing large is allocated)."""
        monkeypatch.setattr(sparse_utils_module, "_INT32_MAX", 50)
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["grid"]())
        pairs = _probe_pairs(engine.n, seed=16, count=300)
        _assert_same(engine, pairs)


class TestSegmentedPairDots:
    """``column_pair_dots`` walks a batch in segments of at most
    ``_PAIR_SEGMENT_ENTRIES`` gathered entries through one set of reused
    buffers; every segmentation gives the scipy answers byte for byte."""

    @staticmethod
    def _count_calls(monkeypatch, name):
        kernels = sparse_utils_module._sparsetools
        kernel = getattr(kernels, name)
        calls = []

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(kernels, name, spy)
        return calls

    @pytest.mark.parametrize("budget", [None, 100])
    def test_ba_batch_weighted_to_hub_columns(self, monkeypatch, budget):
        graph = KERNEL_GRAPHS["ba"]()
        engine = CholInvEffectiveResistance(graph)
        nnz = np.diff(engine.z_tilde.indptr)[engine._position].astype(float)
        rng = np.random.default_rng(17)
        pairs = rng.choice(graph.num_nodes, size=(3000, 2), p=nnz**2 / (nnz**2).sum())
        if budget is not None:
            monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
            assert (_gathered_per_pair(engine, pairs) > budget).any()
        _assert_same(engine, pairs)

    def test_exactly_at_budget_boundary(self, monkeypatch):
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["grid"]())
        pairs = _probe_pairs(engine.n, seed=18, count=400)
        gathered = _gathered_per_pair(engine, pairs)
        # the first 100 pairs fill a segment exactly; the rest follow (one
        # participant, whose segments take the whole budget)
        budget = int(gathered[:100].sum())
        monkeypatch.setattr(sparse_utils_module, "_CORES", 1)
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        bounds = sparse_utils_module._pair_plan(gathered)[0]
        assert bounds[1] == 100 and bounds[-1] == pairs.shape[0]
        _assert_same(engine, pairs)
        # a whole batch exactly at the budget is one segment
        monkeypatch.setattr(
            sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", int(gathered.sum())
        )
        assert sparse_utils_module._pair_plan(gathered) == ([0, pairs.shape[0]], 1)
        _assert_same(engine, pairs)

    @pytest.mark.parametrize("budget", [1, 64, None])
    def test_int64_source_indices(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["sbm"]())
        pairs = _probe_pairs(engine.n, seed=19, count=500)
        before = engine.query_pairs(pairs)
        z = engine.z_tilde
        z.indptr = z.indptr.astype(np.int64)
        z.indices = z.indices.astype(np.int64)
        _assert_same(engine, pairs)
        gathers = self._count_calls(monkeypatch, "csr_row_index")
        assert engine.query_pairs(pairs).tobytes() == before.tobytes()
        assert {args[1].dtype for args in gathers} == {np.dtype(np.int64)}

    @pytest.mark.parametrize("divisor, dtype", [(1, np.int32), (3, np.int64)])
    def test_index_dtype_from_the_largest_segment(self, monkeypatch, divisor, dtype):
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["grid"]())
        pairs = _probe_pairs(engine.n, seed=20, count=300)
        largest_pair = int(_gathered_per_pair(engine, pairs).max())
        # segments of at most the largest pair: the whole batch is far
        # past the lowered int32 limit, every segment within it; a third
        # of it is below the larger column of that pair
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", largest_pair)
        monkeypatch.setattr(sparse_utils_module, "_INT32_MAX", largest_pair // divisor)
        _assert_same(engine, pairs)
        gathers = self._count_calls(monkeypatch, "csr_row_index")
        engine.query_pairs(pairs)
        assert len(gathers) > 2
        assert {args[1].dtype for args in gathers} == {np.dtype(dtype)}

    @pytest.mark.parametrize("budget", [1, 3, 10])
    def test_non_finite_values_need_the_full_buffer(self, monkeypatch, budget):
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        rng = np.random.default_rng(21)
        dense = rng.choice([0.0, 0.0, 0.0, 1.5, -2.0], size=(12, 9))
        dense[0, 0], dense[5, 3] = np.inf, np.nan
        matrix = sp.csc_matrix(dense)
        cols_p, cols_q = rng.integers(0, 9, size=(2, 200))
        got = column_pair_dots(matrix, cols_p, cols_q)
        want = TestColumnPairDots._scipy(matrix, cols_p, cols_q)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got).any() and np.isfinite(got).any()

    def test_empty_batch_runs_no_kernel(self, monkeypatch):
        elmul = self._count_calls(monkeypatch, "csr_elmul_csr")
        matrix = sp.csc_matrix(np.eye(4))
        empty = np.empty(0, dtype=np.int64)
        out = column_pair_dots(matrix, empty, empty)
        assert out.shape == (0,) and out.dtype == np.float64
        assert not elmul

    def test_batch_under_the_budget_is_one_segment(self, monkeypatch):
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["grid"]())
        pairs = _probe_pairs(engine.n, seed=22, count=64)
        gathered = _gathered_per_pair(engine, pairs)
        assert gathered.sum() <= sparse_utils_module._PAIR_SEGMENT_ENTRIES
        _assert_same(engine, pairs)
        elmul = self._count_calls(monkeypatch, "csr_elmul_csr")
        engine.query_pairs(pairs)
        assert len(elmul) == 1


class _QueuedForever:
    """A helper pool whose submitted tasks never start, as when every
    helper is busy with another caller's segments or a forked child's
    pool has no threads."""

    def __init__(self):
        self.submitted = []
        self.arguments = []

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        self.submitted.append(future)
        self.arguments.append(args)
        return future

    def shutdown(self):
        pass


@pytest.fixture
def participants(monkeypatch):
    """``participants(n)`` makes multi-segment ``column_pair_dots`` calls
    use ``n`` participants, with helpers from a fresh pool of ``n − 1``
    threads (shut down after the test); returns the dict that holds it."""
    pools = {}
    monkeypatch.setattr(sparse_utils_module, "_HELPERS", pools)

    def use(count):
        monkeypatch.setattr(sparse_utils_module, "_CORES", count)
        return pools

    yield use
    for pool in pools.values():
        pool.shutdown()


def _share_budget(gathered, count: int, pairs_per_segment: int = 1) -> int:
    """A segment budget at which ``count`` participants each get segments
    of at least ``pairs_per_segment`` of the largest pair: the plan keeps
    all of them (at smaller budgets every pair is over a participant's
    share, and the caller runs them alone)."""
    return count * pairs_per_segment * int(gathered.max())


def _helper_threads() -> int:
    return sum(
        thread.name.startswith(sparse_utils_module._HELPER_PREFIX)
        for thread in threading.enumerate()
    )


class TestPairDotHelpers:
    """A multi-segment batch is shared out between the caller and the
    helper pool; every participant count and segmentation gives the
    reference bytes, and no caller waits for a helper that has not
    started."""

    @staticmethod
    def _hub_weighted_pairs(engine, seed):
        nnz = np.diff(engine.z_tilde.indptr)[engine._position].astype(float)
        rng = np.random.default_rng(seed)
        return rng.choice(engine.n, size=(3000, 2), p=nnz**2 / (nnz**2).sum())

    @pytest.mark.parametrize("budget", [1, 7, 64, "one-pair", "three-pairs", None])
    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("case", ["grid", "ba-hubs", "int64", "non-finite"])
    def test_bytes_independent_of_participants(self, monkeypatch, participants,
                                               case, count, budget):
        pools = participants(count)
        if case == "non-finite":
            rng = np.random.default_rng(24)
            dense = rng.choice([0.0, 0.0, 0.0, 1.5, -2.0], size=(12, 9))
            dense[0, 0], dense[5, 3] = np.inf, np.nan
            matrix = sp.csc_matrix(dense)
            cols_p, cols_q = rng.integers(0, 9, size=(2, 200))
            gathered = np.diff(matrix.indptr)[cols_p] + np.diff(matrix.indptr)[cols_q]
        else:
            graph = KERNEL_GRAPHS["sbm" if case == "int64" else case.split("-")[0]]()
            engine = CholInvEffectiveResistance(graph)
            if case == "ba-hubs":
                pairs = self._hub_weighted_pairs(engine, seed=25)
            else:
                pairs = _probe_pairs(engine.n, seed=26, count=500)
            if case == "int64":
                z = engine.z_tilde
                z.indptr = z.indptr.astype(np.int64)
                z.indices = z.indices.astype(np.int64)
            gathered = _gathered_per_pair(engine, pairs)
        if isinstance(budget, str):
            per_segment = {"one-pair": 1, "three-pairs": 3}[budget]
            budget = _share_budget(gathered, count, per_segment)
        if budget is not None:
            monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        bounds, used = sparse_utils_module._pair_plan(gathered)
        several = len(bounds) > 2
        assert several or budget is None
        if case == "non-finite":
            got = column_pair_dots(matrix, cols_p, cols_q)
            want = TestColumnPairDots._scipy(matrix, cols_p, cols_q)
            assert got.tobytes() == want.tobytes()
            assert np.isnan(got).any() and np.isfinite(got).any()
        else:
            _assert_same(engine, pairs)
            # every segment is merged once: no ticket lost or handed out twice
            merges = TestSegmentedPairDots._count_calls(monkeypatch, "csr_elmul_csr")
            engine.query_pairs(pairs)
            assert len(merges) == len(bounds) - 1
        if several and sparse_utils_module._PAIR_SEGMENT_ENTRIES >= _share_budget(gathered, count):
            assert used == count
        # the pool is made only when a call has a helper to give work to
        assert bool(pools) == (used > 1)

    @pytest.mark.parametrize("cores", [1, 2, 3, 4, 8, 32])
    @pytest.mark.parametrize("budget", [1, 64, 4000, None])
    def test_plan_keeps_one_calls_buffers_within_the_budget(self, monkeypatch,
                                                            cores, budget):
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["ba"]())
        gathered = _gathered_per_pair(engine, self._hub_weighted_pairs(engine, seed=32))
        monkeypatch.setattr(sparse_utils_module, "_CORES", cores)
        if budget is not None:
            monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        budget = sparse_utils_module._PAIR_SEGMENT_ENTRIES
        bounds, used = sparse_utils_module._pair_plan(gathered)
        assert bounds[0] == 0 and bounds[-1] == gathered.size
        assert np.all(np.diff(bounds) > 0)
        segments = np.add.reduceat(gathered, bounds[:-1])
        assert 1 <= used <= min(cores, sparse_utils_module._MAX_PARTICIPANTS, segments.size)
        share = budget // min(cores, sparse_utils_module._MAX_PARTICIPANTS)
        # a segment over a participant's share is a single pair
        assert np.all((segments <= share) | (np.diff(bounds) == 1))
        # every participant's buffers hold the largest segment: together
        # they stay within the budget, or the caller runs alone
        assert used == 1 or used * segments.max() <= budget

    def test_one_segment_batch_stays_inline(self, monkeypatch, participants):
        pool = participants(3)["pool"] = _QueuedForever()
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["grid"]())
        pairs = _probe_pairs(engine.n, seed=27, count=64)
        elmul = TestSegmentedPairDots._count_calls(monkeypatch, "csr_elmul_csr")
        engine.query_pairs(pairs)
        assert len(elmul) == 1
        assert not pool.submitted

    def test_helper_that_never_starts_is_not_waited_for(self, monkeypatch, participants):
        pool = participants(3)["pool"] = _QueuedForever()
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["ba"]())
        pairs = _probe_pairs(engine.n, seed=28, count=300)
        budget = _share_budget(_gathered_per_pair(engine, pairs), 3)
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        answers = []
        caller = threading.Thread(
            target=lambda: answers.append(engine.query_pairs(pairs)), daemon=True
        )
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the call waited for a helper that never started"
        assert answers[0].tobytes() == _reference_query_pairs(engine, pairs).tobytes()
        assert len(pool.submitted) == 2
        assert all(future.cancelled() for future in pool.submitted)
        # the cancelled tasks, still queued, hold neither buffers nor batch
        assert [args[0] for args in pool.arguments] == [[], []]

    def test_interpreter_shutdown_leaves_the_caller_alone(self, monkeypatch, participants):
        pools = participants(3)
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["grid"]())
        pairs = _probe_pairs(engine.n, seed=33, count=300)
        budget = _share_budget(_gathered_per_pair(engine, pairs), 3)
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        # what concurrent.futures' exit hook sets before non-daemon threads
        # are joined: every later submit raises RuntimeError
        monkeypatch.setattr(concurrent.futures.thread, "_shutdown", True)
        _assert_same(engine, pairs)
        assert not pools["pool"]._threads

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads
    def test_forked_child_answers(self, monkeypatch):
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["grid"]())
        pairs = _probe_pairs(engine.n, seed=31, count=300)
        budget = _share_budget(
            _gathered_per_pair(engine, pairs), sparse_utils_module._MAX_PARTICIPANTS
        )
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        want = _reference_query_pairs(engine, pairs).tobytes()
        assert engine.query_pairs(pairs).tobytes() == want  # helpers started
        pid = os.fork()
        if pid == 0:  # the child: answer once more, report by exit status
            try:
                os._exit(0 if engine.query_pairs(pairs).tobytes() == want else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_helper_error_reaches_the_caller(self, monkeypatch, participants):
        participants(2)
        engine = CholInvEffectiveResistance(KERNEL_GRAPHS["grid"]())
        pairs = _probe_pairs(engine.n, seed=29, count=200)
        budget = _share_budget(_gathered_per_pair(engine, pairs), 2)
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        kernels = sparse_utils_module._sparsetools
        merge = kernels.csr_elmul_csr
        caller = threading.get_ident()
        helper_failed = threading.Event()

        def flaky(*args):
            if threading.get_ident() != caller:
                helper_failed.set()
                raise RuntimeError("helper failed")
            # hold the caller's first segment until the helper has failed
            assert helper_failed.wait(timeout=60)
            return merge(*args)

        monkeypatch.setattr(kernels, "csr_elmul_csr", flaky)
        with pytest.raises(RuntimeError, match="helper failed"):
            engine.query_pairs(pairs)
        monkeypatch.setattr(kernels, "csr_elmul_csr", merge)
        _assert_same(engine, pairs)

    def test_many_callers_share_at_most_cores_minus_one_helpers(self, monkeypatch):
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", 4000)
        graph = grid_2d(30, 30, jitter=0.3, seed=7)
        engine = build_engines([graph], EngineConfig())[0]
        edges = graph.edge_array()
        want_edges = _reference_query_pairs(engine, edges).tobytes()
        batches = [_probe_pairs(graph.num_nodes, seed=30 + i, count=3000) for i in range(4)]
        want_batches = [_reference_query_pairs(engine, b).tobytes() for b in batches]
        bounds, used = sparse_utils_module._pair_plan(_gathered_per_pair(engine, edges))
        assert len(bounds) > 3 and used == min(sparse_utils_module._CORES, 4)
        helper_cap = max(sparse_utils_module._CORES - 1, 0)
        errors, most = [], [0]
        done = threading.Event()
        start = threading.Barrier(11)
        service = ResistanceService.from_engine(engine, result_cache_size=0)

        def edge_caller():
            start.wait(timeout=60)
            for _ in range(6):
                if engine.all_edge_resistances().tobytes() != want_edges:
                    errors.append("all-edge answers differ")

        def service_caller(first):
            # one uncached service shared by several threads, each batch a
            # multi-segment pair-dot call of its own
            start.wait(timeout=60)
            order = [*range(first, len(batches)), *range(first)]
            for _ in range(3):
                for i in order:
                    if service.query_pairs(batches[i]).tobytes() != want_batches[i]:
                        errors.append("service answers differ")

        def count_helpers():
            start.wait(timeout=60)
            while not done.is_set():
                most[0] = max(most[0], _helper_threads())
                done.wait(0.001)

        callers = [threading.Thread(target=edge_caller) for _ in range(7)]
        callers += [threading.Thread(target=service_caller, args=(i,)) for i in range(3)]
        counter = threading.Thread(target=count_helpers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many more hand-offs between threads
        try:
            for thread in [*callers, counter]:
                thread.start()
            for thread in callers:
                thread.join(timeout=300)
        finally:
            done.set()
            counter.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []
        assert most[0] <= helper_cap and _helper_threads() <= helper_cap
        assert most[0] >= min(helper_cap, 1)  # the callers did share helpers


class TestPairQueryWorkingSet:
    def test_all_edge_peak_is_bounded_by_the_segment_budget(self):
        """The all-edge pass on grid72 used to build one 30 MB batch of
        gather and product buffers; now its scratch is the segment
        budget's, plus O(1) arrays per pair."""
        engine = CholInvEffectiveResistance(grid_2d(72, 72, jitter=0.3, seed=1))
        engine.all_edge_resistances()
        tracemalloc.start()
        try:
            engine.all_edge_resistances()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an int32 index and a float64 value (12 bytes) per entry: both
        # gathers and the product buffer hold at most a budget each
        buffers = 3 * 12 * sparse_utils_module._PAIR_SEGMENT_ENTRIES
        per_pair = 256 * engine.graph.num_edges
        assert peak < buffers + per_pair

    @pytest.mark.parametrize("cores", [4, 8])
    def test_more_cores_share_the_same_budget(self, participants, cores):
        """Each participant holds buffers of its own; on a host of more
        cores the segments shrink, so one call's scratch stays the
        budget's."""
        participants(cores)
        engine = CholInvEffectiveResistance(grid_2d(72, 72, jitter=0.3, seed=1))
        gathered = _gathered_per_pair(engine, engine.graph.edge_array())
        assert sparse_utils_module._pair_plan(gathered)[1] == min(
            cores, sparse_utils_module._MAX_PARTICIPANTS
        )
        engine.all_edge_resistances()
        tracemalloc.start()
        try:
            engine.all_edge_resistances()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffers = 3 * 12 * sparse_utils_module._PAIR_SEGMENT_ENTRIES
        per_pair = 256 * engine.graph.num_edges
        assert peak < buffers + per_pair
