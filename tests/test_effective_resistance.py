"""Tests for the effective-resistance engines against closed forms."""

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
        # its own; 64: no pair over it, segments of up to four pairs
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        graph = KERNEL_GRAPHS["disconnected"]()
        engine = CholInvEffectiveResistance(graph)
        pairs = _probe_pairs(graph.num_nodes, seed=11, count=300)
        gathered = _gathered_per_pair(engine, pairs)
        bounds = sparse_utils_module._pair_segments(gathered)
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
        bounds = sparse_utils_module._pair_segments(_gathered_per_pair(engine, pairs))
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
        # the first 100 pairs fill a segment exactly; the rest follow
        budget = int(gathered[:100].sum())
        monkeypatch.setattr(sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", budget)
        bounds = sparse_utils_module._pair_segments(gathered)
        assert bounds[1] == 100 and bounds[-1] == pairs.shape[0]
        _assert_same(engine, pairs)
        # a whole batch exactly at the budget is one segment
        monkeypatch.setattr(
            sparse_utils_module, "_PAIR_SEGMENT_ENTRIES", int(gathered.sum())
        )
        assert sparse_utils_module._pair_segments(gathered) == [0, pairs.shape[0]]
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
