"""Tests for incidence/Laplacian assembly and grounding (paper Section II-A)."""

import importlib

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.effective_resistance as effective_resistance_module
from repro.core.engine import EngineConfig, build_engine
from repro.graphs.components import connected_components
from repro.graphs.generators import barabasi_albert_graph, fe_mesh_2d, grid_2d
from repro.graphs.graph import Graph
from repro.graphs.laplacian import (
    add_to_diagonal,
    component_ground_nodes,
    grounded_laplacian,
    incidence_matrix,
    is_sdd_m_matrix,
    laplacian,
    laplacian_from_grounded,
    laplacian_quadratic_form,
    weight_matrix,
)


class TestIncidence:
    def test_shape_and_entries(self, tiny_path):
        b = incidence_matrix(tiny_path)
        assert b.shape == (4, 5)
        dense = b.toarray()
        for e, (u, v) in enumerate(tiny_path.edge_array()):
            assert dense[e, u] == 1.0
            assert dense[e, v] == -1.0
            assert np.count_nonzero(dense[e]) == 2

    def test_rows_sum_to_zero(self, weighted_mesh):
        b = incidence_matrix(weighted_mesh)
        assert np.allclose(np.asarray(b.sum(axis=1)).ravel(), 0.0)


class TestLaplacian:
    def test_equals_btwb(self, weighted_mesh):
        """Direct assembly must equal the Eq. (2) triple product."""
        b = incidence_matrix(weighted_mesh)
        w = weight_matrix(weighted_mesh)
        reference = (b.T @ w @ b).toarray()
        assert np.allclose(laplacian(weighted_mesh).toarray(), reference)

    def test_row_sums_zero(self, weighted_mesh):
        lap = laplacian(weighted_mesh)
        assert np.allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0, atol=1e-12)

    def test_positive_semidefinite(self, weighted_mesh):
        eigenvalues = np.linalg.eigvalsh(laplacian(weighted_mesh).toarray())
        assert eigenvalues.min() > -1e-10

    def test_singular(self, small_grid):
        lap = laplacian(small_grid).toarray()
        assert abs(np.linalg.det(lap)) < 1e-6

    def test_quadratic_form_matches_matrix(self, weighted_mesh):
        rng = np.random.default_rng(0)
        x = rng.normal(size=weighted_mesh.num_nodes)
        direct = laplacian_quadratic_form(weighted_mesh, x)
        via_matrix = float(x @ (laplacian(weighted_mesh) @ x))
        assert np.isclose(direct, via_matrix)


class TestGrounding:
    def test_grounded_is_nonsingular(self, small_grid):
        matrix, grounds = grounded_laplacian(small_grid, 1.0)
        assert grounds.shape == (1,)
        assert np.linalg.cond(matrix.toarray()) < 1e8

    def test_one_ground_per_component(self, two_components):
        _, grounds = grounded_laplacian(two_components, 1.0)
        assert grounds.shape == (2,)
        assert grounds[0] < 3 <= grounds[1]

    def test_explicit_ground_nodes(self, small_grid):
        matrix, grounds = grounded_laplacian(small_grid, 2.0, ground_nodes=np.array([5]))
        assert np.array_equal(grounds, [5])
        lap = laplacian(small_grid)
        assert np.isclose(matrix[5, 5] - lap[5, 5], 2.0)

    def test_round_trip(self, weighted_mesh):
        matrix, grounds = grounded_laplacian(weighted_mesh, 3.0)
        restored = laplacian_from_grounded(matrix, grounds, 3.0)
        assert np.allclose(restored.toarray(), laplacian(weighted_mesh).toarray())

    def test_requires_positive_ground(self, small_grid):
        with pytest.raises(ValueError):
            grounded_laplacian(small_grid, 0.0)

    def test_grounded_is_sdd_m_matrix(self, weighted_mesh):
        matrix, _ = grounded_laplacian(weighted_mesh, 1.0)
        assert is_sdd_m_matrix(matrix)


class TestSddCheck:
    def test_rejects_positive_offdiagonal(self):
        matrix = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert not is_sdd_m_matrix(matrix)

    def test_rejects_non_dominant(self):
        matrix = sp.csc_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        assert not is_sdd_m_matrix(matrix)

    def test_accepts_laplacian(self, small_grid):
        assert is_sdd_m_matrix(laplacian(small_grid))


# ----------------------------------------------------------------------
# The LIL-matrix assembly the shipped functions replaced, kept as their
# specification: the shipped ones must match these array for array.
def _reference_grounded_laplacian(graph, ground_value=1.0, ground_nodes=None):
    lap = laplacian(graph).tolil()
    if ground_nodes is None:
        labels, count = connected_components(graph)
        ground_list = []
        seen = np.zeros(count, dtype=bool)
        for node in range(graph.num_nodes):
            comp = labels[node]
            if not seen[comp]:
                seen[comp] = True
                ground_list.append(node)
        ground_nodes = np.asarray(ground_list, dtype=np.int64)
    else:
        ground_nodes = np.asarray(ground_nodes, dtype=np.int64)
    for node in ground_nodes:
        lap[node, node] += ground_value
    return lap.tocsc(), ground_nodes


def _reference_laplacian_from_grounded(grounded, ground_nodes, ground_value):
    lap = grounded.tolil(copy=True)
    for node in np.asarray(ground_nodes, dtype=np.int64):
        lap[node, node] -= ground_value
    return lap.tocsc()


def _csc_parts(matrix):
    return [
        (str(part.dtype), part.tobytes())
        for part in (matrix.indptr, matrix.indices, matrix.data)
    ]


def _wide_weights(graph, seed):
    rng = np.random.default_rng(seed)
    return graph.with_weights(10.0 ** rng.uniform(-6, 6, size=graph.num_edges))


GROUNDING_GRAPHS = {
    "grid": lambda: grid_2d(9, 7, jitter=0.3, seed=1),
    "disconnected": lambda: Graph.disjoint_union(
        [grid_2d(5, 5, seed=2), barabasi_albert_graph(40, 2, seed=3), grid_2d(2, 3)]
    ),
    "isolated-nodes": lambda: Graph.disjoint_union(
        [Graph(2, [], [], []), grid_2d(4, 4, seed=4), Graph(1, [], [], []),
         barabasi_albert_graph(30, 3, seed=5), Graph(3, [], [], [])]
    ),
    "edgeless": lambda: Graph(6, [], [], []),
    "wide-weights": lambda: _wide_weights(
        Graph.disjoint_union([fe_mesh_2d(6, 6, seed=6), barabasi_albert_graph(50, 3, seed=7)]),
        seed=8,
    ),
}


class TestGroundingMatchesLilReference:
    """The CSC-diagonal grounding equals the LIL round trip byte for byte."""

    @pytest.mark.parametrize("name", sorted(GROUNDING_GRAPHS))
    @pytest.mark.parametrize("ground_value", [1.0, 1e-6, 3.7e5])
    def test_default_ground_nodes(self, name, ground_value):
        graph = GROUNDING_GRAPHS[name]()
        matrix, grounds = grounded_laplacian(graph, ground_value)
        ref_matrix, ref_grounds = _reference_grounded_laplacian(graph, ground_value)
        assert _csc_parts(matrix) == _csc_parts(ref_matrix)
        assert grounds.dtype == ref_grounds.dtype
        assert grounds.tobytes() == ref_grounds.tobytes()

    @pytest.mark.parametrize("name", sorted(GROUNDING_GRAPHS))
    def test_explicit_ground_nodes(self, name):
        graph = GROUNDING_GRAPHS[name]()
        rng = np.random.default_rng(9)
        chosen = rng.choice(graph.num_nodes, size=min(4, graph.num_nodes), replace=False)
        matrix, grounds = grounded_laplacian(graph, 2.5, ground_nodes=chosen)
        ref_matrix, ref_grounds = _reference_grounded_laplacian(graph, 2.5, chosen)
        assert _csc_parts(matrix) == _csc_parts(ref_matrix)
        assert grounds.tobytes() == ref_grounds.tobytes()

    @pytest.mark.parametrize("name", sorted(GROUNDING_GRAPHS))
    def test_laplacian_from_grounded(self, name):
        graph = GROUNDING_GRAPHS[name]()
        grounded, grounds = grounded_laplacian(graph, 0.75)
        restored = laplacian_from_grounded(grounded, grounds, 0.75)
        reference = _reference_laplacian_from_grounded(grounded, grounds, 0.75)
        assert _csc_parts(restored) == _csc_parts(reference)
        # the input is not modified
        assert _csc_parts(grounded) == _csc_parts(grounded_laplacian(graph, 0.75)[0])

    def test_component_ground_nodes_is_first_node_of_each_component(self):
        graph = GROUNDING_GRAPHS["isolated-nodes"]()
        labels, _ = connected_components(graph)
        expected = _reference_grounded_laplacian(graph)[1]
        assert component_ground_nodes(labels).tobytes() == expected.tobytes()


class TestGroundNodeChecks:
    @pytest.mark.parametrize("bad", [[-1], [64], [3, 100]])
    def test_out_of_range_names_the_node(self, small_grid, bad):
        node = [b for b in bad if not 0 <= b < 64][0]
        with pytest.raises(ValueError, match=f"ground node {node} is out of range"):
            grounded_laplacian(small_grid, 1.0, ground_nodes=np.array(bad))

    def test_duplicate_names_the_node(self, small_grid):
        with pytest.raises(ValueError, match="ground node 5 is listed more than once"):
            grounded_laplacian(small_grid, 1.0, ground_nodes=np.array([9, 5, 2, 5]))

    def test_not_one_dimensional(self, small_grid):
        with pytest.raises(ValueError, match="1-D"):
            grounded_laplacian(small_grid, 1.0, ground_nodes=np.array([[0]]))

    def test_laplacian_from_grounded_checks_too(self, small_grid):
        matrix, _ = grounded_laplacian(small_grid, 1.0)
        with pytest.raises(ValueError, match="ground node 0 is listed more than once"):
            laplacian_from_grounded(matrix, [0, 0], 1.0)
        with pytest.raises(ValueError, match="ground node 64 is out of range"):
            laplacian_from_grounded(matrix, [64], 1.0)


class TestAddToDiagonal:
    """``add_to_diagonal`` follows LIL item assignment: insert a missing
    diagonal, drop one that sums to exactly 0, keep other explicit zeros."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lil_assignment(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            matrix = sp.csc_matrix(rng.choice([0.0, 0.0, 1.0, -1.0, 2.5], size=(n, n)))
            if matrix.nnz:
                matrix.data[rng.integers(0, matrix.nnz)] = 0.0  # explicit zero
            nodes = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            values = rng.choice([0.0, 1.0, -1.0, 2.5, -2.5], size=nodes.size)
            lil = matrix.tolil(copy=True)
            for node, value in zip(nodes, values):
                lil[node, node] += value
            got = add_to_diagonal(matrix.copy(), nodes, values)
            assert _csc_parts(got) == _csc_parts(lil.tocsc())

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_lil_setdiag(self, seed):
        """The shunt stamp of Alg. 1 step 2 (``setdiag`` on every node)."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            matrix = sp.csc_matrix(rng.choice([0.0, 0.0, 1.0, -2.0], size=(n, n)))
            shunts = rng.choice([0.0, 0.5, 2.0], size=n)
            lil = matrix.tolil(copy=True)
            lil.setdiag(lil.diagonal() + shunts)
            got = add_to_diagonal(matrix.copy(), np.arange(n), shunts)
            assert _csc_parts(got) == _csc_parts(lil.tocsc())


class TestEnginesLabelComponentsOnce:
    """An engine build computes the component labels once and grounds
    from them, rather than have ``grounded_laplacian`` relabel."""

    @pytest.mark.parametrize("method", ["cholinv", "exact"])
    def test_one_connected_components_call(self, monkeypatch, method):
        # the package re-exports a ``laplacian`` function under the
        # submodule's name, so fetch the module itself
        laplacian_module = importlib.import_module("repro.graphs.laplacian")
        calls = []
        real = effective_resistance_module.connected_components

        def counting(graph):
            calls.append(graph.num_nodes)
            return real(graph)

        monkeypatch.setattr(effective_resistance_module, "connected_components", counting)
        monkeypatch.setattr(laplacian_module, "connected_components", counting)
        graph = GROUNDING_GRAPHS["disconnected"]()
        engine = build_engine(graph, EngineConfig(method=method))
        assert calls == [graph.num_nodes]
        expected = _reference_grounded_laplacian(graph)[1]
        assert engine.ground_nodes.tobytes() == expected.tobytes()
