"""Unit tests for the Graph container."""

import numpy as np
import pytest

from repro.graphs.graph import Graph


class TestConstruction:
    def test_from_edges_pairs(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 3
        assert np.all(g.weights == 1.0)

    def test_from_edges_triples(self):
        g = Graph.from_edges(3, [(0, 1, 2.5), (1, 2, 0.5)])
        assert np.allclose(g.weights, [2.5, 0.5])

    def test_from_edges_separate_weights(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], weights=[3.0, 4.0])
        assert np.allclose(g.weights, [3.0, 4.0])

    def test_from_edges_inline_and_separate_weights_conflict(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1, 1.0)], weights=[2.0])

    def test_empty_graph(self):
        g = Graph.from_edges(5, [])
        assert g.num_nodes == 5
        assert g.num_edges == 0

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self loops"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            Graph.from_edges(3, [(0, 1, 0.0)])
        with pytest.raises(ValueError, match="positive"):
            Graph.from_edges(3, [(0, 1, -1.0)])

    def test_rejects_infinite_weights(self):
        # an inf conductance used to pass and silently short the edge:
        # cholinv answered R(0,1)=0 and R(0,3)=1 on this path (truth 1, 2)
        with pytest.raises(ValueError, match="finite.*edge 1 \\(1, 2\\)"):
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)],
                             weights=[1.0, np.inf, 1.0])
        with pytest.raises(ValueError, match="finite"):
            Graph.from_edges(2, [(0, 1, np.nan)])

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 5)])

    def test_rejects_negative_node_ids(self):
        with pytest.raises(ValueError, match="negative"):
            Graph(3, np.array([-1]), np.array([1]), np.array([1.0]))

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            Graph.from_edges(0, [])

    def test_mismatched_array_lengths(self):
        with pytest.raises(ValueError, match="identical shapes"):
            Graph(3, np.array([0, 1]), np.array([1]), np.array([1.0]))

    def test_from_sparse_adjacency(self, small_grid):
        rebuilt = Graph.from_sparse_adjacency(small_grid.adjacency())
        assert rebuilt.num_nodes == small_grid.num_nodes
        assert rebuilt.num_edges == small_grid.num_edges
        assert np.allclose(
            rebuilt.adjacency().toarray(), small_grid.adjacency().toarray()
        )


class TestRoundTrips:
    def test_networkx_round_trip(self, weighted_mesh):
        back = Graph.from_networkx(weighted_mesh.to_networkx())
        assert back.num_nodes == weighted_mesh.num_nodes
        assert np.allclose(
            back.adjacency().toarray(), weighted_mesh.adjacency().toarray()
        )

    def test_adjacency_symmetric(self, weighted_mesh):
        adj = weighted_mesh.adjacency()
        assert abs(adj - adj.T).nnz == 0


class TestOperations:
    def test_degrees_path(self, tiny_path):
        assert np.allclose(tiny_path.degrees(), [1, 2, 2, 2, 1])

    def test_degrees_weighted(self):
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert np.allclose(g.degrees(), [2.0, 5.0, 3.0])

    def test_coalesce_merges_parallel_edges(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)])
        merged = g.coalesce()
        assert merged.num_edges == 2
        idx = np.lexsort((merged.tails, merged.heads))
        assert np.allclose(np.sort(merged.weights[idx]), [1.0, 3.0])

    def test_coalesce_canonical_orientation(self):
        g = Graph.from_edges(4, [(3, 1, 1.0), (1, 3, 1.0)]).coalesce()
        assert g.num_edges == 1
        assert g.heads[0] < g.tails[0]
        assert g.weights[0] == 2.0

    def test_coalesce_idempotent(self, weighted_mesh):
        once = weighted_mesh.coalesce()
        twice = once.coalesce()
        assert once.num_edges == twice.num_edges
        assert np.allclose(once.weights, twice.weights)

    def test_subgraph(self, small_grid):
        nodes = np.array([0, 1, 8, 9])  # top-left 2x2 block of the 8x8 grid
        sub, original = small_grid.subgraph(nodes)
        assert sub.num_nodes == 4
        assert sub.num_edges == 4  # the 2x2 square
        assert np.array_equal(original, nodes)

    def test_subgraph_excludes_crossing_edges(self, tiny_path):
        sub, _ = tiny_path.subgraph(np.array([0, 2, 4]))
        assert sub.num_edges == 0

    def test_with_weights(self, tiny_path):
        new = tiny_path.with_weights(np.full(4, 7.0))
        assert np.all(new.weights == 7.0)
        assert np.array_equal(new.heads, tiny_path.heads)

    def test_edge_array_shape(self, small_grid):
        arr = small_grid.edge_array()
        assert arr.shape == (small_grid.num_edges, 2)

    def test_reverse_resistances(self):
        g = Graph.from_edges(2, [(0, 1, 4.0)])
        assert np.allclose(g.reverse_resistances(), [0.25])

    def test_total_weight(self, tiny_path):
        assert tiny_path.total_weight() == 4.0
