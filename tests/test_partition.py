"""Tests for the multilevel partitioner and node-role classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cholesky.ordering import compute_ordering
from repro.graphs.generators import barabasi_albert_graph, grid_2d, path_graph, star_graph
from repro.graphs.graph import Graph
from repro.graphs.laplacian import laplacian
from repro.partition import coarsen, multilevel
from repro.partition.coarsen import coarsen_once, coarsen_to, heavy_edge_matching
from repro.partition.interface import (
    NodeRole,
    classify_nodes,
    edge_cut,
    partition_graph,
    partition_quality,
)
from repro.partition.multilevel import _bfs_grow_initial, multilevel_bisection, multilevel_kway
from repro.partition.refine import bisection_gains, refine_bisection
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig
from repro.utils.rng import ensure_rng


# ----------------------------------------------------------------------
# Executable specifications: the partitioner's hot loops written plainly
# over numpy scalars.  The shipped list/deque/vectorised versions must
# reproduce them exactly (same rng draws, same ties, same outputs).
# ----------------------------------------------------------------------
def _reference_heavy_edge_matching(graph, node_weights, rng):
    n = graph.num_nodes
    adj = graph.adjacency().tocsr()
    match = -np.ones(n, dtype=np.int64)
    for v in rng.permutation(n):
        if match[v] != -1:
            continue
        start, end = adj.indptr[v], adj.indptr[v + 1]
        best, best_weight = -1, -1.0
        for u, w in zip(adj.indices[start:end], adj.data[start:end]):
            if match[u] == -1 and u != v and w > best_weight:
                best, best_weight = int(u), float(w)
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v
    return match


def _reference_relabel(match):
    n = match.size
    fine_to_coarse = -np.ones(n, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if fine_to_coarse[v] != -1:
            continue
        partner = int(match[v])
        fine_to_coarse[v] = next_id
        if partner != v:
            fine_to_coarse[partner] = next_id
        next_id += 1
    return fine_to_coarse, next_id


def _reference_bfs_grow_initial(graph, node_weights, target_mass, rng):
    n = graph.num_nodes
    side = np.zeros(n, dtype=bool)
    if n == 0:
        return side
    adj = graph.adjacency().tocsr()
    visited = np.zeros(n, dtype=bool)
    mass = 0.0
    start = int(rng.integers(n))
    for _ in range(2):
        frontier = [start]
        seen = {start}
        last = start
        while frontier:
            nxt = []
            for v in frontier:
                last = v
                for u in adj.indices[adj.indptr[v] : adj.indptr[v + 1]]:
                    if int(u) not in seen:
                        seen.add(int(u))
                        nxt.append(int(u))
            frontier = nxt
        start = last

    queue = [start]
    visited[start] = True
    while queue and mass < target_mass:
        v = queue.pop(0)
        side[v] = True
        mass += node_weights[v]
        for u in adj.indices[adj.indptr[v] : adj.indptr[v + 1]]:
            if not visited[u]:
                visited[u] = True
                queue.append(int(u))
        if not queue and mass < target_mass:
            remaining = np.flatnonzero(~visited)
            if remaining.size == 0:
                break
            seed2 = int(remaining[0])
            visited[seed2] = True
            queue.append(seed2)
    return side


def _family_graph(family: str, size: int, seed: int) -> Graph:
    if family == "jittered_grid":
        return grid_2d(size, size + 3, jitter=0.3, seed=seed)
    if family == "uniform_grid":  # every weight tied
        return grid_2d(size, size + 3)
    if family == "ba":
        return barabasi_albert_graph(8 * size, 3, seed=seed)
    if family == "path":
        return path_graph(4 * size)
    if family == "star":
        return star_graph(4 * size)
    if family == "union":  # disconnected: restarts the BFS growth
        return Graph.disjoint_union(
            [grid_2d(size, size, jitter=0.3, seed=seed), path_graph(size), star_graph(size)]
        )
    # a jittered grid and a BA graph with weights spread over 1e-6 .. 1e6
    graph = Graph.disjoint_union(
        [grid_2d(size, size, seed=seed), barabasi_albert_graph(4 * size, 2, seed=seed)]
    )
    rng = np.random.default_rng(seed)
    return graph.with_weights(10.0 ** rng.uniform(-6.0, 6.0, size=graph.num_edges))


FAMILIES = ["jittered_grid", "uniform_grid", "ba", "path", "star", "union", "wide_weights"]


class TestCoarsening:
    def test_matching_is_symmetric(self):
        g = grid_2d(10, 10)
        match = heavy_edge_matching(g, np.ones(100), ensure_rng(0))
        for v, m in enumerate(match):
            assert match[m] == v  # partner-of-partner is self

    def test_coarsen_preserves_mass(self):
        g = grid_2d(8, 8)
        level = coarsen_once(g, np.ones(64), ensure_rng(1))
        assert np.isclose(level.node_weights.sum(), 64.0)
        assert level.graph.num_nodes < 64

    def test_coarsen_to_target(self):
        g = grid_2d(20, 20)
        levels = coarsen_to(g, 50, seed=2)
        assert levels[-1].graph.num_nodes <= max(50, int(0.9 * 400))
        assert np.isclose(levels[-1].node_weights.sum(), 400.0)

    def test_mapping_composes(self):
        g = grid_2d(10, 10)
        levels = coarsen_to(g, 30, seed=3)
        mapping = np.arange(100)
        for level in levels:
            mapping = level.fine_to_coarse[mapping]
        assert mapping.max() < levels[-1].graph.num_nodes


class TestShippedLoopsMatchTheReference:
    @given(
        family=st.sampled_from(FAMILIES),
        size=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
        fraction=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_matching_relabel_and_bfs_are_identical(self, family, size, seed, fraction):
        graph = _family_graph(family, size, seed)
        weights = np.random.default_rng(seed + 1).uniform(0.5, 3.0, size=graph.num_nodes)
        match = heavy_edge_matching(graph, weights, ensure_rng(seed))
        expected = _reference_heavy_edge_matching(graph, weights, ensure_rng(seed))
        assert match.dtype == expected.dtype
        assert match.tobytes() == expected.tobytes()

        fine_to_coarse, num_coarse = coarsen._relabel(match)
        expected_map, expected_num = _reference_relabel(match)
        assert num_coarse == expected_num
        assert fine_to_coarse.dtype == expected_map.dtype
        assert fine_to_coarse.tobytes() == expected_map.tobytes()

        target = fraction * float(weights.sum())
        rng, reference_rng = ensure_rng(seed), ensure_rng(seed)
        side = _bfs_grow_initial(graph, weights, target, rng)
        expected_side = _reference_bfs_grow_initial(graph, weights, target, reference_rng)
        assert side.tobytes() == expected_side.tobytes()
        # both consumed the same draws, so later levels see the same stream
        assert rng.integers(2**62) == reference_rng.integers(2**62)

    @pytest.fixture
    def reference_loops(self, monkeypatch):
        def install():
            monkeypatch.setattr(coarsen, "heavy_edge_matching", _reference_heavy_edge_matching)
            monkeypatch.setattr(coarsen, "_relabel", _reference_relabel)
            monkeypatch.setattr(multilevel, "_bfs_grow_initial", _reference_bfs_grow_initial)

        return install

    def test_pg_labels_identical(self, reference_loops):
        grid = synthetic_ibmpg_like(nx=24, ny=24, pad_pitch=6, seed=3)
        config = ReductionConfig(ports_per_block=10, seed=5)
        labels = PGReducer(grid, config).labels
        reference_loops()
        expected = PGReducer(grid, config).labels
        assert np.unique(labels).size > 2
        assert labels.tobytes() == expected.tobytes()

    def test_nested_dissection_permutation_identical(self, reference_loops):
        matrix = laplacian(grid_2d(24, 24, jitter=0.3, seed=4))
        perm = compute_ordering(matrix, method="nested_dissection")
        reference_loops()
        expected = compute_ordering(matrix, method="nested_dissection")
        assert perm.tobytes() == expected.tobytes()


class TestRefinement:
    def test_gains_definition(self):
        g = path_graph(4)
        side = np.array([False, False, True, True])
        gains = bisection_gains(g, side)
        # moving node 1 or 2 just shifts the single cut edge: gain 0 at the
        # boundary, negative inside
        assert gains[1] == 0.0
        assert gains[2] == 0.0
        assert gains[0] < 0 and gains[3] < 0

    def test_refinement_improves_bad_cut(self):
        g = grid_2d(8, 8)
        rng = ensure_rng(4)
        side = rng.random(64) < 0.5  # random cut: terrible
        before = edge_cut(g, side.astype(np.int64))
        refined = refine_bisection(g, side, np.ones(64))
        after = edge_cut(g, refined.astype(np.int64))
        assert after < before

    def test_refinement_respects_balance(self):
        g = grid_2d(8, 8)
        side = np.zeros(64, dtype=bool)
        side[:32] = True
        refined = refine_bisection(g, side, np.ones(64), balance_tolerance=0.1)
        share = refined.sum() / 64
        assert 0.4 - 1e-9 <= share <= 0.6 + 1e-9


class TestKway:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_blocks_balanced(self, k):
        g = grid_2d(16, 16)
        labels = multilevel_kway(g, k, seed=5)
        quality = partition_quality(g, labels)
        assert quality.num_blocks == k
        assert quality.block_sizes.min() > 0
        assert quality.imbalance < 1.6

    def test_cut_beats_random(self):
        g = grid_2d(16, 16)
        smart = partition_graph(g, 4, method="multilevel", seed=6)
        random = partition_graph(g, 4, method="random", seed=6)
        assert edge_cut(g, smart) < 0.5 * edge_cut(g, random)

    def test_single_block(self):
        g = grid_2d(4, 4)
        labels = partition_graph(g, 1)
        assert np.all(labels == 0)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_more_blocks_than_nodes(self, k):
        """Regression: asking a tiny graph for many blocks used to recurse
        onto an empty node set and crash building a 0-node subgraph."""
        from repro.graphs.graph import Graph

        g = Graph.from_edges(2, [(0, 1)])
        labels = multilevel_kway(g, k, seed=0)
        assert labels.shape == (2,)
        assert labels.min() >= 0
        assert labels.max() < k

    def test_irregular_graph(self):
        g = barabasi_albert_graph(400, 3, seed=7)
        labels = multilevel_kway(g, 4, seed=8)
        sizes = np.bincount(labels, minlength=4)
        assert sizes.min() > 0

    def test_bisection_balances_node_weights(self):
        """Regression: coarsening used to start from unit masses, so a
        weighted bisection put all the mass on one side."""
        g = grid_2d(40, 40, seed=0)
        weights = np.ones(g.num_nodes)
        weights[:400] = 20.0
        side = multilevel_bisection(g, node_weights=weights, seed=0)
        share = weights[side].sum() / weights.sum()
        assert 0.4 <= share <= 0.6

    def test_bisection_target_fraction(self):
        g = grid_2d(12, 12)
        side = multilevel_bisection(g, target_fraction=0.25, seed=9)
        share = side.sum() / 144
        assert 0.1 < share < 0.45


class TestGeometric:
    def test_balanced_stripes(self):
        g = grid_2d(10, 10)
        coords = np.array([(r, c) for r in range(10) for c in range(10)], dtype=float)
        labels = partition_graph(g, 4, method="geometric", coords=coords)
        sizes = np.bincount(labels, minlength=4)
        assert sizes.max() - sizes.min() <= 1

    def test_requires_coords(self):
        g = grid_2d(4, 4)
        with pytest.raises(ValueError, match="coords"):
            partition_graph(g, 2, method="geometric")


class TestClassification:
    def test_roles_partition_nodes(self):
        g = grid_2d(8, 8)
        labels = partition_graph(g, 4, seed=10)
        ports = np.array([0, 10, 63])
        roles = classify_nodes(g, labels, ports)
        assert np.all(roles[ports] == int(NodeRole.PORT))
        crossing = labels[g.heads] != labels[g.tails]
        boundary = np.unique(np.concatenate([g.heads[crossing], g.tails[crossing]]))
        non_port_boundary = np.setdiff1d(boundary, ports)
        assert np.all(roles[non_port_boundary] == int(NodeRole.INTERFACE))

    def test_interior_nodes_have_no_crossing_edges(self):
        g = grid_2d(10, 10)
        labels = partition_graph(g, 5, seed=11)
        roles = classify_nodes(g, labels, np.array([0]))
        interior = np.flatnonzero(roles == int(NodeRole.INTERIOR))
        crossing = labels[g.heads] != labels[g.tails]
        touched = np.unique(np.concatenate([g.heads[crossing], g.tails[crossing]]))
        assert np.intersect1d(interior, touched).size == 0

    def test_unknown_method(self):
        g = grid_2d(4, 4)
        with pytest.raises(ValueError, match="unknown partition"):
            partition_graph(g, 2, method="zzz")
