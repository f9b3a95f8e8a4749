"""Planner/executor serving path: partitioning, fan-out, validation, mmap.

The invariant everything here leans on: however a batch is partitioned
(trivial slices, cache hits, per-shard sub-batches, chunked sub-batches)
and wherever the sub-batches run (serial, thread pool), the answers are
bit-identical to one direct ``engine.query_pairs`` call.
"""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, build_engine, validate_node_ids
from repro.core.partitioned import PartitionedEngine
from repro.graphs.generators import grid_2d
from repro.graphs.graph import Graph
from repro.service import (
    QueryPlanner,
    ResistanceService,
    SerialExecutor,
    ThreadedExecutor,
    make_executor,
)


@pytest.fixture
def multi_component() -> Graph:
    """Four disjoint jittered grids (4 x 36 nodes)."""
    return Graph.disjoint_union(
        [grid_2d(6, 6, jitter=0.3, seed=s) for s in range(4)]
    )


@pytest.fixture
def mixed_pairs(multi_component) -> np.ndarray:
    rng = np.random.default_rng(3)
    n = multi_component.num_nodes
    pairs = np.column_stack([
        rng.integers(0, n, size=300),
        rng.integers(0, n, size=300),
    ])
    pairs[:5, 1] = pairs[:5, 0]  # guaranteed self pairs
    return pairs


class TestQueryPlanner:
    def test_structural_resolution(self, multi_component, mixed_pairs):
        engine = build_engine(
            multi_component, EngineConfig(max_shard_nodes=multi_component.num_nodes)
        )
        plan = QueryPlanner(engine).plan(mixed_pairs)
        labels = engine.component_labels
        lo, hi = mixed_pairs.min(axis=1), mixed_pairs.max(axis=1)
        expected_trivial = int(
            np.count_nonzero((lo == hi) | (labels[lo] != labels[hi]))
        )
        assert plan.trivial_rows == expected_trivial
        assert plan.num_queries == mixed_pairs.shape[0]
        # dedup: uniques cannot exceed rows, and repeats collapse
        assert plan.num_unique <= plan.num_queries

    def test_duplicates_collapse(self, multi_component):
        engine = build_engine(
            multi_component, EngineConfig(max_shard_nodes=multi_component.num_nodes)
        )
        pairs = [(0, 5), (5, 0), (0, 5), (1, 2)]
        plan = QueryPlanner(engine).plan(pairs)
        assert plan.num_unique == 2
        assert plan.num_misses == 2

    def test_subbatches_grouped_per_shard(self, multi_component, mixed_pairs):
        engine = build_engine(
            multi_component, EngineConfig(max_shard_nodes=multi_component.num_nodes)
        )
        plan = QueryPlanner(engine).plan(mixed_pairs)
        subbatches = plan.build_subbatches()
        shard_ids = [s.shard_id for s in subbatches]
        assert len(shard_ids) == len(set(shard_ids))  # one task per shard
        assert all(isinstance(s.shard_id, int) for s in subbatches)
        # local ids stay inside their shard
        sizes = engine.shard_sizes()
        for s in subbatches:
            assert s.pairs.max() < sizes[s.shard_id]
        assert sum(s.num_pairs for s in subbatches) == plan.num_misses

    def test_monolithic_engine_single_subbatch(self, weighted_mesh):
        engine = build_engine(weighted_mesh, EngineConfig())
        plan = QueryPlanner(engine).plan([(0, 5), (1, 7), (2, 9)])
        subbatches = plan.build_subbatches()
        assert len(subbatches) == 1
        assert subbatches[0].shard_id is None

    def test_cache_pass_resolves_and_counts_rows(self, weighted_mesh):
        engine = build_engine(weighted_mesh, EngineConfig())
        plan = QueryPlanner(engine).plan([(0, 5), (5, 0), (1, 7)])
        cache = {0 * engine.n + 5: 2.5}  # keyed by the packed code lo·n + hi
        hits = plan.resolve_from_cache(
            lambda codes: (
                np.isin(codes, list(cache)),
                np.array([cache.get(int(c), np.nan) for c in codes]),
            )
        )
        assert hits == 2  # both rows of the cached unique pair
        assert plan.num_misses == 1

    def test_gather_matches_direct_engine(self, multi_component, mixed_pairs):
        engine = build_engine(
            multi_component, EngineConfig(max_shard_nodes=multi_component.num_nodes)
        )
        plan = QueryPlanner(engine).plan(mixed_pairs)
        for subbatch in plan.build_subbatches():
            plan.scatter(subbatch, plan.execute_subbatch(subbatch))
        direct = engine.query_pairs(mixed_pairs)
        assert np.array_equal(plan.gather(), direct)


class TestExecutors:
    def test_make_executor(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        threaded = make_executor(3)
        assert isinstance(threaded, ThreadedExecutor)
        assert threaded.workers == 3
        threaded.shutdown()

    def test_map_preserves_order(self):
        with ThreadedExecutor(4) as executor:
            out = executor.map(lambda x: x * x, range(20))
        assert out == [x * x for x in range(20)]

    def test_map_propagates_exceptions(self):
        def boom(x):
            if x == 3:
                raise RuntimeError("task 3 failed")
            return x

        with ThreadedExecutor(2) as executor:
            with pytest.raises(RuntimeError, match="task 3"):
                executor.map(boom, range(6))

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(0)


class TestParallelService:
    def test_threaded_results_bit_identical(self, multi_component, mixed_pairs):
        engine = build_engine(
            multi_component, EngineConfig(max_shard_nodes=multi_component.num_nodes)
        )
        serial = ResistanceService.from_engine(engine)
        parallel = ResistanceService.from_engine(
            engine, executor=ThreadedExecutor(4)
        )
        a, report_a = serial.query_pairs_with_report(mixed_pairs)
        b, report_b = parallel.query_pairs_with_report(mixed_pairs)
        assert np.array_equal(a, b)
        assert report_b.executor == "threaded"
        assert report_a.unique_misses == report_b.unique_misses
        assert report_b.shards_touched >= 2

    def test_report_accounting(self, multi_component, mixed_pairs):
        service = ResistanceService(
            multi_component, config=EngineConfig(max_shard_nodes=multi_component.num_nodes)
        )
        _, cold = service.query_pairs_with_report(mixed_pairs)
        assert cold.num_queries == mixed_pairs.shape[0]
        assert cold.cache_hit_rows == 0
        assert cold.unique_misses > 0
        assert cold.trivial_rows > 0
        _, warm = service.query_pairs_with_report(mixed_pairs)
        assert warm.unique_misses == 0
        assert warm.cache_hit_rows == cold.num_queries - cold.trivial_rows
        assert service.stats.batches == 2

    def test_from_engine_requires_config(self, weighted_mesh):
        from repro.core.effective_resistance import CholInvEffectiveResistance

        bare = CholInvEffectiveResistance(weighted_mesh)
        with pytest.raises(ValueError, match="config"):
            ResistanceService.from_engine(bare)


class TestShardedSubBatchAPI:
    def test_query_shard_matches_query_pairs(self, multi_component):
        engine = PartitionedEngine(
            multi_component,
            EngineConfig(max_shard_nodes=multi_component.num_nodes),
        )
        pairs = np.array([(0, 5), (1, 7), (40, 41)])
        full = engine.query_pairs(pairs)
        ps, qs = pairs[:, 0], pairs[:, 1]
        rebuilt = np.full(3, np.inf)
        for shard_id, rows, local in engine.shard_subbatches(ps, qs):
            rebuilt[rows] = engine.query_shard(shard_id, local)
        assert np.array_equal(full, rebuilt)

    def test_subbatches_skip_trivial(self, two_components):
        engine = PartitionedEngine(
            two_components,
            EngineConfig(max_shard_nodes=two_components.num_nodes),
        )
        ps = np.array([0, 0, 3])
        qs = np.array([0, 4, 3])  # self, cross, self
        assert engine.shard_subbatches(ps, qs) == []

    def test_query_shard_validates_id(self, two_components):
        engine = PartitionedEngine(
            two_components,
            EngineConfig(max_shard_nodes=two_components.num_nodes),
        )
        with pytest.raises(ValueError, match="shard id"):
            engine.query_shard(99, [(0, 1)])


class TestBoundaryValidation:
    def test_query_pairs_names_bad_id(self, tiny_path):
        service = ResistanceService(tiny_path)
        with pytest.raises(ValueError, match=r"node id 99 .*5 nodes"):
            service.query_pairs([(0, 99)])

    def test_query_names_negative_id(self, tiny_path):
        service = ResistanceService(tiny_path)
        with pytest.raises(ValueError, match="node id -2"):
            service.query(1, -2)

    def test_validate_node_ids_accepts_valid(self):
        validate_node_ids([0, 4], 5)
        validate_node_ids(np.empty((0, 2), dtype=np.int64), 5)

    def test_engine_untouched_on_bad_request(self, tiny_path):
        service = ResistanceService(tiny_path)
        with pytest.raises(ValueError):
            service.query_pairs([(0, 1), (5, 2)])
        assert service.stats.queries == 0  # rejected before any accounting


class TestMmapPersistence:
    def test_mmap_load_bit_identical(self, weighted_mesh, tmp_path):
        from repro.core.persistence import load_engine

        engine = build_engine(weighted_mesh, EngineConfig())
        path = engine.save(tmp_path / "engine.npz")
        plain = load_engine(path)
        mapped = load_engine(path, mmap=True)
        pairs = weighted_mesh.edge_array()
        expected = engine.query_pairs(pairs)
        assert np.array_equal(plain.query_pairs(pairs), expected)
        assert np.array_equal(mapped.query_pairs(pairs), expected)

    def test_mmap_arrays_are_memory_mapped(self, weighted_mesh, tmp_path):
        from repro.core.persistence import load_engine

        path = build_engine(weighted_mesh, EngineConfig()).save(
            tmp_path / "engine.npz"
        )
        mapped = load_engine(path, mmap=True)
        assert isinstance(mapped._column_sq_norms, np.memmap)
        base = mapped.z_tilde.data
        while base.base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)
        assert not mapped.z_tilde.data.flags.writeable

    def test_service_from_saved_mmap(self, weighted_mesh, tmp_path):
        engine = build_engine(weighted_mesh, EngineConfig())
        path = engine.save(tmp_path / "engine.npz")
        cold = ResistanceService.from_saved(path)
        warm = ResistanceService.from_saved(path, mmap=True)
        assert warm.query(0, 7) == cold.query(0, 7) == pytest.approx(
            engine.query(0, 7)
        )
