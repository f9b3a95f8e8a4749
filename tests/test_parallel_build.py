"""Tests for the parallel engine-build pipeline (``build_workers``).

Covers the three layers the build knob threads through:

* the level-parallel blocked Alg. 2 kernel — parametrised bit-identity of
  parallel vs serial runs across mode, epsilon, complete/incomplete
  factors and worker counts (chunking is forced with a tiny chunk target
  so the parallel code path actually executes on test-sized graphs);
* the component-sharded engine — parallel shard builds at construction,
  bit-identical to serial ones, and a ``shard_build`` timer that reads
  wall-clock time;
* the surrounding plumbing — ``EngineConfig`` validation, persistence
  round-trip, ``refresh_after_edge_update(build_workers=...)`` and the
  CLI flag.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.core.approx_inverse as approx_inverse_module
from repro.cholesky.incomplete import ichol
from repro.cholesky.numeric import cholesky
from repro.core.approx_inverse import approximate_inverse
from repro.core.effective_resistance import CholInvEffectiveResistance
from repro.core.engine import EngineConfig, build_engine
from repro.core.partitioned import PartitionedEngine
from repro.graphs.generators import fe_mesh_2d, grid_2d
from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian
from repro.service import ResistanceService


@pytest.fixture
def force_chunking(monkeypatch):
    """Shrink the chunk target so test-sized levels split and fan out."""
    monkeypatch.setattr(approx_inverse_module, "_CHUNK_TARGET_NNZ", 64)


def _factor(kind: str):
    graph = fe_mesh_2d(12, 11, seed=3)
    matrix, _ = grounded_laplacian(graph, 1.0)
    if kind == "complete":
        return cholesky(matrix, ordering="amd").lower
    return ichol(matrix, drop_tol=1e-3, ordering="amd").lower


def _assert_same_csc(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


class TestParallelKernelBitIdentity:
    @pytest.mark.parametrize("kind", ["complete", "incomplete"])
    @pytest.mark.parametrize("mode", ["blocked", "reference"])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-3, 1e-1])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial(
        self, force_chunking, kind, mode, epsilon, workers
    ):
        lower = _factor(kind)
        serial, serial_stats = approximate_inverse(
            lower, epsilon=epsilon, mode=mode, build_workers=1
        )
        parallel, parallel_stats = approximate_inverse(
            lower, epsilon=epsilon, mode=mode, build_workers=workers
        )
        _assert_same_csc(serial, parallel)
        assert serial_stats.nnz == parallel_stats.nnz
        assert serial_stats.columns_truncated == parallel_stats.columns_truncated
        assert serial_stats.columns_kept_whole == parallel_stats.columns_kept_whole

    def test_chunked_serial_matches_unchunked_decisions(self, force_chunking):
        """Chunking may regroup the vectorised scans, but the truncation
        decisions must match the per-column reference kernel exactly."""
        lower = _factor("complete")
        chunked, _ = approximate_inverse(lower, epsilon=1e-3, build_workers=4)
        reference, _ = approximate_inverse(lower, epsilon=1e-3, mode="reference")
        assert np.array_equal(chunked.indices, reference.indices)
        assert np.allclose(chunked.data, reference.data, rtol=1e-12, atol=0.0)

    def test_default_chunk_target_also_bit_identical(self):
        """Without forced chunking small graphs run unchunked — worker
        counts must still be a no-op on the result."""
        lower = _factor("incomplete")
        serial, _ = approximate_inverse(lower, epsilon=1e-3, build_workers=1)
        parallel, _ = approximate_inverse(lower, epsilon=1e-3, build_workers=4)
        _assert_same_csc(serial, parallel)

    def test_invalid_workers_rejected(self):
        lower = _factor("complete")
        with pytest.raises(ValueError):
            approximate_inverse(lower, build_workers=0)


class TestEngineBuildWorkers:
    def test_cholinv_engine_bit_identical(self, force_chunking):
        graph = grid_2d(14, 14, jitter=0.3, seed=2)
        serial = CholInvEffectiveResistance(graph, build_workers=1)
        parallel = CholInvEffectiveResistance(graph, build_workers=3)
        _assert_same_csc(serial.z_tilde, parallel.z_tilde)
        pairs = np.column_stack([np.arange(0, 50), np.arange(50, 100)])
        assert np.array_equal(serial.query_pairs(pairs), parallel.query_pairs(pairs))

    def test_config_validates_workers(self):
        with pytest.raises(ValueError):
            EngineConfig(build_workers=0)

    def test_persistence_round_trips_build_workers(self, tmp_path, force_chunking):
        graph = grid_2d(10, 10, jitter=0.3, seed=4)
        engine = build_engine(graph, EngineConfig(build_workers=3))
        from repro.core.persistence import load_engine

        restored = load_engine(engine.save(tmp_path / "engine.npz"))
        assert restored.config.build_workers == 3
        assert restored.build_workers == 3
        _assert_same_csc(engine.z_tilde, restored.z_tilde)

    def test_refresh_accepts_build_workers(self):
        graph = grid_2d(7, 7, jitter=0.3, seed=5)
        service = ResistanceService(graph)
        before = service.query(0, 10)
        service.refresh_after_edge_update(
            edges=[(0, 10)], weights=[2.0], build_workers=2
        )
        assert service.config.build_workers == 2
        assert service.query(0, 10) < before  # extra conductance added
        with pytest.raises(ValueError):
            service.refresh_after_edge_update(edges=[(0, 1)], build_workers=0)
        assert service.config.build_workers == 2  # rejected call is a no-op

    def test_failed_refresh_does_not_adopt_build_workers(self, monkeypatch):
        """A refresh whose rebuild raises must not change how future
        refreshes build — the worker count is adopted with its engine."""
        graph = grid_2d(6, 6, jitter=0.3, seed=8)
        service = ResistanceService(graph)

        def exploding_build(graph, config):
            raise RuntimeError("injected build failure")

        # a refresh rebuilds through the served engine's ``rebuilt``
        monkeypatch.setattr(service.engine, "rebuilt", exploding_build)
        with pytest.raises(RuntimeError):
            service.refresh_after_edge_update(
                edges=[(0, 1)], weights=[1.0], build_workers=4
            )
        assert service.config.build_workers == 1
        monkeypatch.undo()
        service.refresh_after_edge_update(
            edges=[(0, 1)], weights=[1.0], build_workers=4
        )
        assert service.config.build_workers == 4


def _multi_component(components: int = 6, side: int = 7) -> Graph:
    return Graph.disjoint_union(
        [grid_2d(side, side, jitter=0.3, seed=s) for s in range(components)]
    )


def _probe_pairs(graph: Graph, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, graph.num_nodes, size=(256, 2))


class TestShardedParallelBuild:
    def test_eager_parallel_build_matches_serial(self):
        graph = _multi_component()
        config = EngineConfig(max_shard_nodes=graph.num_nodes)
        serial = PartitionedEngine(graph, config.replace(build_workers=1))
        parallel = PartitionedEngine(graph, config.replace(build_workers=4))
        assert parallel.num_shards == serial.num_shards == 6
        pairs = _probe_pairs(graph)
        assert np.array_equal(serial.query_pairs(pairs), parallel.query_pairs(pairs))
        for sub_s, sub_p in zip(serial._engines, parallel._engines):
            _assert_same_csc(sub_s.z_tilde, sub_p.z_tilde)

    def test_shard_build_timer_is_wall_clock(self):
        # the shard threads' build times overlap; the stage timer must
        # report the stage's elapsed time, not their sum
        graph = _multi_component(components=4, side=12)
        config = EngineConfig(build_workers=2, max_shard_nodes=graph.num_nodes)
        start = time.perf_counter()
        engine = PartitionedEngine(graph, config)
        wall = time.perf_counter() - start
        assert 0.0 < engine.timer["shard_build"] <= wall


class TestCLIBuildWorkers:
    def test_er_accepts_build_workers(self, tmp_path):
        from repro.cli import main

        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        main(["er", "--generator", "grid2d:6x6", "--output", str(serial)])
        code = main([
            "er", "--generator", "grid2d:6x6", "--build-workers", "2",
            "--output", str(parallel),
        ])
        assert code == 0
        assert serial.read_text() == parallel.read_text()

    def test_service_help_mentions_build_workers(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["service", "--help"])
        assert "--build-workers" in capsys.readouterr().out
