"""Within-component separator sharding (repro.core.partitioned).

Covers the plan layer (structure, determinism, fold edge cases), the
Schur-complement cross-region query path (exactness against dense
reference answers on grids / power-law graphs / SBMs), concurrent queries
on a built engine and worker-count bit-identity of the build,
persistence round-trips (legacy and half-built archives, load-time
index checks), planner routing of mixed batches, and the
separator-aware partition diagnostics.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import repro.core.partitioned as partitioned_module
from repro.core.engine import EngineConfig, build_engine
from repro.core.partitioned import PartitionedEngine, separator_plan
from repro.core.persistence import load_engine
from repro.graphs.components import connected_components, largest_component
from repro.graphs.generators import (
    barabasi_albert_graph,
    grid_2d,
    path_graph,
    stochastic_block_model,
)
from repro.graphs.graph import Graph
from repro.partition.interface import (
    SeparatorQuality,
    classify_nodes,
    edge_cut,
    partition_quality,
    separator_quality,
)
from repro.service import ResistanceService
from repro.service.planner import QueryPlanner


def _sbm_component() -> Graph:
    graph = stochastic_block_model(
        [90, 90, 90], p_in=0.15, p_out=0.004, weight_low=0.5,
        weight_high=2.0, seed=7,
    )
    big, _ = largest_component(graph)
    return big


def _reference(graph: Graph):
    return build_engine(graph, EngineConfig(method="exact"))


def _probe_pairs(engine: PartitionedEngine, rng: np.random.Generator,
                 count: int = 400) -> np.ndarray:
    """Pairs biased to hit every routing class the plan produces."""
    n = engine.n
    pairs = [np.column_stack([rng.integers(0, n, count),
                              rng.integers(0, n, count)])]
    sep = engine.plan.separator
    if sep.size:
        # separator-separator and region-separator endpoints
        pairs.append(np.column_stack([rng.choice(sep, 50),
                                      rng.choice(sep, 50)]))
        pairs.append(np.column_stack([rng.choice(sep, 50),
                                      rng.integers(0, n, 50)]))
    return np.concatenate(pairs)


# ----------------------------------------------------------------------
# plan layer
# ----------------------------------------------------------------------
def _isolated_node() -> Graph:
    return Graph(1, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))


def _four_components() -> Graph:
    """A grid, a BA graph, a path and an isolated node (4 components)."""
    return Graph.disjoint_union([
        grid_2d(9, 9, jitter=0.3, seed=1),
        barabasi_albert_graph(120, 3, seed=2),
        path_graph(7),
        _isolated_node(),
    ])


class TestShardPlan:
    def test_cap_above_every_component_is_one_region_per_component(
        self, two_components
    ):
        plan = separator_plan(two_components, max_shard_nodes=6)
        labels, _ = connected_components(two_components)
        assert plan.num_shards == 2
        assert np.array_equal(plan.shard_of, labels)
        assert plan.separator.size == 0
        assert plan.split_components.size == 0
        plan.validate(two_components)

    def test_separator_plan_splits_large_component(self):
        graph = grid_2d(20, 20)
        plan = separator_plan(graph, max_shard_nodes=120)
        plan.validate(graph)
        assert plan.num_shards >= 2
        assert plan.separator.size > 0
        assert np.array_equal(plan.split_components, [0])
        # separator really separates: no edge joins two distinct regions
        shard = plan.shard_of
        heads, tails = graph.heads, graph.tails
        both_regions = (shard[heads] >= 0) & (shard[tails] >= 0)
        assert not np.any(both_regions & (shard[heads] != shard[tails]))
        # regions respect the cap
        sizes = np.bincount(shard[shard >= 0], minlength=plan.num_shards)
        assert sizes.max() <= 120

    def test_small_components_stay_whole(self, two_components):
        plan = separator_plan(two_components, max_shard_nodes=10)
        assert plan.num_shards == 2
        assert plan.separator.size == 0
        plan.validate(two_components)

    def test_plan_is_deterministic(self):
        graph = barabasi_albert_graph(400, 3, seed=5)
        a = separator_plan(graph, max_shard_nodes=100, seed=3)
        b = separator_plan(graph, max_shard_nodes=100, seed=3)
        assert np.array_equal(a.shard_of, b.shard_of)
        assert np.array_equal(a.separator, b.separator)

    def test_unsplittable_component_folds_to_one_region(self):
        # a 4-node star below any sensible cut: dissection cannot win,
        # so the component must fold back into one ordinary region with
        # no separator rather than producing empty regions
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        plan = separator_plan(star, max_shard_nodes=2)
        plan.validate(star)
        assert plan.separator.size == 0 or plan.num_shards >= 2
        sizes = np.bincount(
            plan.shard_of[plan.shard_of >= 0], minlength=plan.num_shards
        )
        assert sizes.min() > 0  # no empty regions, ever

    def test_tiny_path_never_crashes(self):
        for n in range(2, 9):
            graph = path_graph(n)
            plan = separator_plan(graph, max_shard_nodes=2)
            plan.validate(graph)

    def test_engine_plans_with_its_config_cap(self, small_grid):
        with pytest.raises(ValueError, match="max_shard_nodes"):
            PartitionedEngine(small_grid, EngineConfig(method="exact"))
        whole = PartitionedEngine(
            small_grid,
            EngineConfig(method="exact", max_shard_nodes=small_grid.num_nodes),
        )
        assert whole.num_shards == 1
        split = PartitionedEngine(
            small_grid, EngineConfig(method="exact", max_shard_nodes=20)
        )
        assert split.num_shards > 1
        assert np.array_equal(
            split.plan.shard_of,
            separator_plan(small_grid, max_shard_nodes=20).shard_of,
        )

    def test_bad_arguments_rejected(self, small_grid):
        with pytest.raises(ValueError, match="max_shard_nodes"):
            separator_plan(small_grid, max_shard_nodes=1)


# ----------------------------------------------------------------------
# exactness of the Schur cross-region path
# ----------------------------------------------------------------------
class TestExactness:
    @pytest.mark.parametrize("graph_name", ["grid", "powerlaw", "sbm"])
    def test_matches_dense_reference(self, graph_name):
        graph = {
            "grid": lambda: grid_2d(16, 16, jitter=0.4, seed=1),
            "powerlaw": lambda: barabasi_albert_graph(
                300, 3, weight_low=0.5, weight_high=2.0, seed=2
            ),
            "sbm": _sbm_component,
        }[graph_name]()
        engine = build_engine(
            graph,
            EngineConfig(
                method="exact", max_shard_nodes=max(40, graph.num_nodes // 5)
            ),
        )
        assert isinstance(engine, PartitionedEngine)
        assert engine.plan.separator.size > 0, "test must exercise the Schur path"
        rng = np.random.default_rng(0)
        pairs = _probe_pairs(engine, rng)
        expected = _reference(graph).query_pairs(pairs)
        np.testing.assert_allclose(
            engine.query_pairs(pairs), expected, rtol=1e-8, atol=1e-10
        )

    def test_multi_component_mix(self):
        # two split components + one small whole component + isolated node
        g1 = grid_2d(12, 12)
        g2 = barabasi_albert_graph(150, 3, seed=4)
        parts, offset = [], 0
        heads, tails, weights = [], [], []
        for g in (g1, g2, path_graph(5)):
            heads.append(g.heads + offset)
            tails.append(g.tails + offset)
            weights.append(g.weights)
            offset += g.num_nodes
        graph = Graph(
            offset + 1,  # plus one isolated node
            np.concatenate(heads), np.concatenate(tails),
            np.concatenate(weights),
        )
        engine = build_engine(
            graph,
            EngineConfig(method="exact", max_shard_nodes=60),
        )
        assert engine.plan.split_components.size >= 2
        rng = np.random.default_rng(3)
        pairs = _probe_pairs(engine, rng)
        got = engine.query_pairs(pairs)
        expected = _reference(graph).query_pairs(pairs)
        finite = np.isfinite(expected)
        np.testing.assert_allclose(
            got[finite], expected[finite], rtol=1e-8, atol=1e-10
        )
        assert np.array_equal(np.isfinite(got), finite)

    def test_cholinv_regions_within_error_bound(self):
        graph = grid_2d(20, 20, jitter=0.3, seed=6)
        epsilon = 1e-4
        sharded = build_engine(
            graph,
            EngineConfig(
                epsilon=epsilon, drop_tol=1e-6, max_shard_nodes=150,
            ),
        )
        monolithic = build_engine(
            graph, EngineConfig(epsilon=epsilon, drop_tol=1e-6)
        )
        exact = _reference(graph)
        rng = np.random.default_rng(1)
        pairs = _probe_pairs(sharded, rng)
        truth = exact.query_pairs(pairs)
        err_sharded = np.abs(sharded.query_pairs(pairs) - truth) / truth.clip(1e-12)
        err_mono = np.abs(monolithic.query_pairs(pairs) - truth) / truth.clip(1e-12)
        # region sharding must not degrade the configured accuracy: stay
        # within a small factor of the monolithic engine's achieved error
        # and well inside the coarse engineering bound
        assert err_sharded.max() <= max(10 * err_mono.max(), 10 * epsilon)
        assert err_sharded.max() < 0.01

    @pytest.mark.parametrize("method", ["cholinv", "exact"])
    def test_component_sharding_is_a_cap_no_component_exceeds(self, method):
        # per-component sharding is the cap at or above the largest
        # component: every such cap gives the same plan, and each region
        # answers byte for byte as an engine built on its component alone
        graph = _four_components()
        labels, count = connected_components(graph)
        largest = int(np.bincount(labels).max())
        rng = np.random.default_rng(8)
        pairs = rng.integers(0, graph.num_nodes, size=(600, 2))
        answers = []
        for cap in (largest, largest + 1, graph.num_nodes, 10**9):
            engine = build_engine(
                graph, EngineConfig(method=method, max_shard_nodes=cap)
            )
            assert isinstance(engine, PartitionedEngine)
            assert engine.num_shards == count == 4
            assert np.array_equal(engine.plan.shard_of, labels)
            assert engine.plan.separator.size == 0
            answers.append(engine.query_pairs(pairs))
        for other in answers[1:]:
            assert answers[0].tobytes() == other.tobytes()
        expected = np.full(len(pairs), np.inf)
        for comp in range(count - 1):  # the isolated node answers only 0
            members = np.flatnonzero(labels == comp)
            sub, _ = graph.subgraph(members)
            inside = np.isin(pairs[:, 0], members) & np.isin(pairs[:, 1], members)
            local = np.searchsorted(members, pairs[inside])
            expected[inside] = build_engine(
                sub, EngineConfig(method=method)
            ).query_pairs(local)
        expected[pairs[:, 0] == pairs[:, 1]] = 0.0
        assert answers[0].tobytes() == expected.tobytes()



# ----------------------------------------------------------------------
# concurrent queries and build workers
# ----------------------------------------------------------------------
class TestConcurrencyAndWorkers:
    def test_concurrent_cold_queries_agree(self):
        graph = barabasi_albert_graph(250, 3, seed=9)
        config = EngineConfig(method="exact", max_shard_nodes=60)
        engine = PartitionedEngine(graph, config)
        expected = build_engine(graph, config)
        rng = np.random.default_rng(11)
        batches = [_probe_pairs(engine, rng, count=80) for _ in range(8)]
        results = [None] * len(batches)
        errors = []

        def hammer(i: int) -> None:
            try:
                results[i] = engine.query_pairs(batches[i])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(len(batches))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for batch, got in zip(batches, results):
            assert np.array_equal(got, expected.query_pairs(batch))

    def test_build_workers_bit_identical(self):
        graph = grid_2d(16, 16, jitter=0.2, seed=3)
        config = EngineConfig(max_shard_nodes=80)
        rng = np.random.default_rng(2)
        baseline_engine = PartitionedEngine(graph, config)
        pairs = _probe_pairs(baseline_engine, rng)
        baseline = baseline_engine.query_pairs(pairs)
        for workers in (2, 4):
            engine = PartitionedEngine(
                graph, config.replace(build_workers=workers)
            )
            assert all(sub is not None for sub in engine._engines)
            assert engine.query_pairs(pairs).tobytes() == baseline.tobytes()


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
class TestPartitionedPersistence:
    def _engine(self) -> PartitionedEngine:
        graph = grid_2d(14, 14, jitter=0.3, seed=8)
        return PartitionedEngine(
            graph, EngineConfig(epsilon=1e-3, max_shard_nodes=70)
        )

    def test_round_trip_bit_identical(self, tmp_path, monkeypatch):
        engine = self._engine()
        path = engine.save(tmp_path / "partitioned.npz")

        def no_build(*args, **kwargs):
            raise AssertionError("a full archive loads without building")

        # every region and Schur system comes from the archive
        monkeypatch.setattr(partitioned_module, "build_engine", no_build)
        monkeypatch.setattr(PartitionedEngine, "_build_schur", no_build)
        restored = load_engine(path)
        monkeypatch.undo()
        assert isinstance(restored, PartitionedEngine)
        assert restored.config == engine.config
        assert restored.plan.separator.size > 0
        assert np.array_equal(restored.plan.shard_of, engine.plan.shard_of)
        rng = np.random.default_rng(4)
        pairs = _probe_pairs(engine, rng)
        assert np.array_equal(
            restored.query_pairs(pairs), engine.query_pairs(pairs)
        )

    def test_round_trip_mmap(self, tmp_path):
        engine = self._engine()
        path = engine.save(tmp_path / "partitioned.npz")
        restored = load_engine(path, mmap=True)
        rng = np.random.default_rng(4)
        pairs = _probe_pairs(engine, rng)
        assert np.array_equal(
            restored.query_pairs(pairs), engine.query_pairs(pairs)
        )

    @pytest.mark.parametrize(
        "member, value, message",
        [
            ("built_shards", [0, 1, 999], r"\[999\]"),
            ("built_shards", [-1, 0], r"\[-1\]"),
            ("built_shards", [0, 0], "repeats"),
            ("built_shards", [0, 4], r"\[4\], which is not a non-singleton"),
            ("system_components", [0, 1], r"\[1\], which is not a split"),
            ("system_components", [0, 5], r"\[5\], which is not a split"),
            ("system_components", [0, 0], "repeats"),
        ],
    )
    def test_saved_ids_checked_at_load(self, tmp_path, member, value, message):
        # a 20 x 20 grid split into 4 regions, plus an isolated node
        # (region 4, component 1)
        graph = Graph.disjoint_union([
            grid_2d(20, 20),
            _isolated_node(),
        ])
        engine = build_engine(graph, EngineConfig(max_shard_nodes=120))
        assert engine.num_shards == 5 and int(engine.plan.shard_of[-1]) == 4
        assert engine.plan.split_components.tolist() == [0]
        data = dict(np.load(engine.save(tmp_path / "fresh.npz")))
        data[member] = np.asarray(value, dtype=np.int64)
        damaged = tmp_path / "damaged.npz"
        np.savez(damaged, **data)
        for mmap in (False, True):
            with pytest.raises(ValueError, match=f"'{member}' .*{message}"):
                load_engine(damaged, mmap=mmap)

    def test_non_cholinv_regions_refuse(self, tmp_path):
        graph = grid_2d(10, 10)
        engine = build_engine(
            graph,
            EngineConfig(method="exact", max_shard_nodes=40),
        )
        with pytest.raises(NotImplementedError, match="persistence"):
            engine.save(tmp_path / "nope.npz")

    def test_v1_files_still_load(self, tmp_path):
        # a v1 archive has no "kind" member; the loader must default to
        # the monolithic cholinv layout
        graph = grid_2d(8, 8)
        engine = build_engine(graph, EngineConfig(epsilon=1e-3))
        path = engine.save(tmp_path / "v1.npz")
        data = dict(np.load(path, allow_pickle=False))
        data.pop("kind")
        data.pop("format_version")
        legacy = tmp_path / "legacy.npz"
        np.savez(legacy, format_version=np.asarray(1), **data)
        restored = load_engine(legacy)
        pairs = graph.edge_array()
        assert np.array_equal(
            restored.query_pairs(pairs), engine.query_pairs(pairs)
        )


def _as_legacy_archive(path, tmp_path, version: int, sharding: dict):
    """Rewrite a fresh archive in the v3 or v4 layout.

    ``sharding`` holds the old config's sharding fields
    (``shard_strategy``, ``max_shard_nodes``, ``separator``,
    ``lazy_shards``).  v3 also spelled the choice as a ``sharded`` flag,
    with ``shard_strategy="component"`` for an unsharded engine, and kept
    the region config as its own member; both versions stored the plan's
    strategy as ``plan_strategy``.
    """
    data = dict(np.load(path, allow_pickle=False))

    def legacy_json(config: EngineConfig, sharding: dict) -> np.ndarray:
        fields = config.to_dict()
        del fields["max_shard_nodes"]
        fields.update(sharding)
        if version <= 3:
            strategy = fields["shard_strategy"]
            fields["sharded"] = strategy != "none"
            if strategy == "none":
                fields["shard_strategy"] = "component"
        return np.asarray(json.dumps(fields))

    config = EngineConfig.from_dict(json.loads(str(data["config_json"])))
    data["config_json"] = legacy_json(config, sharding)
    if str(data["kind"]) == "partitioned":
        data["plan_strategy"] = np.asarray(sharding["shard_strategy"])
        if version <= 3:
            data["shard_config_json"] = legacy_json(
                config.replace(max_shard_nodes=None),
                dict(sharding, shard_strategy="none", lazy_shards=False),
            )
    if sharding["lazy_shards"]:
        _keep_half_built(data)
    data["format_version"] = np.int64(version)
    legacy = tmp_path / f"v{version}.npz"
    np.savez(legacy, **data)
    return legacy


def _keep_half_built(data: dict) -> None:
    """Trim a full partitioned archive to what a half-built lazy engine
    saved: the first built region only, and no Schur system."""
    built = data["built_shards"]
    assert built.size > 1
    for shard in built[1:].tolist():
        for name in [k for k in data if k.startswith(f"shard{shard}_")]:
            del data[name]
    data["built_shards"] = built[:1]
    for component in data["system_components"].tolist():
        del data[f"sys{component}_schur"]
    data["system_components"] = np.empty(0, dtype=np.int64)


def _built(engine: PartitionedEngine) -> "list[int]":
    return [s for s, sub in enumerate(engine._engines) if sub is not None]


def _legacy_sharding(strategy="none", cap=None, separator="bisection", lazy=False):
    return {
        "shard_strategy": strategy,
        "max_shard_nodes": cap,
        "separator": separator,
        "lazy_shards": lazy,
    }


def _legacy_case(kind: str):
    """(engine, its old sharding fields, the ``max_shard_nodes`` an old
    copy must load with)."""
    grid = grid_2d(14, 14, jitter=0.3, seed=8)
    if kind == "cholinv":
        graph = grid_2d(8, 8, jitter=0.3, seed=2)
        return build_engine(graph, EngineConfig(epsilon=1e-3)), _legacy_sharding(), None
    if kind == "landmark":
        graph = grid_2d(8, 8, jitter=0.3, seed=2)
        config = EngineConfig(method="landmark", num_landmarks=4, seed=0)
        return build_engine(graph, config), _legacy_sharding(), None
    if kind == "component":
        graph = Graph.disjoint_union(
            [grid_2d(6, 6, jitter=0.3, seed=3), grid_2d(5, 7, jitter=0.3, seed=4)]
        )
        engine = build_engine(graph, EngineConfig(epsilon=1e-3, max_shard_nodes=71))
        return engine, _legacy_sharding("component"), 71
    if kind == "separator-auto":
        # no stored cap: the old automatic max(512, ceil(n / 4))
        engine = build_engine(grid, EngineConfig(epsilon=1e-3, max_shard_nodes=70))
        return engine, _legacy_sharding("separator"), 512
    engine = PartitionedEngine(grid, EngineConfig(epsilon=1e-3, max_shard_nodes=70))
    if kind == "lazy":
        # _as_legacy_archive saves it half built
        return engine, _legacy_sharding("separator", 70, lazy=True), 70
    method = "kway" if kind == "separator-kway" else "bisection"
    return engine, _legacy_sharding("separator", 70, method), 70


LEGACY_KINDS = [
    "cholinv", "landmark", "component", "separator", "separator-kway",
    "separator-auto", "lazy",
]


class TestLegacyArchives:
    """v3 and v4 archives spelled the sharding choice as ``shard_strategy``
    (v3 also as ``sharded``), ``separator`` and ``lazy_shards``; they load
    onto the single ``max_shard_nodes`` and answer from the saved plan."""

    @pytest.mark.parametrize("version", [3, 4])
    @pytest.mark.parametrize("kind", LEGACY_KINDS)
    def test_archive_loads_with_its_cap(self, tmp_path, kind, version):
        engine, sharding, cap = _legacy_case(kind)
        graph = engine.graph
        legacy = _as_legacy_archive(
            engine.save(tmp_path / "fresh.npz"), tmp_path, version, sharding
        )
        for restored in (load_engine(legacy), load_engine(legacy, mmap=True)):
            assert type(restored) is type(engine)
            assert restored.config.max_shard_nodes == cap
            rng = np.random.default_rng(5)
            pairs = rng.integers(0, graph.num_nodes, size=(300, 2))
            assert (
                restored.query_pairs(pairs).tobytes()
                == engine.query_pairs(pairs).tobytes()
            )
            if isinstance(engine, PartitionedEngine):
                # the plan is the saved one, the region config is derived
                assert np.array_equal(restored.plan.shard_of, engine.plan.shard_of)
                assert restored._shard_config == engine._shard_config
                assert restored._shard_config.max_shard_nodes is None
                # every non-singleton region is built, saved or not
                assert _built(restored) == _built(engine)

    def test_half_built_archive_builds_the_rest_at_load(self, tmp_path):
        # a split grid, a small whole component and an isolated node
        graph = Graph.disjoint_union([
            grid_2d(14, 14, jitter=0.3, seed=8),
            path_graph(6),
            _isolated_node(),
        ])
        engine = build_engine(
            graph, EngineConfig(epsilon=1e-3, max_shard_nodes=70)
        )
        assert engine.plan.split_components.size == 1
        singleton = int(engine.plan.shard_of[-1])
        assert _built(engine) == [
            s for s in range(engine.num_shards) if s != singleton
        ]
        legacy = _as_legacy_archive(
            engine.save(tmp_path / "fresh.npz"), tmp_path, 4,
            _legacy_sharding("separator", 70, lazy=True),
        )
        with np.load(legacy) as data:
            assert data["built_shards"].tolist() == [0]
            assert data["system_components"].size == 0
            assert "shard1_z_data" not in data
        rng = np.random.default_rng(12)
        pairs = _probe_pairs(engine, rng)
        expected = engine.query_pairs(pairs)
        for restored in (load_engine(legacy), load_engine(legacy, mmap=True)):
            assert _built(restored) == _built(engine)
            assert sorted(restored._systems) == sorted(engine._systems)
            assert restored.query_pairs(pairs).tobytes() == expected.tobytes()

    def test_kway_archive_refresh_replans_with_bisection(self, tmp_path):
        engine, sharding, cap = _legacy_case("separator-kway")
        legacy = _as_legacy_archive(
            engine.save(tmp_path / "fresh.npz"), tmp_path, 4, sharding
        )
        service = ResistanceService.from_saved(legacy)
        graph = engine.graph
        edited = graph.with_weights(graph.weights * 1.5)
        service.refresh_after_edge_update(edited)
        cold = build_engine(edited, EngineConfig(epsilon=1e-3, max_shard_nodes=cap))
        assert np.array_equal(service.engine.plan.shard_of, cold.plan.shard_of)
        pairs = edited.edge_array()
        assert np.array_equal(service.query_pairs(pairs), cold.query_pairs(pairs))

    def test_v3_cholinv_archive_still_refreshes_on_its_ordering(self, tmp_path):
        engine, sharding, _ = _legacy_case("cholinv")
        graph = engine.graph
        legacy = _as_legacy_archive(
            engine.save(tmp_path / "fresh.npz"), tmp_path, 3, sharding
        )
        service = ResistanceService.from_saved(legacy)
        edited = graph.with_weights(graph.weights * 1.5)
        stats = service.refresh_after_edge_update(edited)
        assert stats.reused_ordering
        cold = build_engine(edited, engine.config)
        pairs = edited.edge_array()
        assert np.array_equal(service.query_pairs(pairs), cold.query_pairs(pairs))

    def test_unknown_legacy_strategy_is_refused(self, tmp_path):
        engine, _, _ = _legacy_case("cholinv")
        legacy = _as_legacy_archive(
            engine.save(tmp_path / "fresh.npz"), tmp_path, 4,
            _legacy_sharding("magic"),
        )
        with pytest.raises(ValueError, match="shard_strategy 'magic'"):
            load_engine(legacy)

    def test_current_archives_carry_no_strategy(self, tmp_path):
        engine, _, _ = _legacy_case("separator")
        with np.load(engine.save(tmp_path / "fresh.npz")) as data:
            assert int(data["format_version"]) == 5
            assert "shard_config_json" not in data
            assert "plan_strategy" not in data
            config = json.loads(str(data["config_json"]))
        assert config["max_shard_nodes"] == 70
        assert not {"shard_strategy", "separator", "lazy_shards"} & set(config)


# ----------------------------------------------------------------------
# planner / service routing
# ----------------------------------------------------------------------
class TestPlannerRouting:
    def test_mixed_batch_routes_and_gathers(self):
        graph = grid_2d(14, 14, jitter=0.2, seed=1)
        engine = build_engine(
            graph,
            EngineConfig(method="exact", max_shard_nodes=70),
        )
        rng = np.random.default_rng(7)
        pairs = _probe_pairs(engine, rng)
        pairs = np.concatenate([pairs, [[3, 3], [5, 5]]])  # self pairs
        plan = QueryPlanner(engine).plan(pairs)
        subbatches = plan.build_subbatches()
        shard_ids = {sb.shard_id for sb in subbatches}
        assert any(s < engine.num_shards for s in shard_ids)
        assert any(s >= engine.num_shards for s in shard_ids), \
            "mixed batch must produce a cross-region pseudo group"
        for sb in subbatches:
            plan.scatter(sb, plan.execute_subbatch(sb))
        np.testing.assert_allclose(
            plan.gather(), engine.query_pairs(pairs), rtol=1e-12
        )

    def test_pseudo_groups_use_global_ids(self):
        graph = grid_2d(10, 10)
        engine = build_engine(
            graph,
            EngineConfig(method="exact", max_shard_nodes=40),
        )
        sep = engine.plan.separator
        ps = np.array([int(sep[0])])
        qs = np.array([int(sep[-1])])
        groups = engine.shard_subbatches(ps, qs)
        assert len(groups) == 1
        shard_id, _, grouped = groups[0]
        assert shard_id >= engine.num_shards
        assert np.array_equal(grouped, np.column_stack([ps, qs]))


# ----------------------------------------------------------------------
# diagnostics / interface fixes
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_negative_labels_are_interface_and_uncut(self, small_grid):
        plan = separator_plan(small_grid, max_shard_nodes=20)
        labels = plan.shard_of
        roles = classify_nodes(small_grid, labels, ports=np.empty(0, np.int64))
        assert np.all(roles[labels < 0] == 1)  # INTERFACE
        # separator-touching edges are not block-to-block cut edges
        cut = edge_cut(small_grid, labels)
        heads, tails = small_grid.heads, small_grid.tails
        pure = (labels[heads] >= 0) & (labels[tails] >= 0)
        expected = small_grid.weights[
            pure & (labels[heads] != labels[tails])
        ].sum()
        assert cut == pytest.approx(float(expected))

    def test_partition_quality_ignores_separator(self, small_grid):
        plan = separator_plan(small_grid, max_shard_nodes=20)
        quality = partition_quality(small_grid, plan.shard_of)
        assert quality.block_sizes.sum() + plan.separator.size == small_grid.num_nodes
        assert quality.imbalance >= 1.0

    def test_separator_only_labelling_does_not_crash(self, tiny_path):
        labels = np.full(tiny_path.num_nodes, -1, dtype=np.int64)
        quality = partition_quality(tiny_path, labels)
        assert quality.block_sizes.sum() == 0
        assert quality.imbalance == 1.0
        assert edge_cut(tiny_path, labels) == 0.0

    def test_separator_quality_values(self):
        # 2 regions of 2 joined through one separator node 4:
        # 0-1  2-3 regions, edges (1,4,w=2) and (2,4,w=3) couple them
        graph = Graph(
            5,
            np.array([0, 2, 1, 2]),
            np.array([1, 3, 4, 4]),
            np.array([1.0, 1.0, 2.0, 3.0]),
        )
        labels = np.array([0, 0, 1, 1, -1])
        reports = separator_quality(graph, labels)
        assert len(reports) == 1
        sq = reports[0]
        assert isinstance(sq, SeparatorQuality)
        assert sq.num_regions == 2
        assert sq.separator_size == 1
        assert sq.region_sizes.tolist() == [2, 2]
        assert sq.separator_fraction == pytest.approx(0.2)
        assert sq.coupling_weight == pytest.approx(5.0)
        assert sq.imbalance == pytest.approx(1.0)

    def test_partition_report_contents(self):
        graph = grid_2d(12, 12)
        engine = build_engine(
            graph,
            EngineConfig(method="exact", max_shard_nodes=50),
        )
        report = engine.partition_report()
        assert report["max_shard_nodes"] == 50
        assert report["num_shards"] == engine.num_shards
        assert report["separator_size"] == engine.plan.separator.size
        assert report["split_components"] == [0]
        assert len(report["separators"]) == 1
        assert report["partition"].block_sizes.sum() == (
            graph.num_nodes - engine.plan.separator.size
        )
