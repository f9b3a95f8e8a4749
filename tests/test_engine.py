"""Engine protocol, registry, sharding and persistence tests.

The conformance suite runs the same structural checks over *every*
registered engine (plus sharded composites): engines added later inherit
the whole battery by registering and adding one config below.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.effective_resistance import (
    CholInvEffectiveResistance,
    ExactEffectiveResistance,
    effective_resistances,
)
from repro.core.engine import (
    EngineConfig,
    ResistanceEngine,
    as_pair_array,
    build_engine,
    build_engines,
    registered_engines,
)
from repro.core.approx_inverse import approximate_inverse
from repro.core.partitioned import PartitionedEngine
from repro.core.persistence import load_engine, save_engine
from repro.graphs.generators import (
    barabasi_albert_graph,
    fe_mesh_2d,
    grid_2d,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.service import ResistanceService

# Conformance configurations: one per registered engine, plus sharded
# composites.  random_projection gets enough projections to keep its
# structural answers stable on tiny graphs; the landmark tier gets a seed
# (determinism) and a landmark count sized for the tiny fixture.  The
# sharded composites cap shards at the fixture's 10 nodes, which no
# component exceeds: one shard per component.  The RESTORED ones are
# saved and memory-mapped back with load_engine, so the battery also
# runs on the persistence restore path.
CONFIGS = {
    "cholinv": EngineConfig(),
    "exact": EngineConfig(method="exact"),
    "naive": EngineConfig(method="naive"),
    "random_projection": EngineConfig(
        method="random_projection", num_projections=64, solver="splu", seed=0
    ),
    "landmark": EngineConfig(method="landmark", num_landmarks=4, seed=0),
    "sharded-cholinv": EngineConfig(max_shard_nodes=10),
    "sharded-cholinv-restored": EngineConfig(max_shard_nodes=10),
    "sharded-exact": EngineConfig(method="exact", max_shard_nodes=10),
}
RESTORED = {"sharded-cholinv-restored"}


@pytest.fixture
def multi_component() -> Graph:
    """Three triangles + a trailing isolated node (4 components, 10 nodes)."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
             (6, 7), (7, 8), (8, 6)]
    return Graph.from_edges(10, edges)


def test_every_registered_engine_has_a_conformance_config():
    covered = {cfg.method for cfg in CONFIGS.values()}
    assert set(registered_engines()) == covered


@pytest.fixture(params=sorted(CONFIGS), name="engine")
def engine_fixture(request, multi_component, tmp_path) -> ResistanceEngine:
    engine = build_engine(multi_component, CONFIGS[request.param])
    if request.param in RESTORED:
        engine = load_engine(engine.save(tmp_path / "engine.npz"), mmap=True)
    return engine


class TestProtocolConformance:
    def test_protocol_surface(self, engine, multi_component, request):
        assert isinstance(engine, ResistanceEngine)
        assert engine.n == multi_component.num_nodes
        assert engine.component_labels.shape == (multi_component.num_nodes,)
        assert hasattr(engine.timer, "section")
        if request.node.callspec.params["engine"] in RESTORED:
            # a loaded engine serves the archive's copy of the graph
            assert np.array_equal(
                engine.graph.edge_array(), multi_component.edge_array()
            )
            assert np.array_equal(engine.graph.weights, multi_component.weights)
        else:
            assert engine.graph is multi_component
        assert engine.config is not None

    def test_empty_batch(self, engine):
        out = engine.query_pairs([])
        assert out.shape == (0,)
        assert out.dtype == np.float64
        assert engine.query_pairs(np.empty((0, 2), dtype=np.int64)).shape == (0,)

    def test_query_symmetry(self, engine):
        assert engine.query(0, 2) == pytest.approx(engine.query(2, 0))

    def test_zero_diagonal(self, engine):
        assert np.array_equal(engine.query_pairs([(1, 1), (9, 9)]), [0.0, 0.0])

    def test_inf_across_components(self, engine):
        values = engine.query_pairs([(0, 3), (2, 6), (0, 9)])
        assert np.all(np.isinf(values))

    def test_scalar_query_matches_batch(self, engine):
        # bit for bit, on every ordered pair: same component, across
        # components and p == q
        for p in range(engine.n):
            for q in range(engine.n):
                single = engine.query_pairs([(p, q)])[0]
                assert engine.query(p, q) == single, (p, q)

    def test_all_edge_resistances(self, engine, multi_component):
        values = engine.all_edge_resistances()
        assert values.shape == (multi_component.num_edges,)
        assert np.all(np.isfinite(values)) and np.all(values > 0)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"cholinv", "exact", "random_projection", "naive"} <= set(
            registered_engines()
        )

    def test_build_engine_returns_registered_classes(self, multi_component):
        assert isinstance(
            build_engine(multi_component, EngineConfig(method="exact")),
            ExactEffectiveResistance,
        )
        assert isinstance(
            build_engine(multi_component, EngineConfig(max_shard_nodes=10)),
            PartitionedEngine,
        )

    def test_unknown_method_raises(self, multi_component):
        with pytest.raises(ValueError, match="unknown method"):
            build_engine(multi_component, EngineConfig(method="bogus"))

    def test_unknown_kwarg_raises(self):
        # tiers / tier_rel_tol are gone (the service's SLA router is the
        # one tier ladder), and so are the knobs of the deleted walk and
        # sampled-tree tiers
        for name in (
            "dropp_tol", "tiers", "tier_rel_tol",
            "num_walks", "walk_length", "num_trees",
        ):
            with pytest.raises(TypeError, match=name):
                EngineConfig(**{name: 1e-3})
        with pytest.raises(TypeError, match="dropp_tol"):
            EngineConfig().replace(dropp_tol=1e-3)

    @pytest.mark.parametrize("field", ["epsilon", "drop_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_tolerance_rejected(self, field, value):
        # a NaN or infinite tolerance used to build an engine that answered
        # silently wrong resistances (diagonals of Z̃ dropped)
        with pytest.raises(ValueError, match=f"{field} must be a finite number >= 0, got {value}"):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field, out_of_range in (
                ("rtol", -1.0),
                ("pcg_rtol", 0.0),
                ("c_jl", -5.0),
                ("ground_value", 0.0),
                ("small_column_threshold", -1.0),
                ("num_projections", 0),
            )
            for value in (float("nan"), float("inf"), out_of_range)
        ],
    )
    def test_numeric_field_rejected_naming_field_and_value(self, field, value):
        # these used to build engines that answered 0.0 (naive rtol=nan,
        # random projection with pcg_rtol=nan or num_projections=0) or failed
        # deep inside the build with an unrelated message
        with pytest.raises(ValueError, match=rf"{field} must .*got {value!r}"):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"ordering": "bogus"}, "ordering"),
            ({"ordering": "mindeg"}, "ordering"),
            ({"mode": "bogus"}, "mode"),
            ({"method": "random_projection", "solver": "bogus"}, "solver"),
            ({"landmark_strategy": "bogus"}, "landmark_strategy"),
        ],
    )
    def test_unknown_name_rejected_listing_the_allowed_ones(self, overrides, field):
        # ordering, mode and solver used to fail only inside build_engine,
        # e.g. after PGReducer had already partitioned the grid
        value = overrides[field]
        with pytest.raises(ValueError) as info:
            EngineConfig(**overrides)
        message = str(info.value)
        assert message.startswith(f"{field} must be one of ")
        assert message.endswith(f"got {value!r}")
        assert repr(getattr(EngineConfig(), field)) in message

    def test_numeric_field_boundaries_accepted(self, multi_component):
        config = EngineConfig(
            method="random_projection",
            num_projections=1,
            ground_value=1e-9,
            small_column_threshold=0.0,
            seed=0,
        )
        assert np.all(np.isfinite(build_engine(multi_component, config).query_pairs([[0, 1]])))

    def test_max_shard_nodes_is_the_one_sharding_knob(self):
        assert EngineConfig().max_shard_nodes is None
        names = {f.name for f in dataclasses.fields(EngineConfig)}
        assert len(names) == 17
        assert {name for name in names if "shard" in name or "separator" in name} == {
            "max_shard_nodes"
        }
        for removed in ("shard_strategy", "separator", "lazy_shards"):
            with pytest.raises(TypeError, match=removed):
                EngineConfig(**{removed: None})

    @pytest.mark.parametrize(
        "value", [float("inf"), float("nan"), 2.5, 2.0, 1, 0, -4, True, "8"]
    )
    def test_max_shard_nodes_must_be_an_integer_of_at_least_two(self, value):
        # the planner needs an integer cap: inf would overflow deep in the
        # build and 2.5 would be floored without a word
        with pytest.raises(
            ValueError, match=rf"max_shard_nodes must be None or an integer >= 2, got {value!r}"
        ):
            EngineConfig(max_shard_nodes=value)

    def test_smallest_max_shard_nodes_builds(self, multi_component):
        engine = build_engine(multi_component, EngineConfig(method="exact", max_shard_nodes=2))
        assert isinstance(engine, PartitionedEngine)
        whole = build_engine(multi_component, EngineConfig(method="exact"))
        pairs = [(0, 1), (0, 2), (3, 5), (0, 3), (9, 9)]
        np.testing.assert_allclose(engine.query_pairs(pairs), whole.query_pairs(pairs))

    def test_config_plus_kwargs_rejected(self, multi_component):
        # EngineConfig is the only way to pick and tune an engine
        with pytest.raises(TypeError):
            build_engine(multi_component, EngineConfig(), epsilon=1e-2)
        with pytest.raises(TypeError, match="EngineConfig"):
            build_engine(multi_component, "exact")

    def test_config_plus_conflicting_method_rejected(self, multi_component):
        # the method comes from the config alone; a stray method= keyword
        # fails loudly instead of silently picking another engine
        with pytest.raises(TypeError, match="method"):
            effective_resistances(
                multi_component, [(0, 1)], method="exact", config=EngineConfig()
            )
        with pytest.raises(TypeError, match="method"):
            ResistanceService(
                multi_component, method="naive", config=EngineConfig(method="exact")
            )

    def test_dispatcher_configs_agree(self, multi_component):
        a = effective_resistances(
            multi_component, [(0, 1)], EngineConfig(method="exact")
        )
        b = effective_resistances(
            multi_component, [(0, 1)],
            config=EngineConfig(epsilon=0.0, drop_tol=0.0),
        )
        c = build_engine(
            multi_component, EngineConfig(method="exact")
        ).query_pairs([(0, 1)])
        assert a == pytest.approx(b) and np.array_equal(a, c)

    def test_config_round_trips_through_dict(self):
        config = EngineConfig(method="exact", epsilon=0.5, max_shard_nodes=64)
        assert EngineConfig.from_dict(config.to_dict()) == config
        # unknown keys (newer versions) are ignored
        assert EngineConfig.from_dict({"method": "exact", "future_knob": 1})

    def test_as_pair_array_shapes(self):
        assert as_pair_array([]).shape == (0, 2)
        assert as_pair_array((3, 4)).shape == (1, 2)
        with pytest.raises(ValueError, match="pairs must be"):
            as_pair_array(np.zeros((2, 3)))


class TestShardedEngine:
    def test_matches_unsharded_exact(self, multi_component):
        rng = np.random.default_rng(0)
        pairs = np.column_stack([rng.integers(0, 10, 200), rng.integers(0, 10, 200)])
        whole = build_engine(multi_component, EngineConfig(method="exact"))
        sharded = build_engine(
            multi_component, EngineConfig(method="exact", max_shard_nodes=10)
        )
        a, b = whole.query_pairs(pairs), sharded.query_pairs(pairs)
        finite = np.isfinite(a)
        assert np.array_equal(finite, np.isfinite(b))
        assert np.allclose(a[finite], b[finite], rtol=1e-8)

    def test_cholinv_sharded_accuracy(self):
        # two disjoint meshes glued into one graph: shards factor smaller
        left = fe_mesh_2d(6, 7, seed=1)
        right = fe_mesh_2d(5, 6, seed=2)
        n = left.num_nodes + right.num_nodes
        graph = Graph(
            n,
            np.concatenate([left.heads, right.heads + left.num_nodes]),
            np.concatenate([left.tails, right.tails + left.num_nodes]),
            np.concatenate([left.weights, right.weights]),
        )
        rng = np.random.default_rng(3)
        pairs = np.column_stack([rng.integers(0, n, 300), rng.integers(0, n, 300)])
        truth = build_engine(graph, EngineConfig(method="exact")).query_pairs(pairs)
        sharded = build_engine(
            graph, EngineConfig(max_shard_nodes=n)
        ).query_pairs(pairs)
        finite = np.isfinite(truth) & (truth > 0)
        assert np.array_equal(np.isfinite(truth), np.isfinite(sharded))
        rel = np.abs(sharded[finite] - truth[finite]) / truth[finite]
        assert rel.max() < 2e-2

    def test_singleton_components_never_build(self, multi_component):
        engine = build_engine(
            multi_component, EngineConfig(method="exact", max_shard_nodes=10)
        )
        assert engine.num_shards == 4
        singleton = int(engine.plan.shard_of[9])
        # the isolated node builds nothing
        assert [s for s, e in enumerate(engine._engines) if e is None] == [singleton]
        assert engine.query(9, 9) == 0.0
        # its one local pair answers 0 without building an engine
        assert np.array_equal(engine.query_shard(singleton, [(0, 0)]), [0.0])
        assert engine._engines[singleton] is None

    def test_shard_sizes(self, multi_component):
        engine = PartitionedEngine(
            multi_component, EngineConfig(method="exact", max_shard_nodes=10)
        )
        assert sorted(engine.shard_sizes().tolist()) == [1, 3, 3, 3]

    def test_many_shards_one_pair_each(self):
        # 60 disjoint 2-paths: the batch grouping must touch each shard
        # exactly once, not rescan the batch per shard
        k = 60
        edges = [(3 * i + a, 3 * i + a + 1) for i in range(k) for a in (0, 1)]
        graph = Graph.from_edges(3 * k, edges)
        engine = build_engine(
            graph, EngineConfig(method="exact", max_shard_nodes=3)
        )
        assert engine.num_shards == k
        pairs = [(3 * i, 3 * i + 2) for i in range(k)] + [(0, 4)]
        values = engine.query_pairs(pairs)
        assert np.allclose(values[:k], 2.0)  # two unit resistors in series
        assert np.isinf(values[k])


class TestPersistence:
    def test_save_load_bit_identical(self, tmp_path, multi_component):
        engine = build_engine(multi_component, EngineConfig(epsilon=1e-3))
        path = engine.save(tmp_path / "engine.npz")
        restored = load_engine(path)
        rng = np.random.default_rng(1)
        pairs = np.column_stack([rng.integers(0, 10, 300), rng.integers(0, 10, 300)])
        assert np.array_equal(
            engine.query_pairs(pairs), restored.query_pairs(pairs)
        )
        assert isinstance(restored, CholInvEffectiveResistance)
        assert restored.config.epsilon == engine.epsilon
        assert restored.stats.nnz == engine.stats.nnz

    def test_save_appends_npz_suffix(self, tmp_path, weighted_mesh):
        engine = build_engine(weighted_mesh, EngineConfig())
        path = engine.save(tmp_path / "engine.bin")
        assert path.name == "engine.bin.npz"
        assert load_engine(tmp_path / "engine.bin").n == weighted_mesh.num_nodes

    def test_non_cholinv_engines_refuse(self, tmp_path, weighted_mesh):
        engine = build_engine(weighted_mesh, EngineConfig(method="exact"))
        with pytest.raises(NotImplementedError, match="persistence"):
            engine.save(tmp_path / "nope.npz")
        with pytest.raises(NotImplementedError, match="persistence"):
            save_engine(engine, tmp_path / "nope.npz")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no saved engine"):
            load_engine(tmp_path / "absent.npz")

    def test_loaded_engine_has_no_depths(self, tmp_path, weighted_mesh):
        engine = build_engine(weighted_mesh, EngineConfig())
        restored = load_engine(engine.save(tmp_path / "e.npz"))
        with pytest.raises(ValueError, match="depth"):
            _ = restored.depths

    def test_service_from_saved(self, tmp_path, weighted_mesh):
        original = ResistanceService(
            weighted_mesh, config=EngineConfig(epsilon=1e-4, drop_tol=1e-4)
        )
        path = original.engine.save(tmp_path / "svc.npz")
        warm = ResistanceService.from_saved(path)
        pairs = [(0, 7), (1, 9)]
        assert np.array_equal(
            original.query_pairs(pairs), warm.query_pairs(pairs)
        )
        assert warm.config.method == "cholinv"
        assert warm.config.epsilon == 1e-4
        # refresh rebuilds with the saved configuration (corner-to-corner
        # edge is new, so it survives coalescing)
        far = weighted_mesh.num_nodes - 1
        stats = warm.refresh_after_edge_update(edges=[(0, far)], weights=[1.0])
        assert stats.num_edges == weighted_mesh.num_edges + 1
        assert np.isfinite(warm.query(0, 7))

    def test_warm_refresh_regrounds_like_cold(self, tmp_path, weighted_mesh):
        """A default (ground_value=None) config must stay None through
        save/load, so refreshing a warm-started service recomputes the
        grounding from the *new* graph exactly like a cold service."""
        cold = ResistanceService(weighted_mesh)
        warm = ResistanceService.from_saved(
            cold.engine.save(tmp_path / "ground.npz")
        )
        assert warm.config.ground_value is None
        far = weighted_mesh.num_nodes - 1
        heavy = [(0, far)], [100.0]  # shifts the mean edge weight a lot
        cold.refresh_after_edge_update(edges=heavy[0], weights=heavy[1])
        warm.refresh_after_edge_update(edges=heavy[0], weights=heavy[1])
        pairs = [(0, 7), (1, far)]
        assert np.array_equal(
            cold.engine.query_pairs(pairs), warm.engine.query_pairs(pairs)
        )
        assert warm.engine.ground_value == cold.engine.ground_value


class TestServiceEngineIntegration:
    def test_service_accepts_config(self, weighted_mesh):
        service = ResistanceService(
            weighted_mesh, config=EngineConfig(method="exact")
        )
        assert service.config.method == "exact"
        assert np.isfinite(service.query(0, 5))

    def test_service_serves_sharded_engine(self, multi_component):
        service = ResistanceService(
            multi_component,
            config=EngineConfig(method="exact", max_shard_nodes=10),
        )
        assert np.isinf(service.query(0, 3))
        assert service.query(0, 1) == pytest.approx(2.0 / 3.0)

    def test_service_empty_batch(self, weighted_mesh):
        service = ResistanceService(weighted_mesh)
        assert service.query_pairs([]).shape == (0,)

    def test_service_config_plus_kwargs_rejected(self, weighted_mesh):
        with pytest.raises(TypeError, match="epsilon"):
            ResistanceService(
                weighted_mesh, config=EngineConfig(), epsilon=1e-2
            )

    def test_refresh_weights_length_mismatch(self, weighted_mesh):
        service = ResistanceService(
            weighted_mesh, config=EngineConfig(method="exact")
        )
        with pytest.raises(ValueError, match="weights length"):
            service.refresh_after_edge_update(
                edges=[(0, 1), (1, 2)], weights=[1.0]
            )


def mixed_graphs() -> "list[Graph]":
    """n = 148 and n = 149 (whose log n round to different keep-whole
    thresholds: 4.997 and 5.004), a disconnected graph and a star."""
    return [
        barabasi_albert_graph(148, 3, seed=1),
        barabasi_albert_graph(149, 3, seed=2),
        Graph.disjoint_union([grid_2d(6, 6, jitter=0.3, seed=3), path_graph(9)]),
        star_graph(40),
    ]


def assert_same_cholinv_engine(shared, alone) -> None:
    for part in ("indptr", "indices", "data"):
        ours, theirs = getattr(shared.z_tilde, part), getattr(alone.z_tilde, part)
        assert ours.dtype == theirs.dtype, part
        assert ours.tobytes() == theirs.tobytes(), part
    assert shared.perm.tobytes() == alone.perm.tobytes()
    assert shared._column_sq_norms.tobytes() == alone._column_sq_norms.tobytes()
    assert shared.stats == alone.stats
    assert shared.all_edge_resistances().tobytes() == alone.all_edge_resistances().tobytes()
    assert shared.config == alone.config


class TestBuildEngines:
    """``build_engines(graphs, config)`` is ``[build_engine(g, config) for g
    in graphs]`` byte for byte; unsharded Alg. 3 runs one Alg. 2 sweep."""

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(),
            EngineConfig(epsilon=0.1),
            EngineConfig(build_workers=2),
            EngineConfig(mode="reference"),
        ],
        ids=["default", "eps0.1", "workers2-chunked", "reference"],
    )
    def test_cholinv_equals_one_build_per_graph(self, config, monkeypatch):
        import repro.core.approx_inverse as approx_inverse_module

        # levels split into chunks, which two workers run concurrently
        monkeypatch.setattr(approx_inverse_module, "_CHUNK_TARGET_NNZ", 64)
        graphs = mixed_graphs()
        engines = build_engines(graphs, config)
        assert len(engines) == len(graphs)
        for graph, engine in zip(graphs, engines):
            assert engine.graph is graph
            assert_same_cholinv_engine(engine, build_engine(graph, config))

    def test_each_factor_keeps_its_own_log_n_threshold(self):
        small, large = build_engines(mixed_graphs()[:2])
        # the case is only a check while the two thresholds decide
        # differently on these graphs
        for engine, other in ((small, large), (large, small)):
            _, swapped = approximate_inverse(
                engine.ichol_result.lower,
                small_column_threshold=math.log(other.n),
            )
            assert swapped != engine.stats

    def test_cholinv_runs_one_alg2_sweep(self, monkeypatch):
        import repro.core.effective_resistance as er_module

        sweeps = []
        shared_sweep = er_module.approximate_inverses

        def spy(factors, **kwargs):
            sweeps.append(len(factors))
            return shared_sweep(factors, **kwargs)

        monkeypatch.setattr(er_module, "approximate_inverses", spy)
        build_engines(mixed_graphs(), EngineConfig())
        assert sweeps == [4]

    def test_one_graph_and_no_graph(self):
        [graph] = mixed_graphs()[2:3]
        [engine] = build_engines([graph])
        assert_same_cholinv_engine(engine, build_engine(graph))
        assert build_engines([], EngineConfig()) == []
        assert build_engines([], EngineConfig(method="exact")) == []

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_every_engine_answers_like_one_build_per_graph(self, name, multi_component):
        graphs = [multi_component, fe_mesh_2d(4, 4, seed=1)]
        engines = build_engines(graphs, CONFIGS[name])
        for graph, engine in zip(graphs, engines):
            alone = build_engine(graph, CONFIGS[name])
            assert type(engine) is type(alone)
            assert engine.config == alone.config
            pairs = np.array([(p, q) for p in range(graph.num_nodes) for q in range(p)])
            assert engine.query_pairs(pairs).tobytes() == alone.query_pairs(pairs).tobytes()

    def test_rejects_what_build_engine_rejects(self):
        with pytest.raises(TypeError, match="config must be an EngineConfig"):
            build_engines([], {"method": "exact"})
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            build_engines([], EngineConfig(method="bogus"))
