"""Refresh without re-ordering, and the load-time checks it relies on.

A refresh whose edit leaves the sparsity pattern unchanged refactors on the
served engine's fill-reducing permutation
(:meth:`CholInvEffectiveResistance.rebuilt`).  Whichever path a refresh
takes, the new engine must be bit-identical to a cold ``build_engine`` of
the edited graph: ``Z̃``, ``perm``, the column norms and every answer.
"""

import numpy as np
import pytest

import repro.core.effective_resistance as effective_resistance_module
from repro.apps.incremental import perturb_edge_weights, run_edge_update_flow
from repro.core.engine import EngineConfig, build_engine
from repro.core.persistence import load_engine
from repro.graphs.generators import barabasi_albert_graph, grid_2d
from repro.graphs.graph import Graph
from repro.service import ResistanceService

ORDERINGS = ("amd", "rcm", "natural", "nested_dissection")


def _grid() -> Graph:
    return grid_2d(12, 12, jitter=0.3, seed=5)


def _ba() -> Graph:
    return barabasi_albert_graph(160, 3, weight_low=0.5, weight_high=2.0, seed=6)


def _disconnected() -> Graph:
    return Graph.disjoint_union([grid_2d(7, 6, jitter=0.3, seed=7), _ba()])


GRAPHS = {"grid": _grid, "ba": _ba, "disconnected": _disconnected}


def _reweighted(graph: Graph, seed: int) -> Graph:
    """Every weight scaled by U(1e-3, 1e3): same pattern, new values."""
    rng = np.random.default_rng(seed)
    return graph.with_weights(
        graph.weights * np.exp(rng.uniform(np.log(1e-3), np.log(1e3), graph.num_edges))
    )


def _assert_same_engine(engine, cold) -> None:
    assert np.array_equal(engine.perm, cold.perm)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(engine.z_tilde, part), getattr(cold.z_tilde, part))
    assert np.array_equal(engine._column_sq_norms, cold._column_sq_norms)
    assert np.array_equal(engine.component_labels, cold.component_labels)
    pairs = np.random.default_rng(3).integers(0, cold.n, size=(256, 2))
    assert np.array_equal(engine.query_pairs(pairs), cold.query_pairs(pairs))
    assert np.array_equal(engine.all_edge_resistances(), cold.all_edge_resistances())


@pytest.fixture
def ordering_calls(monkeypatch):
    """Count the engine's calls into ``compute_ordering``."""
    calls = []
    real = effective_resistance_module.compute_ordering

    def counting(matrix, method="amd"):
        calls.append(method)
        return real(matrix, method=method)

    monkeypatch.setattr(effective_resistance_module, "compute_ordering", counting)
    return calls


class TestReusedRefresh:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_weight_edit_matches_cold_build(self, family, ordering, ordering_calls):
        graph = GRAPHS[family]()
        config = EngineConfig(ordering=ordering)
        service = ResistanceService(graph, config=config)
        assert ordering_calls == [ordering]
        edited = _reweighted(graph, seed=11)
        stats = service.refresh_after_edge_update(edited)
        assert stats.reused_ordering
        assert service.engine.reused_ordering
        assert ordering_calls == [ordering]  # the refresh ordered nothing
        assert service.engine.timer["ordering"] < 0.05
        _assert_same_engine(service.engine, build_engine(edited, config))

    def test_edge_edits_on_non_canonical_graph(self):
        graph = _grid()
        # reverse the edge order and flip every other edge's orientation
        order = np.arange(graph.num_edges)[::-1]
        flip = order % 2 == 0
        heads = np.where(flip, graph.tails[order], graph.heads[order])
        tails = np.where(flip, graph.heads[order], graph.tails[order])
        served = Graph(graph.num_nodes, heads, tails, graph.weights[order])
        config = EngineConfig()
        service = ResistanceService(served, config=config)
        # existing pairs only, given both ways round and one of them twice
        edges = np.array([[heads[3], tails[3]], [tails[9], heads[9]], [heads[3], tails[3]]])
        weights = np.array([0.5, 2.0, 0.25])
        stats = service.refresh_after_edge_update(edges=edges, weights=weights)
        assert stats.reused_ordering
        expected = Graph(
            served.num_nodes,
            np.concatenate([heads, edges[:, 0]]),
            np.concatenate([tails, edges[:, 1]]),
            np.concatenate([served.weights, weights]),
        ).coalesce()
        assert stats.num_edges == served.num_edges
        _assert_same_engine(service.engine, build_engine(expected, config))

    @pytest.mark.parametrize("mmap", [False, True])
    def test_warm_started_service_reuses_persisted_perm(self, tmp_path, mmap):
        graph = _grid()
        config = EngineConfig(epsilon=1e-4)
        path = build_engine(graph, config).save(tmp_path / "engine.npz")
        service = ResistanceService.from_saved(path, mmap=mmap)
        if mmap:
            assert isinstance(service.engine.perm, np.memmap)
        edited = _reweighted(graph, seed=12)
        stats = service.refresh_after_edge_update(edited)
        assert stats.reused_ordering
        perm = service.engine.perm
        # a private, writable copy — never a view of the archive
        assert type(perm) is np.ndarray and perm.base is None
        path.unlink()
        cold = build_engine(edited, config)
        _assert_same_engine(service.engine, cold)
        pairs = [(0, 5), (3, 140), (17, 17)]
        assert np.array_equal(service.query_pairs(pairs), cold.query_pairs(pairs))

    def test_build_workers_override(self):
        graph = _ba()
        config = EngineConfig()
        service = ResistanceService(graph, config=config)
        edited = _reweighted(graph, seed=13)
        stats = service.refresh_after_edge_update(edited, build_workers=2)
        assert stats.reused_ordering
        assert service.config.build_workers == 2
        _assert_same_engine(
            service.engine, build_engine(edited, config.replace(build_workers=2))
        )
        _assert_same_engine(service.engine, build_engine(edited, config))

    def test_repeated_refreshes_keep_reusing(self, ordering_calls):
        graph = _grid()
        service = ResistanceService(graph)
        for seed in (21, 22, 23):
            edited = _reweighted(graph, seed)
            assert service.refresh_after_edge_update(edited).reused_ordering
        assert ordering_calls == ["amd"]
        _assert_same_engine(service.engine, build_engine(edited, EngineConfig()))

    def test_edge_update_flow_reports_reuse(self):
        service = ResistanceService(
            _grid(), config=EngineConfig(epsilon=1e-5, drop_tol=1e-5)
        )
        outcome = run_edge_update_flow(service, modified_fraction=0.2, seed=4)
        assert outcome.reused_ordering
        assert outcome.max_rel_error < 2e-2


class TestColdRefresh:
    def test_new_edge_orders_once_and_matches_cold(self, ordering_calls):
        graph = _grid()
        config = EngineConfig()
        service = ResistanceService(graph, config=config)
        far = graph.num_nodes - 1
        stats = service.refresh_after_edge_update(edges=[(0, far)], weights=[1.0])
        assert ordering_calls == ["amd", "amd"]
        assert not stats.reused_ordering
        assert not service.engine.reused_ordering
        expected = Graph(
            graph.num_nodes,
            np.append(graph.heads, 0),
            np.append(graph.tails, far),
            np.append(graph.weights, 1.0),
        ).coalesce()
        _assert_same_engine(service.engine, build_engine(expected, config))

    def test_removed_edge_takes_cold_build(self):
        graph = _grid()
        engine = build_engine(graph, EngineConfig())
        keep = np.arange(1, graph.num_edges)
        smaller = Graph(
            graph.num_nodes, graph.heads[keep], graph.tails[keep], graph.weights[keep]
        )
        rebuilt = engine.rebuilt(smaller, engine.config)
        assert not rebuilt.reused_ordering
        _assert_same_engine(rebuilt, build_engine(smaller, engine.config))

    def test_changed_ordering_takes_cold_build(self, ordering_calls):
        graph = _grid()
        engine = build_engine(graph, EngineConfig())
        config = engine.config.replace(ordering="rcm")
        rebuilt = engine.rebuilt(_reweighted(graph, 14), config)
        assert not rebuilt.reused_ordering
        assert ordering_calls == ["amd", "rcm"]

    def test_changed_node_count_takes_cold_build(self):
        graph = _grid()
        engine = build_engine(graph, EngineConfig())
        grown = Graph(graph.num_nodes + 1, graph.heads, graph.tails, graph.weights)
        rebuilt = engine.rebuilt(grown, engine.config)
        assert not rebuilt.reused_ordering
        assert rebuilt.n == graph.num_nodes + 1

    def test_sharded_config_takes_cold_build(self):
        graph = _disconnected()
        engine = build_engine(graph, EngineConfig())
        config = engine.config.replace(max_shard_nodes=graph.num_nodes)
        rebuilt = engine.rebuilt(_reweighted(graph, 15), config)
        assert not rebuilt.reused_ordering
        assert type(rebuilt) is type(build_engine(graph, config))

    def test_other_engines_rebuild_cold(self):
        graph = _grid()
        config = EngineConfig(method="exact")
        service = ResistanceService(graph, config=config)
        edited = perturb_edge_weights(graph, fraction=0.5, seed=2)
        assert not service.refresh_after_edge_update(edited).reused_ordering
        pairs = [(0, 7), (2, 90)]
        assert np.array_equal(
            service.query_pairs(pairs), build_engine(edited, config).query_pairs(pairs)
        )


class TestPersistedFactorChecks:
    """``load_engine`` verifies every member a refresh would trust."""

    @pytest.fixture
    def saved(self, tmp_path):
        engine = build_engine(_grid(), EngineConfig())
        path = engine.save(tmp_path / "engine.npz")
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        return tmp_path, members

    @staticmethod
    def _doctored(saved, **changes):
        tmp_path, members = saved
        path = tmp_path / "doctored.npz"
        np.savez(path, **{**members, **changes})
        return path

    def test_untouched_copy_loads(self, saved):
        path = self._doctored(saved)
        assert load_engine(path).n == _grid().num_nodes

    @pytest.mark.parametrize("mmap", [False, True])
    def test_perm_not_a_permutation(self, saved, mmap):
        perm = saved[1]["perm"].copy()
        perm[1] = perm[0]
        path = self._doctored(saved, perm=perm)
        with pytest.raises(ValueError, match="'perm' is not an integer permutation"):
            load_engine(path, mmap=mmap)

    def test_perm_out_of_range(self, saved):
        perm = saved[1]["perm"].copy()
        perm[0] = perm.shape[0]
        with pytest.raises(ValueError, match="'perm' is not an integer permutation"):
            load_engine(self._doctored(saved, perm=perm))

    def test_perm_not_integer(self, saved):
        perm = saved[1]["perm"].astype(np.float64)
        with pytest.raises(ValueError, match="'perm' is not an integer permutation"):
            load_engine(self._doctored(saved, perm=perm))

    def test_perm_wrong_length(self, saved):
        perm = saved[1]["perm"][:-1]
        with pytest.raises(ValueError, match="'perm' is not an integer permutation"):
            load_engine(self._doctored(saved, perm=perm))

    def test_z_shape(self, saved):
        n = saved[1]["perm"].shape[0]
        z_shape = np.asarray([n, n - 1], dtype=np.int64)
        with pytest.raises(ValueError, match="'z_shape'"):
            load_engine(self._doctored(saved, z_shape=z_shape))

    def test_column_sq_norms_length(self, saved):
        norms = np.append(saved[1]["column_sq_norms"], 1.0)
        with pytest.raises(ValueError, match="'column_sq_norms'"):
            load_engine(self._doctored(saved, column_sq_norms=norms))

    def test_component_labels_length(self, saved):
        labels = saved[1]["component_labels"][:-2]
        with pytest.raises(ValueError, match="'component_labels'"):
            load_engine(self._doctored(saved, component_labels=labels))

    @staticmethod
    def _z_corruptions(members, prefix=""):
        """One damaged copy of the Z̃ members per check, by name."""
        indptr = members[prefix + "z_indptr"]
        indices = members[prefix + "z_indices"]
        data = members[prefix + "z_data"]
        n = indptr.shape[0] - 1
        # a column with at least two rows, to break the order inside it
        col = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
        start = int(indptr[col])

        def edited(array, position, value):
            array = array.copy()
            array[position] = value
            return array

        swapped = indices.copy()
        swapped[start], swapped[start + 1] = indices[start + 1], indices[start]
        nonmonotone = indptr.copy()
        nonmonotone[col + 1] = nonmonotone[col] - 1
        return {
            "indptr-start": (prefix + "z_indptr", {"z_indptr": edited(indptr, 0, 1)}),
            "indptr-decreases": (prefix + "z_indptr", {"z_indptr": nonmonotone}),
            "indptr-end": (
                prefix + "z_indptr", {"z_indptr": edited(indptr, n, indptr[n] - 1)}
            ),
            "indptr-length": (prefix + "z_indptr", {"z_indptr": indptr[:-1]}),
            "indices-negative": (prefix + "z_indices", {"z_indices": edited(indices, 0, -1)}),
            "indices-too-large": (
                prefix + "z_indices", {"z_indices": edited(indices, start, n)}
            ),
            "indices-out-of-order": (prefix + "z_indices", {"z_indices": swapped}),
            "indices-repeated": (
                prefix + "z_indices",
                {"z_indices": edited(indices, start + 1, indices[start])},
            ),
            "data-nan": (prefix + "z_data", {"z_data": edited(data, start, np.nan)}),
            "data-inf": (prefix + "z_data", {"z_data": edited(data, start, np.inf)}),
            "data-length": (prefix + "z_data", {"z_data": data[:-1]}),
        }

    CORRUPTIONS = (
        "indptr-start", "indptr-decreases", "indptr-end", "indptr-length",
        "indices-negative", "indices-too-large", "indices-out-of-order",
        "indices-repeated", "data-nan", "data-inf", "data-length",
    )

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_z_structure(self, saved, corruption, mmap):
        member, changes = self._z_corruptions(saved[1])[corruption]
        path = self._doctored(saved, **changes)
        with pytest.raises(ValueError, match=f"corrupt saved engine: archive member '{member}'"):
            load_engine(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("corruption", ["indptr-decreases", "indices-too-large", "data-nan"])
    def test_partitioned_shard_z_structure(self, tmp_path, corruption, mmap):
        engine = build_engine(_grid(), EngineConfig(max_shard_nodes=60))
        engine.query_pairs([(0, 143)])
        path = engine.save(tmp_path / "parts.npz")
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        member, changes = self._z_corruptions(members, "shard0_")[corruption]
        members.update({"shard0_" + name: value for name, value in changes.items()})
        np.savez(path, **members)
        with pytest.raises(ValueError, match=f"archive member '{member}'"):
            load_engine(path, mmap=mmap)

    def test_partitioned_shard_perm(self, tmp_path):
        config = EngineConfig(max_shard_nodes=60)
        path = build_engine(_grid(), config).save(tmp_path / "parts.npz")
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        members["shard0_perm"] = members["shard0_perm"][::-1][:-1]
        np.savez(path, **members)
        with pytest.raises(ValueError, match="'shard0_perm'"):
            load_engine(path)
