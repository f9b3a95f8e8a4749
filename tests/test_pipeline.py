"""Tests for the end-to-end Alg. 1 reduction pipeline."""

import copy
import math
import time

import numpy as np
import pytest

import repro.reduction.pipeline as pipeline_module
from repro.apps.incremental import perturb_blocks
from repro.bench.cases import TABLE2_CASES, quick_table2_names
from repro.core.engine import EngineConfig
from repro.partition.interface import partition_graph
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import PGConfig, synthetic_ibmpg_like
from repro.powergrid.netlist import GROUND
from repro.graphs.laplacian import laplacian
from repro.powergrid.netlist import PowerGrid
from repro.reduction.pipeline import PGReducer, ReducedGrid, ReductionConfig
from repro.reduction.stitch import stitch_blocks
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer


@pytest.fixture(scope="module")
def pg_case():
    grid = synthetic_ibmpg_like(nx=16, ny=16, seed=0, pad_pitch=6)
    return grid, dc_analysis(grid)


def run_reduction(grid, **config_kwargs):
    config_kwargs.setdefault("seed", 1)
    reducer = PGReducer(grid, ReductionConfig(**config_kwargs))
    return reducer, reducer.reduce()


class TestInvariants:
    def test_all_ports_preserved(self, pg_case):
        grid, _ = pg_case
        _, reduced = run_reduction(grid, engine=EngineConfig(method="cholinv"))
        ports = grid.port_nodes()
        assert np.all(reduced.node_map[ports] >= 0)
        # sources present with unchanged values
        assert len(reduced.grid.vsources) == len(grid.vsources)
        assert len(reduced.grid.isources) == len(grid.isources)
        original_total = sum(cs.dc for cs in grid.isources)
        reduced_total = sum(cs.dc for cs in reduced.grid.isources)
        assert np.isclose(original_total, reduced_total)

    def test_node_count_shrinks(self, pg_case):
        grid, _ = pg_case
        _, reduced = run_reduction(grid, engine=EngineConfig(method="cholinv"))
        assert reduced.grid.num_nodes < grid.num_nodes

    def test_node_names_survive(self, pg_case):
        grid, _ = pg_case
        _, reduced = run_reduction(grid, engine=EngineConfig(method="cholinv"))
        for port in grid.port_nodes():
            name = grid.name_of(int(port))
            assert reduced.grid.name_of(int(reduced.node_map[port])) == name

    def test_block_cache_populated(self, pg_case):
        grid, _ = pg_case
        reducer, _ = run_reduction(grid, engine=EngineConfig(method="cholinv"))
        assert len(reducer._block_cache) == reducer.num_blocks

    def test_requires_ports(self):
        from repro.powergrid.netlist import PowerGrid

        pg = PowerGrid()
        a, b = pg.node("a"), pg.node("b")
        pg.add_resistor(a, b, 1.0)
        with pytest.raises(ValueError, match="no ports"):
            PGReducer(pg)


class TestExactnessLimit:
    def test_schur_only_reduction_is_exact(self, pg_case):
        """No merging + no sampling => reduced DC solution is exact."""
        grid, original = pg_case
        _, reduced = run_reduction(
            grid,
            engine=EngineConfig(method="exact"),
            merge_resistance_fraction=0.0,
            sparsify_sample_factor=1e9,
        )
        solution = dc_analysis(reduced.grid)
        ports = grid.port_nodes()
        errors = reduced.port_voltage_errors(
            original.voltages, solution.voltages, ports
        )
        assert errors.max() < 1e-8


class TestAccuracy:
    @pytest.mark.parametrize("method", ["exact", "cholinv", "random_projection"])
    def test_port_errors_small(self, pg_case, method):
        grid, original = pg_case
        engine = EngineConfig(method=method)
        if method == "random_projection":
            engine = engine.replace(num_projections=400)
        _, reduced = run_reduction(grid, engine=engine)
        solution = dc_analysis(reduced.grid)
        ports = grid.port_nodes()
        errors = reduced.port_voltage_errors(
            original.voltages, solution.voltages, ports
        )
        rel = errors.mean() / original.max_drop()
        assert rel < 0.08  # single-digit percent, as in Table II

    def test_cholinv_matches_exact_reduction_quality(self, pg_case):
        """Alg. 3-based reduction must not lose accuracy vs exact ER
        (the headline claim of Table II)."""
        grid, original = pg_case
        ports = grid.port_nodes()
        rels = {}
        for method in ("exact", "cholinv"):
            _, reduced = run_reduction(grid, engine=EngineConfig(method=method))
            solution = dc_analysis(reduced.grid)
            errors = reduced.port_voltage_errors(
                original.voltages, solution.voltages, ports
            )
            rels[method] = errors.mean() / original.max_drop()
        assert rels["cholinv"] < 2.5 * rels["exact"] + 1e-4

    def test_cholinv_matches_exact_reduction_quality_when_sampling(self, pg_case):
        """The same Table II bound on blocks that are really sparsified.

        At the default ``sparsify_sample_factor`` every 16² block has
        m <= 8·n·ln n edges and is returned unsampled, so both backends
        give byte-identical reductions; at 2.0 the sampling uses each
        backend's resistances and the two reductions differ.
        """
        grid, original = pg_case
        ports = grid.port_nodes()
        rels, ohms = {}, {}
        for method in ("exact", "cholinv"):
            _, reduced = run_reduction(
                grid, engine=EngineConfig(method=method), sparsify_sample_factor=2.0
            )
            ohms[method] = np.asarray(reduced.grid.res_ohms)
            solution = dc_analysis(reduced.grid)
            errors = reduced.port_voltage_errors(
                original.voltages, solution.voltages, ports
            )
            rels[method] = errors.mean() / original.max_drop()
        assert not np.array_equal(ohms["exact"], ohms["cholinv"])
        assert rels["cholinv"] < 2.5 * rels["exact"] + 1e-4


class TestIncrementalMachinery:
    def test_rebuild_reuses_cache(self, pg_case):
        grid, _ = pg_case
        reducer, _ = run_reduction(grid, engine=EngineConfig(method="cholinv"))
        modified = copy.deepcopy(grid)
        clone = reducer.rebuild_for(modified, modified_blocks=[0])
        assert 0 not in clone._block_cache
        for b in range(1, reducer.num_blocks):
            assert b in clone._block_cache

    def test_rebuild_identical_grid_gives_same_result(self, pg_case):
        grid, _ = pg_case
        reducer, reduced = run_reduction(grid, engine=EngineConfig(method="exact"),
                                         merge_resistance_fraction=0.0,
                                         sparsify_sample_factor=1e9)
        clone = reducer.rebuild_for(copy.deepcopy(grid), modified_blocks=[0])
        reduced2 = clone.reduce()
        a = dc_analysis(reduced.grid)
        b = dc_analysis(reduced2.grid)
        ports = grid.port_nodes()
        va = a.voltages[reduced.node_map[ports]]
        vb = b.voltages[reduced2.node_map[ports]]
        assert np.allclose(va, vb, atol=1e-9)

    def test_rebuild_rejects_different_topology(self, pg_case):
        grid, _ = pg_case
        reducer, _ = run_reduction(grid, engine=EngineConfig(method="cholinv"))
        other = synthetic_ibmpg_like(nx=8, ny=8, seed=3)
        with pytest.raises(ValueError):
            reducer.rebuild_for(other, modified_blocks=[0])


    def test_rebuild_loads_caps_and_shunts_like_a_fresh_reducer(self):
        """The clone's per-node capacitance and shunt sums are the fresh
        reducer's byte for byte, and both keep a per-element loop's
        summation order (repeated nodes, coupling caps counted twice)."""
        grid = synthetic_ibmpg_like(nx=12, ny=12, pad_pitch=6, transient=True, seed=4)
        for node, ohms in ((3, 50.0), (3, 70.0), (11, 90.0), (40, 30.0)):
            grid.add_resistor(node, GROUND, ohms)
        grid.add_capacitor(5, 3e-15, b=6)
        grid.add_capacitor(6, 1e-15, b=3)
        config = ReductionConfig(num_blocks=3, seed=0)
        reducer = PGReducer(grid, config)
        edited = perturb_blocks(grid, reducer.labels, [1], seed=2)
        clone = reducer.rebuild_for(edited, [1])
        fresh = PGReducer(edited, config)
        assert clone._node_caps.tobytes() == fresh._node_caps.tobytes()
        assert clone._node_shunts.tobytes() == fresh._node_shunts.tobytes()

        caps = np.zeros(edited.num_nodes)
        for a, b, farads in zip(edited.cap_a, edited.cap_b, edited.cap_farads):
            caps[a] += farads
            if b >= 0:
                caps[b] += farads
        shunts = np.zeros(edited.num_nodes)
        for node, siemens in zip(edited.shunt_node, edited.shunt_siemens):
            shunts[node] += siemens
        assert clone._node_caps.tobytes() == caps.tobytes()
        assert clone._node_shunts.tobytes() == shunts.tobytes()


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown engine method 'bogus'"):
            ReductionConfig(engine=EngineConfig(method="bogus"))

    @pytest.mark.parametrize("engine", ["exact", {"method": "exact"}, None])
    def test_engine_must_be_an_engine_config(self, engine):
        with pytest.raises(TypeError, match="engine must be an EngineConfig"):
            ReductionConfig(engine=engine)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ports_per_block", 0),
            ("ports_per_block", -3),
            ("num_blocks", 0),
            ("sparsify_sample_factor", math.nan),
            ("sparsify_sample_factor", math.inf),
            ("sparsify_sample_factor", 0.0),
            ("merge_resistance_fraction", math.nan),
            ("merge_resistance_fraction", math.inf),
            ("merge_resistance_fraction", -1.0),
        ],
    )
    def test_numeric_fields_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must .*got {value!r}"):
            ReductionConfig(**{field: value})

    def test_boundary_values_accepted(self):
        ReductionConfig(
            ports_per_block=1,
            num_blocks=1,
            sparsify_sample_factor=1e-3,
            merge_resistance_fraction=0.0,
        )

    def test_engine_seed_none_draws_from_the_pipeline_rng(self, pg_case):
        """An unseeded randomised engine takes fresh projections from the
        pipeline RNG on every call; an explicit engine seed repeats them."""
        grid, _ = pg_case
        graph = grid.to_graph()
        engine = EngineConfig(method="random_projection", num_projections=20)
        shared = PGReducer(grid, ReductionConfig(engine=engine, seed=3))
        [first] = shared._edge_resistances([graph], [Timer()])
        [second] = shared._edge_resistances([graph], [Timer()])
        assert not np.array_equal(first, second)
        seeded = PGReducer(grid, ReductionConfig(engine=engine.replace(seed=9), seed=3))
        assert np.array_equal(
            seeded._edge_resistances([graph], [Timer()])[0],
            seeded._edge_resistances([graph], [Timer()])[0],
        )

    def test_partitions_with_the_multilevel_method(self, pg_case):
        grid, _ = pg_case
        reducer = PGReducer(grid, ReductionConfig(num_blocks=4, seed=5))
        expected = partition_graph(
            grid.to_graph(), 4, method="multilevel", seed=ensure_rng(5)
        )
        assert np.array_equal(reducer.labels, expected)

    def test_block_count_from_ports(self, pg_case):
        grid, _ = pg_case
        reducer = PGReducer(grid, ReductionConfig(ports_per_block=20, seed=0))
        expected = max(1, grid.port_nodes().size // 20)
        assert reducer.num_blocks == expected

    def test_explicit_block_count(self, pg_case):
        grid, _ = pg_case
        reducer = PGReducer(grid, ReductionConfig(num_blocks=3, seed=0))
        assert reducer.num_blocks == 3


@pytest.fixture(scope="module")
def merging_grid():
    """Three blocks, each of which merges at half its median resistance."""
    return synthetic_ibmpg_like(PGConfig(nx=32, ny=32, pad_pitch=8), seed=0)


def reduced_bytes(reduced):
    grid = reduced.grid
    arrays = (
        grid.res_a, grid.res_b, grid.res_ohms, grid.shunt_node, grid.shunt_siemens,
        grid.cap_a, grid.cap_b, grid.cap_farads, reduced.node_map, reduced.redirect,
    )
    return [np.asarray(a).tobytes() for a in arrays]


def block_at_a_time(reducer):
    blocks = [reducer.reduce_block(b) for b in range(reducer.num_blocks)]
    return blocks, reducer._stitch(blocks)


class TestPhasedReduction:
    """``reduce()`` runs steps 2-4 in phases over all the blocks, with
    shared engine builds; the reduced grid is the one ``reduce_block`` on
    each block in turn gives, byte for byte."""

    ENGINES = {
        "cholinv": EngineConfig(),
        "exact": EngineConfig(method="exact"),
        # unseeded: the engine draws from the pipeline RNG
        "random_projection": EngineConfig(method="random_projection", num_projections=20),
        "random_projection-seeded": EngineConfig(
            method="random_projection", num_projections=20, seed=5
        ),
    }

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_reduce_equals_block_at_a_time(self, merging_grid, name):
        config = ReductionConfig(
            engine=self.ENGINES[name], merge_resistance_fraction=0.5, seed=2
        )
        reduced = PGReducer(merging_grid, config).reduce()
        blocks, one_by_one = block_at_a_time(PGReducer(merging_grid, config))
        assert all(block.merged_away.size for block in blocks), "nothing merges"
        assert reduced_bytes(reduced) == reduced_bytes(one_by_one)

    def test_incremental_group_equals_block_at_a_time(self, merging_grid):
        config = ReductionConfig(merge_resistance_fraction=0.5, seed=2)
        # rebuild_for shares the base reducer's RNG, so each path gets its own
        bases = [PGReducer(merging_grid, config) for _ in range(2)]
        for base in bases:
            base.reduce()
        edited = perturb_blocks(merging_grid, bases[0].labels, [0, 2], seed=3)
        grouped = bases[0].rebuild_for(edited, [0, 2]).reduce()
        _, one_by_one = block_at_a_time(bases[1].rebuild_for(edited, [0, 2]))
        assert reduced_bytes(grouped) == reduced_bytes(one_by_one)

    @pytest.mark.parametrize("name, calls", [("cholinv", 2), ("random_projection", 6)])
    def test_engine_builds_are_shared_unless_they_draw_from_the_rng(
        self, merging_grid, name, calls, monkeypatch
    ):
        import repro.reduction.pipeline as pipeline_module

        sizes = []
        shared_build = pipeline_module.build_engines

        def spy(graphs, config):
            sizes.append(len(graphs))
            return shared_build(graphs, config)

        monkeypatch.setattr(pipeline_module, "build_engines", spy)
        config = ReductionConfig(
            engine=self.ENGINES[name], merge_resistance_fraction=0.5, seed=2
        )
        PGReducer(merging_grid, config).reduce()
        # step 3, then the blocks that merged: all three blocks at once,
        # or one block per call
        assert len(sizes) == calls
        assert sum(sizes) == 6

    def test_block_timings_split_each_shared_build(self, merging_grid, monkeypatch):
        reducer = PGReducer(
            merging_grid, ReductionConfig(merge_resistance_fraction=0.5, seed=2)
        )
        edge_resistances = reducer._edge_resistances
        calls = []

        def timed(graphs, timers):
            before = [timer.times.get("effective_resistance", 0.0) for timer in timers]
            start = time.perf_counter()
            out = edge_resistances(graphs, timers)
            wall = time.perf_counter() - start
            shares = [
                timer.times["effective_resistance"] - b for timer, b in zip(timers, before)
            ]
            calls.append(([g.num_nodes for g in graphs], wall, shares))
            return out

        monkeypatch.setattr(reducer, "_edge_resistances", timed)
        reducer.reduce()
        blocks = [reducer.reduce_block(b) for b in range(reducer.num_blocks)]
        # one shared build for step 3 and one for the three merged blocks
        assert [len(nodes) for nodes, _, _ in calls] == [3, 3]
        for nodes, wall, shares in calls:
            # each call's wall-clock, split by node count
            assert 0.5 * wall < sum(shares) <= wall
            np.testing.assert_allclose(
                np.array(shares) / sum(shares), np.array(nodes) / sum(nodes)
            )
        # er_time holds both builds of every block, and only those
        assert sum(block.er_time for block in blocks) == pytest.approx(
            sum(sum(shares) for _, _, shares in calls), rel=1e-12
        )
        # no section is counted twice: the per-block totals fit in the
        # wall-clock of steps 2-4
        assert sum(block.total_time for block in blocks) <= reducer.timer["blocks"]
        assert all(0.0 < block.er_time < block.total_time for block in blocks)


# ----------------------------------------------------------------------
def _reference_stitch(reducer, blocks):
    """Step 5 one element at a time through ``add_resistor`` /
    ``add_capacitor`` — the specification ``stitch_blocks`` must match
    element for element."""
    pg = reducer.pg
    graph = reducer.graph
    labels = reducer.labels
    n_original = pg.num_nodes
    redirect = np.arange(n_original, dtype=np.int64)
    for block in blocks:
        redirect[block.merged_away] = block.merge_target
    redirect = redirect[redirect]
    survives = np.zeros(n_original, dtype=bool)
    for block in blocks:
        survives[block.kept_nodes] = True
    for block in blocks:
        survives[block.merged_away] = False
    survivors = np.flatnonzero(survives)
    node_map = -np.ones(n_original, dtype=np.int64)
    node_map[survivors] = np.arange(survivors.size)
    reduced = PowerGrid()
    for original in survivors:
        reduced.node(pg.name_of(int(original)))
    for block in blocks:
        for a, b, w in zip(block.heads, block.tails, block.conductances):
            ra, rb = node_map[redirect[a]], node_map[redirect[b]]
            if ra != rb and ra >= 0 and rb >= 0 and w > 0:
                reduced.add_resistor(int(ra), int(rb), 1.0 / float(w))
    crossing = labels[graph.heads] != labels[graph.tails]
    for a, b, w in zip(
        graph.heads[crossing], graph.tails[crossing], graph.weights[crossing]
    ):
        ra, rb = node_map[redirect[a]], node_map[redirect[b]]
        if ra != rb and ra >= 0 and rb >= 0:
            reduced.add_resistor(int(ra), int(rb), 1.0 / float(w))
    for block in blocks:
        for original, siemens in zip(block.kept_nodes, block.shunts):
            target = node_map[redirect[original]]
            if siemens > 0 and target >= 0:
                reduced.add_resistor(int(target), -1, 1.0 / float(siemens))
        for original, farads in zip(block.kept_nodes, block.lumped_caps):
            target = node_map[redirect[original]]
            if farads > 0 and target >= 0:
                reduced.add_capacitor(int(target), float(farads))
    for vs in pg.vsources:
        target = node_map[redirect[vs.node]]
        reduced.add_vsource(int(target), vs.voltage, name=vs.name)
    for cs in pg.isources:
        target = node_map[redirect[cs.node]]
        reduced.add_isource(int(target), cs.dc, waveform=cs.waveform, name=cs.name)
    return ReducedGrid(grid=reduced, node_map=node_map, redirect=redirect, timer=reducer.timer)


def _grid_contents(reduced):
    """Every list of the reduced grid with its element types, plus maps."""
    grid = reduced.grid
    lists = {
        name: getattr(grid, name)
        for name in ("node_names", "res_a", "res_b", "res_ohms", "shunt_node",
                     "shunt_siemens", "cap_a", "cap_b", "cap_farads")
    }
    typed = {name: [(type(v), v) for v in values] for name, values in lists.items()}
    sources = [(type(s.node), s) for s in grid.vsources + grid.isources]
    return typed, sources, reduced.node_map.tobytes(), reduced.redirect.tobytes()


def _with_shunts(grid, seed):
    """``grid`` plus ground shunts on a random tenth of its nodes."""
    grid = copy.deepcopy(grid)
    rng = np.random.default_rng(seed)
    nodes = rng.choice(grid.num_nodes, size=grid.num_nodes // 10, replace=False)
    for node in nodes.tolist():
        grid.add_resistor(node, GROUND, float(rng.uniform(10.0, 1e4)))
    return grid


STITCH_CASES = {
    **{
        f"pg-reduce-{seed}": (
            lambda seed=seed: synthetic_ibmpg_like(
                PGConfig(nx=72, ny=72, pad_pitch=10, load_fraction=0.06), seed=seed
            ),
            {},
        )
        for seed in (0, 1)
    },
    **{
        name: (lambda name=name: synthetic_ibmpg_like(
            TABLE2_CASES[name].config, seed=TABLE2_CASES[name].seed), {})
        for name in quick_table2_names()
    },
    "merging-unprotected": (
        lambda: synthetic_ibmpg_like(PGConfig(nx=32, ny=32, pad_pitch=8), seed=0),
        {"merge_resistance_fraction": 0.5, "protect_all_ports": False},
    ),
    "shunts": (
        lambda: _with_shunts(synthetic_ibmpg_like(PGConfig(nx=32, ny=32, pad_pitch=8), seed=3), 4),
        {"merge_resistance_fraction": 0.5},
    ),
}


class TestStitchMatchesReference:
    """``stitch_blocks`` masks and maps in bulk; the reduced grid equals
    the element-at-a-time loop's, values and Python types alike."""

    @pytest.mark.parametrize("name", sorted(STITCH_CASES))
    def test_reduced_grid_identical(self, name):
        make_grid, options = STITCH_CASES[name]
        reducer = PGReducer(make_grid(), ReductionConfig(seed=7, **options))
        blocks = reducer._reduce_blocks(range(reducer.num_blocks))
        got = stitch_blocks(reducer, blocks)
        want = _reference_stitch(reducer, blocks)
        assert _grid_contents(got) == _grid_contents(want)
        assert got.grid.shunt_node or name != "shunts"


def _reference_add_to_diagonal(matrix, nodes, values):
    """The shunt stamp of step 2 as it was: LIL ``setdiag`` on every node."""
    lil = matrix.tolil()
    lil.setdiag(lil.diagonal() + values)
    return lil.tocsc()


class TestSchurBlockShunts:
    """Step 2 adds node shunts on the CSC diagonal; the reduced grid equals
    the one the LIL ``setdiag`` stamp gives."""

    def test_reduced_grid_identical(self, monkeypatch):
        grid = _with_shunts(synthetic_ibmpg_like(PGConfig(nx=32, ny=32, pad_pitch=8), seed=5), 6)
        config = ReductionConfig(merge_resistance_fraction=0.5, seed=3)
        got = PGReducer(grid, config).reduce()
        monkeypatch.setattr(pipeline_module, "add_to_diagonal", _reference_add_to_diagonal)
        want = PGReducer(grid, config).reduce()
        assert _grid_contents(got) == _grid_contents(want)
        assert got.grid.shunt_node

    def test_block_matrix_identical(self):
        grid = _with_shunts(synthetic_ibmpg_like(PGConfig(nx=24, ny=24, pad_pitch=6), seed=1), 2)
        reducer = PGReducer(grid, ReductionConfig(seed=1))
        for block in range(reducer.num_blocks):
            nodes = reducer._block_nodes(block)
            sub, _ = reducer.graph.subgraph(nodes)
            shunts = reducer._node_shunts[nodes]
            got = pipeline_module.add_to_diagonal(laplacian(sub), np.arange(nodes.size), shunts)
            want = _reference_add_to_diagonal(laplacian(sub), None, shunts)
            for part in ("indptr", "indices", "data"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
