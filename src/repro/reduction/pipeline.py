"""Alg. 1 orchestration — graph-sparsification-based PG reduction.

The :class:`PGReducer` runs the five steps of Alg. 1 on a
:class:`~repro.powergrid.netlist.PowerGrid`:

1. partition the resistor graph into ``#ports / ports_per_block`` blocks
   and classify nodes (port / non-port interface / non-port interior);
2. per block: eliminate the interior nodes exactly with the Schur
   complement (interior capacitance and any interior loads are pushed to
   the kept nodes through the current-divider map);
3. for the reduced blocks: compute effective resistances for every edge
   with the engine ``ReductionConfig.engine`` describes — Table II compares
   ``"exact"`` (one sparse SPD factorisation, then direct solves for 64
   edges at a time: the accurate-but-slow reference),
   ``"random_projection"`` (WWW'15) and ``"cholinv"`` (the paper's Alg. 3);
4. merge electrically-near non-port nodes, then sparsify the dense block by
   effective-resistance sampling;
5. stitch the sparsified blocks together with the untouched cross-block
   edges, rebuild a reduced :class:`PowerGrid` carrying all ports.

Steps 2–4 run in phases over all the blocks :meth:`PGReducer.reduce` has
to reduce: step 2 for each block, then step 3 in one
:func:`~repro.core.engine.build_engines` call for all of them (for
``"cholinv"`` one Alg. 2 level sweep over every block's factor), then
step 4 merges block by block, recomputes the resistances of the blocks
that merged in one more shared call, and sparsifies in block order.  The
reduced grid is the one reducing one block after another gives, byte for
byte (the tests check this for every Table II engine).  An engine that
draws from the pipeline RNG (``random_projection`` or ``landmark``
without a seed) does reduce one block after another, which keeps the RNG
stream, and so the reduced grid, the same.  Each block's ``er_time`` is
its node-count share of the shared calls.

Per-block results are cached so the DC *incremental* application can
re-reduce only the blocks a designer modified (Table II lower half).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import EngineConfig, build_engines, engine_params, registered_engines
from repro.graphs.graph import Graph
from repro.graphs.laplacian import add_to_diagonal, laplacian
from repro.partition.interface import NodeRole, classify_nodes, partition_graph
from repro.powergrid.netlist import PowerGrid
from repro.reduction.port_merge import merge_by_effective_resistance
from repro.reduction.schur import laplacian_to_edges, schur_reduce
from repro.reduction.sparsify import spielman_srivastava_sparsify
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import check_finite_nonnegative, check_positive, require


@dataclass(frozen=True)
class ReductionConfig:
    """Knobs of Alg. 1.

    Attributes
    ----------
    engine:
        :class:`~repro.core.engine.EngineConfig` of the step-3 engine,
        one per reduced block, built for all blocks in one
        :func:`~repro.core.engine.build_engines` call; ``method``
        ``"exact"``, ``"random_projection"`` or ``"cholinv"`` (default)
        gives the three scenarios of Table II.  An engine ``seed`` of
        ``None`` draws from the pipeline RNG (the blocks are then reduced
        one at a time).
    ports_per_block:
        Alg. 1 sets ``#blocks = #ports / 50``; this is the 50.  Blocks are
        cut by multilevel :func:`~repro.partition.interface.partition_graph`.
    num_blocks:
        Explicit override of the block count.
    merge_resistance_fraction:
        Merge edges whose effective resistance is below this fraction of
        the block's median edge resistance (0 disables merging).
    protect_all_ports:
        ``True`` (default) reproduces the paper's *modified* Alg. 1: every
        port survives.  ``False`` reproduces the original behaviour of [8]:
        current-source ports may merge with each other (their loads
        aggregate on the representative); pad (voltage-source) nodes are
        always preserved.
    sparsify_sample_factor:
        ``q = factor · n · ln n`` samples per block.
    seed:
        Seed for partitioning, sampling and the baseline's projections.
    """

    engine: EngineConfig = EngineConfig()
    ports_per_block: int = 50
    num_blocks: "int | None" = None
    merge_resistance_fraction: float = 0.05
    protect_all_ports: bool = True
    sparsify_sample_factor: float = 8.0
    seed: "int | None" = 0

    def __post_init__(self) -> None:
        if not isinstance(self.engine, EngineConfig):
            raise TypeError(
                f"engine must be an EngineConfig, got {type(self.engine).__name__}"
            )
        require(
            self.engine.method in registered_engines(),
            f"unknown engine method {self.engine.method!r}; registered: "
            f"{sorted(registered_engines())}",
        )
        ports = self.ports_per_block
        require(ports >= 1, f"ports_per_block must be >= 1, got {ports!r}")
        require(
            self.num_blocks is None or self.num_blocks >= 1,
            f"num_blocks must be None or >= 1, got {self.num_blocks!r}",
        )
        check_positive(self.sparsify_sample_factor, "sparsify_sample_factor")
        check_finite_nonnegative(self.merge_resistance_fraction, "merge_resistance_fraction")


@dataclass
class BlockReduction:
    """Cached artefacts of one reduced block (in original node ids)."""

    block_id: int
    kept_nodes: np.ndarray  # original node ids kept by this block
    heads: np.ndarray  # original node ids (both endpoints kept)
    tails: np.ndarray
    conductances: np.ndarray
    shunts: np.ndarray  # per kept node, conductance to ground
    lumped_caps: np.ndarray  # per kept node, redistributed capacitance
    merged_away: np.ndarray  # original node ids merged into other nodes
    merge_target: np.ndarray  # same length: the absorbing original node id
    dropped: np.ndarray  # floating interior nodes
    # node-count share of the shared step-3 and post-merge engine builds
    er_time: float
    total_time: float  # steps 2-4, each counted once (er_time included)


@dataclass
class _BlockWork:
    """One block between the steps of Alg. 1: its current graph over local
    node ids, and the original id standing behind each local node."""

    block_id: int
    timer: Timer
    graph: Graph
    kept: np.ndarray
    shunts: np.ndarray
    caps: np.ndarray
    dropped: np.ndarray
    resistances: "np.ndarray | None" = None
    merged_away: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    merge_target: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def result(self) -> BlockReduction:
        kept = self.kept
        return BlockReduction(
            block_id=self.block_id,
            kept_nodes=kept,
            heads=kept[self.graph.heads],
            tails=kept[self.graph.tails],
            conductances=self.graph.weights,
            shunts=self.shunts if kept.size else np.empty(0),
            lumped_caps=self.caps if kept.size else np.empty(0),
            merged_away=self.merged_away,
            merge_target=self.merge_target,
            dropped=self.dropped,
            er_time=self.timer.times.get("effective_resistance", 0.0),
            total_time=self.timer.total,
        )


@dataclass
class ReducedGrid:
    """The stitched reduced power grid plus bookkeeping.

    Attributes
    ----------
    grid:
        Reduced :class:`PowerGrid`.
    node_map:
        ``node_map[original] = reduced index`` or ``-1`` for eliminated
        nodes.
    redirect:
        Merge redirection: ``redirect[original]`` is the surviving original
        node standing in for ``original`` (identity when nothing merged).
        With ``protect_all_ports=True`` every port redirects to itself.
    timer:
        Stage timings; ``timer.total`` is the paper's ``Tred``.
    """

    grid: PowerGrid
    node_map: np.ndarray
    redirect: np.ndarray
    timer: Timer

    def reduced_index_of(self, nodes) -> np.ndarray:
        """Reduced-grid index answering for each original node.

        Follows merge redirections, so a port absorbed by another port
        (``protect_all_ports=False``) maps to its representative.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = self.node_map[self.redirect[nodes]]
        require(bool(np.all(idx >= 0)), "node was eliminated without a representative")
        return idx

    def port_voltage_errors(
        self, original_voltages: np.ndarray, reduced_voltages: np.ndarray, ports: np.ndarray
    ) -> np.ndarray:
        """Absolute port-voltage differences original vs reduced."""
        reduced_idx = self.reduced_index_of(ports)
        return np.abs(original_voltages[ports] - reduced_voltages[reduced_idx])


class PGReducer:
    """Run Alg. 1 on a power grid (see module docstring)."""

    def __init__(self, grid: PowerGrid, config: "ReductionConfig | None" = None):
        self.config = config or ReductionConfig()
        self._load_grid(grid)
        self.rng = ensure_rng(self.config.seed)

        num_blocks = self.config.num_blocks
        if num_blocks is None:
            num_blocks = max(1, self.ports.size // self.config.ports_per_block)
        self.num_blocks = int(num_blocks)
        self.timer = Timer()
        with self.timer.section("partition"):
            self.labels = partition_graph(self.graph, self.num_blocks, seed=self.rng)
            self.roles = classify_nodes(self.graph, self.labels, self.ports)
        self._block_cache: dict[int, BlockReduction] = {}

    def _load_grid(self, grid: PowerGrid) -> None:
        """Take the resistor graph, ports and per-node caps/shunts of
        ``grid`` (the element values lumping and Schur reduction read)."""
        self.pg = grid
        self.graph = grid.to_graph()
        self.ports = grid.port_nodes()
        require(self.ports.size > 0, "grid has no ports — nothing to preserve")
        # a coupling cap counts at both ends; np.add.at over the interleaved
        # (a, b) ends keeps a per-capacitor loop's summation order
        ends = np.column_stack((grid.cap_a, grid.cap_b)).astype(np.int64).ravel()
        farads = np.repeat(np.asarray(grid.cap_farads, dtype=np.float64), 2)
        self._node_caps = np.zeros(grid.num_nodes)
        np.add.at(self._node_caps, ends[ends >= 0], farads[ends >= 0])
        self._node_shunts = np.zeros(grid.num_nodes)
        shunt_nodes = np.asarray(grid.shunt_node, dtype=np.int64)
        np.add.at(self._node_shunts, shunt_nodes, grid.shunt_siemens)

    # ------------------------------------------------------------------
    def _block_nodes(self, block_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == block_id)

    def _edge_resistances(
        self, graphs: "list[Graph]", timers: "list[Timer]"
    ) -> "list[np.ndarray]":
        """Every edge's effective resistance in each graph, from one
        :func:`~repro.core.engine.build_engines` call.

        The call's wall-clock (builds and edge queries) is split across
        ``timers`` by node count, under ``"effective_resistance"``.
        """
        engine = self.config.engine
        if engine.seed is None:
            # randomised engines share the pipeline RNG; EngineConfig
            # defaults already match the paper (epsilon/drop_tol 1e-3, amd)
            engine = engine.replace(seed=self.rng)
        start = time.perf_counter()
        resistances = [e.all_edge_resistances() for e in build_engines(graphs, engine)]
        elapsed = time.perf_counter() - start
        total_nodes = max(sum(graph.num_nodes for graph in graphs), 1)
        for graph, timer in zip(graphs, timers):
            timer.add("effective_resistance", elapsed * graph.num_nodes / total_nodes)
        return resistances

    def _set_resistances(self, works: "list[_BlockWork]") -> None:
        """Effective resistances for ``works`` from one shared engine build."""
        resistances = self._edge_resistances(
            [work.graph for work in works], [work.timer for work in works]
        )
        for work, values in zip(works, resistances):
            work.resistances = values

    def reduce_block(self, block_id: int) -> BlockReduction:
        """Steps 2–4 of Alg. 1 for one block (cached)."""
        return self._reduce_blocks([block_id])[0]

    def _reduce_blocks(self, block_ids) -> "list[BlockReduction]":
        """Steps 2–4 of Alg. 1 for ``block_ids``; cached blocks are reused.

        The uncached blocks go through the steps together: step 2 for
        each, step 3 in one shared engine build, then step 4 merges block
        by block, recomputes the resistances of the blocks that merged in
        one more shared build, and sparsifies in block order.  An engine
        that draws from the pipeline RNG takes the blocks one at a time
        instead, so the RNG stream — and the reduced grid — is the one a
        block-by-block reduction gives.
        """
        block_ids = [int(b) for b in block_ids]
        todo = [b for b in dict.fromkeys(block_ids) if b not in self._block_cache]
        engine = self.config.engine
        draws_from_rng = engine.seed is None and "seed" in engine_params(engine.method)
        groups = [[b] for b in todo] if draws_from_rng else [todo]
        for group in filter(None, groups):
            works = [self._schur_block(b) for b in group]
            # a block with no edge or at most two kept nodes has nothing
            # to merge or sparsify
            active = [w for w in works if w.graph.num_edges > 0 and w.kept.size > 2]
            self._set_resistances(active)
            self._set_resistances([w for w in active if self._merge(w)])
            for work in active:
                with work.timer.section("merge_sparsify"):
                    work.graph = spielman_srivastava_sparsify(
                        work.graph,
                        work.resistances,
                        sample_factor=self.config.sparsify_sample_factor,
                        seed=self.rng,
                    ).graph
            for work in works:
                self._block_cache[work.block_id] = work.result()
        return [self._block_cache[b] for b in block_ids]

    def _schur_block(self, block_id: int) -> "_BlockWork":
        """Step 2: eliminate the block's interior nodes exactly."""
        timer = Timer()
        with timer.section("schur"):
            nodes = self._block_nodes(block_id)
            keep_mask = self.roles[nodes] != int(NodeRole.INTERIOR)
            # internal edges of this block
            sub, original = self.graph.subgraph(nodes)
            block_matrix = laplacian(sub)
            shunts_here = self._node_shunts[nodes]
            if shunts_here.any():
                block_matrix = add_to_diagonal(block_matrix, np.arange(nodes.size), shunts_here)
            keep_local = np.flatnonzero(keep_mask)
            if keep_local.size == 0:
                # block with no ports/interface (isolated island): keep one
                # representative node so its mass is not lost silently
                keep_local = np.array([0], dtype=np.int64)
            reduction = schur_reduce(block_matrix, keep_local)
            heads_l, tails_l, conductances, shunts = laplacian_to_edges(reduction.reduced)
            caps = reduction.lump_values(self._node_caps[nodes])
            kept_original = original[reduction.keep]
            dropped = original[reduction.dropped] if reduction.dropped.size else np.empty(0, np.int64)
            block_graph = Graph(kept_original.size, heads_l, tails_l, conductances)
            if heads_l.size:
                block_graph = block_graph.coalesce()
        return _BlockWork(block_id, timer, block_graph, kept_original, shunts, caps, dropped)

    def _merge(self, work: "_BlockWork") -> bool:
        """Step 4a: merge the electrically-near nodes of ``work``; whether
        any merged (its resistances then need recomputing)."""
        if self.config.merge_resistance_fraction <= 0:
            return False
        with work.timer.section("merge_sparsify"):
            kept_original = work.kept
            finite = work.resistances[np.isfinite(work.resistances)]
            threshold = (
                self.config.merge_resistance_fraction * float(np.median(finite))
                if finite.size
                else 0.0
            )
            if self.config.protect_all_ports:
                protect_ids = self.ports
            else:
                # original [8] behaviour: only pads are sacred;
                # current-source ports may merge together
                protect_ids = self.pg.pad_nodes()
            protected_local = np.flatnonzero(np.isin(kept_original, protect_ids))
            merged = merge_by_effective_resistance(
                work.graph, work.resistances, threshold, protected=protected_local
            )
            if not merged.merged_count:
                return False
            # track which original nodes vanished and into whom; a
            # cluster's representative is its port if it has one (ports
            # never merge together), else lowest id
            new_of_old = merged.mapping
            is_port = np.isin(kept_original, self.ports)
            representatives = self._cluster_representatives(
                new_of_old, kept_original, is_port
            )
            gone_mask = representatives[new_of_old] != kept_original
            work.merged_away = kept_original[gone_mask]
            work.merge_target = representatives[new_of_old[gone_mask]]
            # fold shunts and caps of merged nodes into targets
            num_merged = merged.graph.num_nodes
            work.shunts = np.bincount(new_of_old, weights=work.shunts, minlength=num_merged)
            work.caps = np.bincount(new_of_old, weights=work.caps, minlength=num_merged)
            work.graph = merged.graph
            work.kept = representatives
            # the resistances refer to the pre-merge edges
            work.resistances = None
        return True

    @staticmethod
    def _cluster_representatives(
        mapping: np.ndarray, original_ids: np.ndarray, is_port: np.ndarray
    ) -> np.ndarray:
        """Pick one original id per merge cluster: its port if any, else
        the lowest original id."""
        num_clusters = int(mapping.max()) + 1 if mapping.size else 0
        # ports get priority by keying below every non-port
        offset = np.int64(original_ids.max()) + 1 if original_ids.size else np.int64(1)
        keys = np.where(is_port, original_ids, original_ids + offset)
        best = np.full(num_clusters, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, mapping, keys)
        return np.where(best >= offset, best - offset, best)

    # ------------------------------------------------------------------
    def invalidate_blocks(self, block_ids) -> None:
        """Forget cached reductions (used by incremental analysis)."""
        for b in block_ids:
            self._block_cache.pop(int(b), None)

    def rebuild_for(self, new_grid: PowerGrid, modified_blocks) -> "PGReducer":
        """Clone this reducer for an incrementally-modified grid.

        The new grid must have identical topology (same nodes, same
        resistor endpoints) — only element values may differ.  The clone
        shares the partition, node roles and every cached block reduction
        except the ``modified_blocks``, so its :meth:`reduce` performs only
        the incremental work (Table II lower half measures exactly that).
        """
        require(
            new_grid.num_nodes == self.pg.num_nodes,
            "incremental update requires identical node sets",
        )
        clone = PGReducer.__new__(PGReducer)
        clone.config = self.config
        clone._load_grid(new_grid)
        clone.rng = self.rng
        clone.num_blocks = self.num_blocks
        clone.timer = Timer()
        clone.labels = self.labels
        clone.roles = self.roles
        clone._block_cache = dict(self._block_cache)
        clone.invalidate_blocks(modified_blocks)
        return clone

    def reduce(self) -> ReducedGrid:
        """Run the full Alg. 1 and return the stitched reduced grid."""
        with self.timer.section("blocks"):
            blocks = self._reduce_blocks(range(self.num_blocks))
        with self.timer.section("stitch"):
            reduced = self._stitch(blocks)
        return reduced

    # ------------------------------------------------------------------
    def _stitch(self, blocks: "list[BlockReduction]") -> ReducedGrid:
        """Step 5: assemble reduced blocks + cross-block edges."""
        from repro.reduction.stitch import stitch_blocks

        return stitch_blocks(self, blocks)
