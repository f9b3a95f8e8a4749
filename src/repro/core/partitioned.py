"""Partitioned engines — shards from components *or* vertex separators.

PR 3's component sharding scaled out multi-component graphs, but a
social-network-shaped input — one giant connected component — still built
and served as a single monolithic factor.  This module generalises the
sharding layer so a shard is no longer synonymous with a connected
component: a :class:`ShardPlan` assigns every node either to a *region*
(shard) or to a *vertex separator*, and :class:`PartitionedEngine` factors
each region independently through the ordinary engine registry while
answering cross-region pairs **exactly** through a small dense Schur
complement on the separator (PEERS-style parallel exact solve; see
PAPERS.md).

One knob, ``EngineConfig.max_shard_nodes``, produces the plan: every
connected component becomes its own region, and a component larger than
the cap is split into separator-bounded regions by recursive bisection
+ vertex-separator extraction (the nested-dissection shape of
:mod:`repro.cholesky.nested_dissection`).  Cross-component pairs answer
``inf`` from the labels without touching any factor, and singleton
components never build.  A cap no component exceeds is plain
per-component sharding.

The math (block-arrow decomposition)
------------------------------------
Order a split component as regions ``R_1 .. R_k`` followed by the
separator ``S`` and ground one separator node; the grounded Laplacian
becomes a block-arrow matrix ``A`` with block-diagonal region part
``A_ii`` (pure region Laplacians plus the diagonal coupling mass — no
region–region blocks, because every region–region path crosses ``S``).
With ``m_pq = e_pᵀ A_ii⁻¹ e_q``, ``u_p = B_iᵀ A_ii⁻¹ e_p`` (``B_i =
A[R_i, S]``) and the Schur complement ``S_c = A_SS − Σ_i B_iᵀ A_ii⁻¹
B_i``, the block-inverse identities give one uniform formula for every
same-component pair::

    R(p, q) = base(p, q) + (u_p − u_q)ᵀ S_c⁻¹ (u_p − u_q)

where ``base = m_pp + m_qq − 2·m_pq·[same region]`` and separator
endpoints contribute ``u_s = −e_s``, ``m_ss = 0``.

The rim-node gadget makes the region factors reusable engines: region
``i`` is served by the *halo graph* ``H_i`` — the induced subgraph plus
one auxiliary rim node ``a`` tied to every boundary node ``v`` with the
node's total separator coupling ``c_v``.  Then ``A_ii`` equals the
Laplacian of ``H_i`` with row/column ``a`` deleted, so the deleted-node
inverse identity turns every ``m`` term into plain effective-resistance
queries against the *unmodified* registered engine::

    m_pq = (R_H(p, a) + R_H(q, a) − R_H(p, q)) / 2

In particular ``base`` for a same-region pair collapses to exactly
``R_H(p, q)`` — one engine query — and the correction term needs only
resistances from batch endpoints to the rim and to the boundary nodes.
With an exact region engine the whole construction is exact; with the
Alg. 3 engine the error stays at the region engines' configured level.

``S_c`` itself is assembled per region from
:func:`repro.reduction.schur.schur_reduce` on ``[[A_ii, B_i], [B_iᵀ,
0]]`` (the zero kept block makes the reduction return ``−B_iᵀ A_ii⁻¹
B_i`` directly), which parallelises over regions exactly like shard
builds; accumulation into ``S_c`` is serialised in shard order so every
worker count yields bit-identical engines.

The serving stack needs no changes: :meth:`PartitionedEngine.shard_subbatches`
returns region groups with shard-local pairs (ids ``< num_shards``) plus
one *cross group* per split component under a pseudo shard id ``>=
num_shards`` carrying global pairs, and :meth:`PartitionedEngine.query_shard`
dispatches on the id — so the planner/executor/async layers fan separator
traffic out exactly like any other shard.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from repro.cholesky.nested_dissection import vertex_separator
from repro.core.engine import (
    EngineConfig,
    ResistanceEngine,
    as_pair_array,
    as_pair_columns,
    build_engine,
)
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian
from repro.partition.multilevel import multilevel_bisection
from repro.reduction.schur import schur_reduce
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import require


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ShardPlan:
    """Node-to-shard assignment with an optional vertex separator.

    Attributes
    ----------
    num_shards:
        Number of regions.  Cross-region query groups use pseudo shard ids
        ``num_shards + j`` (one per split component, in
        :attr:`split_components` order).
    shard_of:
        Region id per node; ``-1`` marks separator nodes.
    component_labels:
        Connected-component label per node (separator nodes keep their
        component's label — a separator never changes reachability).
    num_components:
        Number of connected components.
    separator:
        Sorted global ids of all separator nodes (empty when no component
        was split).
    """

    num_shards: int
    shard_of: np.ndarray
    component_labels: np.ndarray
    num_components: int
    separator: np.ndarray

    @property
    def split_components(self) -> np.ndarray:
        """Sorted components that were split (i.e. own separator nodes)."""
        if self.separator.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.component_labels[self.separator])

    def members(self, shard: int) -> np.ndarray:
        """Sorted global node ids of one region."""
        return np.flatnonzero(self.shard_of == shard)

    def validate(self, graph: Graph) -> None:
        """Structural sanity: every node is a region node xor separator."""
        require(
            self.shard_of.shape[0] == graph.num_nodes,
            "plan does not cover the graph",
        )
        in_sep = np.zeros(graph.num_nodes, dtype=bool)
        in_sep[self.separator] = True
        require(
            bool(np.all((self.shard_of >= 0) != in_sep)),
            "plan nodes must be exactly one of region node / separator node",
        )
        if self.num_shards:
            sizes = np.bincount(
                self.shard_of[self.shard_of >= 0], minlength=self.num_shards
            )
            require(bool(sizes.min() > 0), "plan contains an empty region")


def _bisection_regions(
    sub: Graph, cap: int, rng: np.random.Generator
) -> "tuple[list[np.ndarray], np.ndarray]":
    """Recursive bisection + vertex separators until regions fit ``cap``.

    Returns ``(regions, separator)`` in ``sub``-local ids.  Sides emptied
    by their separator simply vanish (the "fold an empty region away"
    edge case), and blocks that cannot be split further become regions
    as-is.
    """
    sep_flags = np.zeros(sub.num_nodes, dtype=bool)
    regions: "list[np.ndarray]" = []

    def dissect(nodes: np.ndarray) -> None:
        if nodes.size == 0:
            return
        if nodes.size <= cap:
            regions.append(nodes)
            return
        block, original = sub.subgraph(nodes)
        if block.num_edges == 0:
            regions.append(nodes)
            return
        side = multilevel_bisection(block, seed=rng)
        if not side.any() or side.all():
            regions.append(nodes)  # could not split further
            return
        sep_local = vertex_separator(block, side)
        in_sep = np.zeros(block.num_nodes, dtype=bool)
        in_sep[sep_local] = True
        sep_flags[original[sep_local]] = True
        dissect(original[np.flatnonzero(side & ~in_sep)])
        dissect(original[np.flatnonzero(~side & ~in_sep)])

    dissect(np.arange(sub.num_nodes, dtype=np.int64))
    return regions, np.flatnonzero(sep_flags)


def separator_plan(
    graph: Graph,
    max_shard_nodes: int,
    seed: "int | np.random.Generator | None" = 0,
) -> ShardPlan:
    """One region per component, oversized components split by bisection.

    Parameters
    ----------
    max_shard_nodes:
        Region size cap; components at or below it stay whole regions
        (and need no separator machinery at all).  A component above it
        is split by recursive bisection + vertex separators until every
        region fits or cannot be split further; if that gains nothing it
        stays one region.
    seed:
        Seed for the randomised coarsening inside the partitioner.

    Regions are numbered in component order, a split component's regions
    consecutively.
    """
    require(
        max_shard_nodes >= 2,
        f"max_shard_nodes must be >= 2, got {max_shard_nodes}",
    )
    rng = ensure_rng(seed)
    labels, num_components = connected_components(graph)
    regions_per_component = np.ones(num_components, dtype=np.int64)
    splits = []
    for comp in np.flatnonzero(
        np.bincount(labels, minlength=num_components) > max_shard_nodes
    ).tolist():
        sub, original = graph.subgraph(np.flatnonzero(labels == comp))
        regions, sep_local = _bisection_regions(sub, max_shard_nodes, rng)
        if len(regions) > 1:  # else nothing was gained: keep it whole
            regions_per_component[comp] = len(regions)
            splits.append((comp, original, regions, sep_local))
    first_shard = np.cumsum(regions_per_component) - regions_per_component
    shard_of = first_shard[labels]
    for comp, original, regions, sep_local in splits:
        shard_of[original[sep_local]] = -1
        for j, region in enumerate(regions):
            shard_of[original[region]] = first_shard[comp] + j
    plan = ShardPlan(
        num_shards=int(regions_per_component.sum()),
        shard_of=shard_of,
        component_labels=labels,
        num_components=num_components,
        separator=np.flatnonzero(shard_of < 0),
    )
    plan.validate(graph)
    return plan

# ----------------------------------------------------------------------
# the separator (Schur) system of one split component
# ----------------------------------------------------------------------
@dataclass(eq=False)
class SeparatorSystem:
    """Dense Schur complement on one split component's separator.

    ``schur`` is ``S_c = A_SS − Σ_i B_iᵀ A_ii⁻¹ B_i`` over the
    component's separator nodes (sorted global ids in ``sep_nodes``),
    SPD because it is the Schur complement of the grounded component
    Laplacian; ``cho`` is its Cholesky factorisation ready for
    :func:`scipy.linalg.cho_solve`.
    """

    component: int
    sep_nodes: np.ndarray
    schur: np.ndarray
    cho: "tuple[np.ndarray, bool]" = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.cho is None:
            self.cho = scipy.linalg.cho_factor(self.schur)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class SavedParts:
    """Pieces an archive hands :class:`PartitionedEngine` (restore path).

    ``regions`` maps a region id to a loader that rehydrates the saved
    region engine from the region's halo graph and config; ``schurs``
    maps a split component to its saved Schur matrix ``S_c``.  The
    constructor builds whatever is absent.
    """

    regions: "dict[int, Callable[[Graph, EngineConfig], ResistanceEngine]]"
    schurs: "dict[int, np.ndarray]"


class PartitionedEngine(ResistanceEngine):
    """Composite engine serving a :class:`ShardPlan` behind the protocol.

    Parameters
    ----------
    graph:
        Weighted undirected graph (any number of components).
    config:
        Config of the *base* engine each region builds (``method`` plus
        its tunables) and of the plan (``max_shard_nodes``, which must be
        set; a cap no component exceeds is one region per component).
        Every region builds with ``config.replace(max_shard_nodes=None)``.
    plan:
        Pre-computed plan (persistence restore path); by default the plan
        comes from :func:`separator_plan`.
    saved:
        Saved region engines and Schur matrices (persistence restore
        path); every piece it lacks is built.

    Notes
    -----
    The constructor builds everything — the plan, every region engine,
    every separator system and the rim resistances of every coupled
    region — and nothing changes afterwards, so queries only read.
    Queries are grouped by region and translated through global↔local id
    maps; pairs crossing regions (or touching the separator) of a split
    component are answered through that component's
    :class:`SeparatorSystem` — exactly, per the module docstring.  Pairs
    crossing *components* remain ``inf`` without touching any factor,
    and singleton regions without coupling never build an engine.
    """

    def __init__(
        self,
        graph: Graph,
        config: EngineConfig,
        plan: "ShardPlan | None" = None,
        saved: "SavedParts | None" = None,
    ):
        require(
            config.max_shard_nodes is not None,
            "PartitionedEngine needs a max_shard_nodes cap "
            "(None is an unsharded engine: use build_engine)",
        )
        self.graph = graph
        self.n = graph.num_nodes
        self.timer = Timer()
        self.config = config
        self._shard_config = config.replace(max_shard_nodes=None)
        if saved is None:
            saved = SavedParts(regions={}, schurs={})

        with self.timer.section("plan"):
            if plan is None:
                plan = separator_plan(
                    graph,
                    config.max_shard_nodes,
                    seed=0 if config.seed is None else config.seed,
                )
            self.plan = plan
            self.component_labels = plan.component_labels
            self.num_shards = plan.num_shards
            self._index_plan()

        with self.timer.section("shard_build"):
            self._engines: "list[ResistanceEngine | None]" = [None] * self.num_shards
            for shard, load in saved.regions.items():
                engine = load(self._shard_graph(shard), self._shard_config)
                require(
                    engine.n == self._shard_graph_size(shard),
                    f"restored engine for shard {shard} has {engine.n} "
                    f"nodes, expected {self._shard_graph_size(shard)}",
                )
                self._engines[shard] = engine
            pending = [
                s
                for s in range(self.num_shards)
                if self._engines[s] is None and self._shard_graph_size(s) > 1
            ]
            for shard, engine in zip(pending, self._build_shards(pending)):
                self._engines[shard] = engine

        with self.timer.section("separator_system"):
            self._systems: "dict[int, SeparatorSystem]" = {}
            for component in self._split_components.tolist():
                sep_nodes = self._sep_nodes_of[component]
                schur = saved.schurs.get(component)
                if schur is None:
                    schur = self._build_schur(component)
                require(
                    schur.shape == (sep_nodes.size, sep_nodes.size),
                    "separator system shape does not match the plan",
                )
                self._systems[component] = SeparatorSystem(
                    component=component,
                    sep_nodes=sep_nodes,
                    schur=np.ascontiguousarray(schur, dtype=np.float64),
                )

        # R_H(v, rim) for every boundary node v of every coupled region
        self._rim_base: "dict[int, np.ndarray]" = {}
        for shard, boundary in self._boundary.items():
            rim = self._members[shard].size
            self._rim_base[shard] = self._engines[shard].query_pairs(
                np.column_stack([boundary, np.full(boundary.size, rim)])
            )

    # ------------------------------------------------------------------
    # plan indexing (pure derivation from the plan — no factorisation)
    # ------------------------------------------------------------------
    def _index_plan(self) -> None:
        plan = self.plan
        shard_of = plan.shard_of
        # members of each region, in ascending global id order; _local maps
        # a global id to its rank inside its region (or inside its
        # component's separator list, for separator nodes)
        order = np.argsort(shard_of, kind="stable")
        order = order[shard_of[order] >= 0]
        counts = np.bincount(shard_of[shard_of >= 0], minlength=self.num_shards)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self._local = np.empty(self.n, dtype=np.int64)
        self._local[order] = np.arange(order.size) - np.repeat(starts, counts)
        self._members = np.split(order, np.cumsum(counts)[:-1])
        # separator nodes rank within their component's sorted separator
        self._split_components = plan.split_components
        self._cross_of_component = {
            int(c): self.num_shards + j
            for j, c in enumerate(self._split_components.tolist())
        }
        self._sep_nodes_of = {}
        for comp in self._split_components.tolist():
            sep = plan.separator[
                self.component_labels[plan.separator] == comp
            ]
            self._sep_nodes_of[int(comp)] = sep
            self._local[sep] = np.arange(sep.size)
        # per-region coupling to the separator: W[v_local, t_local] is the
        # total conductance between region node v and separator node t
        self._coupling: "dict[int, sp.csr_matrix]" = {}
        self._boundary: "dict[int, np.ndarray]" = {}
        heads, tails = self.graph.heads, self.graph.tails
        sep_side = shard_of[heads] < 0
        one_sep = sep_side != (shard_of[tails] < 0)
        if one_sep.any():
            region_end = np.where(sep_side, tails, heads)[one_sep]
            sep_end = np.where(sep_side, heads, tails)[one_sep]
            weights = self.graph.weights[one_sep]
            shards = shard_of[region_end]
            for s in np.unique(shards).tolist():
                rows = np.flatnonzero(shards == s)
                comp = int(self.component_labels[region_end[rows[0]]])
                width = self._sep_nodes_of[comp].size
                coupling = sp.coo_matrix(
                    (
                        weights[rows],
                        (
                            self._local[region_end[rows]],
                            self._local[sep_end[rows]],
                        ),
                    ),
                    shape=(self._members[s].size, width),
                ).tocsr()
                coupling.sum_duplicates()
                self._coupling[int(s)] = coupling
                self._boundary[int(s)] = np.flatnonzero(
                    np.diff(coupling.indptr) > 0
                )

    def _shard_graph_size(self, shard: int) -> int:
        return self._members[shard].size + (1 if shard in self._coupling else 0)

    def _shard_graph(self, shard: int) -> Graph:
        """The graph region ``shard``'s engine serves.

        Plain induced subgraph for component shards and unsplit-component
        regions; for a region of a split component, the *halo graph*: the
        subgraph plus one rim node (id ``len(members)``) tied to every
        boundary node with its total separator coupling (the module
        docstring's gadget).
        """
        members = self._members[shard]
        sub, _ = self.graph.subgraph(members)
        coupling = self._coupling.get(shard)
        if coupling is None:
            return sub
        strengths = np.asarray(coupling.sum(axis=1)).ravel()
        boundary = self._boundary[shard]
        rim = members.size
        return Graph(
            rim + 1,
            np.concatenate([sub.heads, boundary]),
            np.concatenate([sub.tails, np.full(boundary.size, rim)]),
            np.concatenate([sub.weights, strengths[boundary]]),
        )

    # ------------------------------------------------------------------
    # region engines and separator systems (built once, in __init__)
    # ------------------------------------------------------------------
    def shard_sizes(self) -> np.ndarray:
        """Node count of every region (rim nodes not counted)."""
        return np.array([m.size for m in self._members], dtype=np.int64)

    def _build_shards(self, shards: "list[int]") -> "list[ResistanceEngine]":
        """Build the given shards, fanning out over ``build_workers`` threads.

        The shards are the primary parallel unit; any whole-number worker
        surplus beyond the shard count is divided among the sub-builds as
        Alg. 2 level parallelism (``workers // len(shards)`` each), so
        the pool is never oversubscribed.  Either way the resulting
        engines are bit-identical — worker counts never change engine
        math.
        """
        workers = self.config.build_workers
        if workers > 1 and len(shards) > 1:
            per_shard = self._shard_config.replace(
                build_workers=max(1, workers // len(shards))
            )
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=min(workers, len(shards)),
                thread_name_prefix="shard-build",
            ) as pool:
                return list(
                    pool.map(
                        lambda s: build_engine(self._shard_graph(s), per_shard),
                        shards,
                    )
                )
        # serially, each shard gets the whole budget as Alg. 2 level
        # parallelism
        return [build_engine(self._shard_graph(s), self._shard_config) for s in shards]

    def _build_schur(self, component: int) -> np.ndarray:
        """Assemble ``S_c`` for one split component via per-region Schur.

        Per-region reductions run on ``config.build_workers`` threads;
        the accumulation into ``S_c`` is serialised in shard order, so
        the assembled matrix is bit-identical at every worker count.
        """
        sep_nodes = self._sep_nodes_of[component]
        comp_members = np.flatnonzero(self.component_labels == component)
        comp_sub, comp_nodes = self.graph.subgraph(comp_members)
        sep_local = np.searchsorted(comp_nodes, sep_nodes)
        ground = self.config.ground_value
        if ground is None:
            ground = float(comp_sub.weights.mean())
        matrix, _ = grounded_laplacian(
            comp_sub, ground, ground_nodes=sep_local[:1]
        )
        matrix = sp.csc_matrix(matrix)
        schur = matrix[sep_local, :][:, sep_local].toarray()
        shards = np.unique(self.plan.shard_of[comp_members])
        shards = shards[shards >= 0].tolist()

        def reduce_region(shard: int) -> "tuple[np.ndarray, np.ndarray]":
            region_local = np.searchsorted(comp_nodes, self._members[shard])
            a_ii = matrix[region_local, :][:, region_local]
            b_full = sp.csc_matrix(matrix[region_local, :][:, sep_local])
            cols = np.flatnonzero(np.diff(b_full.indptr) > 0)
            b_narrow = b_full[:, cols]
            block = sp.bmat(
                [[a_ii, b_narrow], [b_narrow.T, None]], format="csc"
            )
            keep = np.arange(region_local.size, region_local.size + cols.size)
            reduction = schur_reduce(block, keep)
            require(
                reduction.dropped.size == 0,
                f"region {shard} has interior nodes with no path to the "
                f"separator — invalid plan",
            )
            return cols, reduction.reduced  # −B_iᵀ A_ii⁻¹ B_i

        workers = self.config.build_workers
        if workers > 1 and len(shards) > 1:
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=min(workers, len(shards)),
                thread_name_prefix="schur-build",
            ) as pool:
                reduced = list(pool.map(reduce_region, shards))
        else:
            reduced = [reduce_region(s) for s in shards]
        for cols, contribution in reduced:  # fixed order: bit-stable sum
            schur[np.ix_(cols, cols)] += contribution
        return schur

    # ------------------------------------------------------------------
    # u-vectors (the correction machinery)
    # ------------------------------------------------------------------
    def _u_block(
        self, shard: int, endpoints: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(U, m_diag)`` for region-local ``endpoints`` of one region.

        ``U[:, j] = u_{p_j}`` (length = the component's separator size)
        and ``m_diag[j] = m_{p_j p_j} = R_H(p_j, rim)``, both via plain
        engine queries per the rim-node identity.
        """
        engine = self._engines[shard]
        boundary = self._boundary[shard]
        rim = self._members[shard].size
        rim_p = engine.query_pairs(
            np.column_stack([endpoints, np.full(endpoints.size, rim)])
        )
        rim_b = self._rim_base[shard]
        grid = engine.query_pairs(
            np.column_stack(
                [
                    np.repeat(boundary, endpoints.size),
                    np.tile(endpoints, boundary.size),
                ]
            )
        ).reshape(boundary.size, endpoints.size)
        m = 0.5 * (rim_b[:, None] + rim_p[None, :] - grid)
        coupling_b = self._coupling[shard][boundary]
        u = -(coupling_b.T @ m)
        return u, rim_p

    def _endpoint_vectors(
        self, component: int, endpoints: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(U, m_diag)`` for *global* endpoints of one split component.

        Separator endpoints contribute ``u_s = −e_s`` and ``m_ss = 0``;
        region endpoints are grouped per region and answered by
        :meth:`_u_block`.
        """
        width = self._sep_nodes_of[component].size
        u = np.zeros((width, endpoints.size))
        m_diag = np.zeros(endpoints.size)
        shard_of = self.plan.shard_of[endpoints]
        sep_sel = np.flatnonzero(shard_of < 0)
        u[self._local[endpoints[sep_sel]], sep_sel] = -1.0
        for s in np.unique(shard_of[shard_of >= 0]).tolist():
            sel = np.flatnonzero(shard_of == s)
            u[:, sel], m_diag[sel] = self._u_block(
                int(s), self._local[endpoints[sel]]
            )
        return u, m_diag

    @staticmethod
    def _correction(
        system: SeparatorSystem, u: np.ndarray, pair_index: np.ndarray
    ) -> np.ndarray:
        """``(u_p − u_q)ᵀ S_c⁻¹ (u_p − u_q)`` per pair, batched."""
        w = u[:, pair_index[:, 0]] - u[:, pair_index[:, 1]]
        solved = scipy.linalg.cho_solve(system.cho, w)
        return np.einsum("ij,ij->j", w, solved)

    # ------------------------------------------------------------------
    # sub-batch interface (what the serving layer's planner fans out)
    # ------------------------------------------------------------------
    def shard_subbatches(
        self, ps, qs
    ) -> "list[tuple[int, np.ndarray, np.ndarray]]":
        """Group within-component pairs into executable sub-batches.

        Returns ``(shard_id, positions, pairs)`` triples: region groups
        carry shard ids ``< num_shards`` with *shard-local* pairs (the
        classic component-shard contract), and each split component's
        cross-region / separator-touching pairs form one group under the
        pseudo shard id ``num_shards + j`` carrying *global* pairs.
        :meth:`query_shard` dispatches on the id, so planner/executor
        code treats both kinds uniformly.  Self pairs and cross-component
        pairs are excluded — they never need an engine.
        """
        ps = np.asarray(ps, dtype=np.int64)
        qs = np.asarray(qs, dtype=np.int64)
        labels = self.component_labels
        active = np.flatnonzero((labels[ps] == labels[qs]) & (ps != qs))
        if active.size == 0:
            return []
        shard_p = self.plan.shard_of[ps[active]]
        shard_q = self.plan.shard_of[qs[active]]
        intra_mask = (shard_p == shard_q) & (shard_p >= 0)
        subbatches = []
        intra = active[intra_mask]
        if intra.size:
            shards = self.plan.shard_of[ps[intra]]
            order = np.argsort(shards, kind="stable")
            grouped = intra[order]
            boundaries = np.flatnonzero(np.diff(shards[order])) + 1
            for group in np.split(grouped, boundaries):
                local = np.column_stack(
                    [self._local[ps[group]], self._local[qs[group]]]
                )
                shard = int(self.plan.shard_of[ps[group[0]]])
                subbatches.append((shard, group, local))
        cross = active[~intra_mask]
        if cross.size:
            components = labels[ps[cross]]
            order = np.argsort(components, kind="stable")
            grouped = cross[order]
            boundaries = np.flatnonzero(np.diff(components[order])) + 1
            for group in np.split(grouped, boundaries):
                comp = int(labels[ps[group[0]]])
                pairs = np.column_stack([ps[group], qs[group]])
                subbatches.append((self._cross_of_component[comp], group, pairs))
        return subbatches

    def query_shard(self, shard_id: int, pairs) -> np.ndarray:
        """Answer one sub-batch from :meth:`shard_subbatches`.

        Region ids (``< num_shards``) take shard-local pairs; pseudo ids
        (``>= num_shards``) take global pairs and run the Schur path.
        A singleton region has no engine and answers ``0`` for its one
        pair.  Only reads built state, so it is safe from several threads
        at once.
        """
        total = self.num_shards + self._split_components.size
        require(
            0 <= shard_id < total,
            f"shard id {shard_id} out of range for {total} shard groups",
        )
        pairs = as_pair_array(pairs)
        if shard_id >= self.num_shards:
            component = int(self._split_components[shard_id - self.num_shards])
            return self._query_cross(component, pairs)
        engine = self._engines[shard_id]
        if engine is None:
            return np.zeros(pairs.shape[0])
        base = engine.query_pairs(pairs)
        if shard_id not in self._coupling:
            return base
        # same-region pair in a split component: exact Schur correction
        component = int(self.component_labels[self._members[shard_id][0]])
        system = self._systems[component]
        endpoints, inverse = np.unique(pairs.ravel(), return_inverse=True)
        u, _ = self._u_block(shard_id, endpoints)
        return base + self._correction(system, u, inverse.reshape(-1, 2))

    def _query_cross(self, component: int, pairs: np.ndarray) -> np.ndarray:
        """Cross-region / separator pairs of one split component (global ids)."""
        system = self._systems[component]
        endpoints, inverse = np.unique(pairs.ravel(), return_inverse=True)
        u, m_diag = self._endpoint_vectors(component, endpoints)
        pair_index = inverse.reshape(-1, 2)
        base = m_diag[pair_index[:, 0]] + m_diag[pair_index[:, 1]]
        return base + self._correction(system, u, pair_index)

    # ------------------------------------------------------------------
    def query_pairs(self, pairs) -> np.ndarray:
        """Batch queries routed group-by-group; cross-component → ``inf``."""
        ps, qs = as_pair_columns(pairs)
        out = np.full(ps.shape[0], np.inf)
        with self.timer.section("queries"):
            for shard_id, group, grouped_pairs in self.shard_subbatches(ps, qs):
                out[group] = self.query_shard(shard_id, grouped_pairs)
        out[ps == qs] = 0.0
        return out

    # ------------------------------------------------------------------
    # introspection / persistence
    # ------------------------------------------------------------------
    def partition_report(self) -> "dict[str, object]":
        """Plan diagnostics: balance, cut and separator quality.

        Returns a dict with the ``max_shard_nodes`` cap, the shard counts, the
        :class:`~repro.partition.interface.PartitionQuality` of the region
        labelling and one
        :class:`~repro.partition.interface.SeparatorQuality` per split
        component — the "why was this partition accepted" report the CLI
        prints under ``--partition-report``.
        """
        from repro.partition.interface import (
            partition_quality,
            separator_quality,
        )

        return {
            "max_shard_nodes": self.config.max_shard_nodes,
            "num_shards": int(self.num_shards),
            "num_components": int(self.plan.num_components),
            "split_components": [int(c) for c in self._split_components],
            "separator_size": int(self.plan.separator.size),
            "shard_sizes": self.shard_sizes(),
            "partition": partition_quality(self.graph, self.plan.shard_of),
            "separators": separator_quality(
                self.graph, self.plan.shard_of, self.component_labels
            ),
        }

    def save(self, path):
        """Serialise the plan, separator systems and region factors."""
        from repro.core.persistence import save_engine

        return save_engine(self, path)
