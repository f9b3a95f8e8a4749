"""``ResistanceService`` — a cached, thread-safe query front-end.

The engines in :mod:`repro.core.effective_resistance` are one-shot: build,
query, throw away.  Serving traffic needs a layer that (a) amortises the
build across millions of queries, (b) exploits the heavy skew of real query
streams (hot pairs, hot vertices) with caches, and (c) survives graph edits
without a caller-visible rebuild dance.  Since the planner/executor
redesign, every batch flows through the same three stages:

1. :class:`~repro.service.planner.QueryPlanner` canonicalises and
   deduplicates the batch (one ``np.unique`` over packed pair codes),
   resolves the trivial slices (``p == q`` → 0.0, cross-component → ``inf``)
   from the component labels, and probes the locked result table;
2. an :class:`~repro.service.executor.Executor` runs the remaining
   sub-batches — per shard for a component-sharded engine — serially by
   default or concurrently with :class:`~repro.service.executor.ThreadedExecutor`;
3. the plan scatters sub-batch results, fills the cache, and gathers the
   caller-ordered answers; a :class:`BatchReport` records the hit/miss
   split and per-sub-batch timings.

A scalar :meth:`ResistanceService.query` skips the planner: after the same
validation, ``p == q`` case and result-cache probe it asks the engine's own
``query(p, q)``, which every engine keeps bit-identical to a one-pair
``query_pairs`` — so a cached answer is the same whichever call filled it.
The result cache is a direct-mapped table of numpy arrays (24 B per slot)
keyed by the packed pair code; a new pair overwrites the one sharing its
slot, and a refresh retires every entry by bumping the epoch stamped on
it.  The result table and stats are lock-protected so many threads (or the
micro-batching loop of
:class:`~repro.service.async_service.AsyncResistanceService`) can share one
service.  One :class:`~repro.core.engine.EngineConfig` picks and tunes the
engine.  Node ids are validated at this boundary: out-of-range ids raise a
``ValueError`` naming the offender instead of an ``IndexError`` deep inside
an engine.  Built ``cholinv`` engines persist to disk
(:mod:`repro.core.persistence`); :meth:`ResistanceService.from_saved`
warm-starts a worker from such a file — with ``mmap=True`` the factor
arrays are memory-mapped so many workers on one host share pages.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.effective_resistance import CholInvEffectiveResistance
from repro.core.engine import (
    EngineConfig,
    ResistanceEngine,
    as_pair_array,
    build_engine,
    validate_node_ids,
)
from repro.estimators.base import BoundedResistanceEngine
from repro.estimators.landmark import LandmarkEffectiveResistance
from repro.graphs.graph import Graph
from repro.service.executor import Executor, SerialExecutor
from repro.service.planner import QueryPlanner
from repro.service.router import SLA, CalibrationProfile, QueryRouter, calibrate
from repro.utils.validation import require


def require_unsharded_tiers(max_shard_nodes: "int | None") -> None:
    """Reject SLA tiers over a sharded engine (``ValueError``).

    A sharded service has no tiers: each tier would be a sharded
    composite without error bounds.
    """
    require(
        max_shard_nodes is None,
        f"SLA tiers need an unsharded service, got "
        f"max_shard_nodes={max_shard_nodes!r}; serve with "
        f"max_shard_nodes=None to route queries across tiers",
    )


@dataclass
class ServiceStats:
    """Counters a service accumulates over its lifetime.

    ``result_hits`` counts request rows answered from the result table;
    ``result_misses`` counts *distinct* pairs sent to the engine (a
    deduplicated batch of 100 copies of one cold pair is 1 miss).  All
    counters are updated under the service lock, so they stay consistent
    however many threads share the service.
    """

    queries: int = 0
    result_hits: int = 0
    result_misses: int = 0
    refreshes: int = 0
    batches: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of pair queries answered from the result cache."""
        total = self.result_hits + self.result_misses
        return self.result_hits / total if total else 0.0


@dataclass
class RefreshStats:
    """Outcome of one :meth:`ResistanceService.refresh_after_edge_update`."""

    rebuild_seconds: float
    num_nodes: int
    num_edges: int
    invalidated_results: int
    # the rebuild kept the served engine's fill-reducing permutation
    reused_ordering: bool


@dataclass
class SubBatchTiming:
    """How long one engine-bound sub-batch of a planned batch took.

    ``tier`` names who answered it: ``"exact"`` for the service's own
    engine, otherwise the router tier (``"landmark"``) that served it
    under an SLA.
    """

    shard_id: "int | None"
    num_pairs: int
    seconds: float
    tier: str = "exact"


@dataclass
class BatchReport:
    """Per-request accounting of one planned/executed pair batch."""

    num_queries: int = 0
    trivial_rows: int = 0        # p == q and cross-component rows
    cache_hit_rows: int = 0
    unique_misses: int = 0       # distinct pairs an engine answered
    executor: str = "serial"
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0
    subbatch_timings: "list[SubBatchTiming]" = field(default_factory=list)
    # distinct pairs per serving tier for SLA-routed batches ("exact"
    # included); empty for plain batches
    tier_rows: "dict[str, int]" = field(default_factory=dict)

    @property
    def shards_touched(self) -> int:
        return len({t.shard_id for t in self.subbatch_timings})


_SLOT_MIX = 0x9E3779B97F4A7C15  # 2^64 / golden ratio: Fibonacci hashing
_SLOT_BYTES = 24  # int64 key + int64 epoch + float64 value


class _ResultTable:
    """Direct-mapped, epoch-stamped pair-result cache; thread-safe.

    Slot ``s`` holds a packed pair code ``keys[s] = lo·n + hi``, the service
    epoch its value was computed under, and the value (24 B per slot).  A
    code's slot is the top bits of ``code·_SLOT_MIX mod 2^64`` scaled to the
    capacity; a new pair overwrites the pair that held its slot.  An entry
    answers only a probe for the same code *and* epoch, so a refresh retires
    every entry by bumping the epoch.  Epochs start at 1: zeroed slots are
    empty, and untouched pages cost no RSS.  Every access holds :attr:`lock`;
    fills take a ``still_valid`` predicate, checked under it, that fences
    out writers whose epoch a concurrent refresh has retired.
    """

    def __init__(self, capacity: int):
        nbytes = _SLOT_BYTES * capacity
        try:
            # past the host's RAM a lazily mapped table would allocate now
            # and be OOM-killed later, as its slots fill
            if nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
                raise MemoryError
            # capacity 0 keeps one slot that no fill writes, so its epoch
            # 0 misses every probe
            self.keys = np.zeros(max(capacity, 1), dtype=np.int64)
            self.epochs = np.zeros(max(capacity, 1), dtype=np.int64)
            self.values = np.zeros(max(capacity, 1))
        except MemoryError:
            raise MemoryError(
                f"result_cache_size={capacity} needs a {nbytes:,} B result "
                f"table ({_SLOT_BYTES} B/slot), more than this host can allocate"
            ) from None
        self.capacity = capacity
        # keeps top·capacity inside 64 bits for any capacity
        self._shift = max(32, capacity.bit_length())
        self.lock = threading.Lock()

    def _slot(self, code):
        """Slot of a Python-int code, or of each code in a uint64 array."""
        top = ((code * _SLOT_MIX) & 0xFFFFFFFFFFFFFFFF) >> self._shift
        return (top * self.capacity) >> (64 - self._shift)

    def probe(self, codes: np.ndarray, epoch: int) -> "tuple[np.ndarray, np.ndarray]":
        """``(hit mask, values)`` aligned with ``codes``, one lock hold."""
        slots = self._slot(codes.astype(np.uint64))
        with self.lock:
            hit = (self.keys[slots] == codes) & (self.epochs[slots] == epoch)
            return hit, self.values[slots]

    def fill(self, codes: np.ndarray, values: np.ndarray, epoch: int, still_valid) -> None:
        """Store distinct ``codes`` with their ``values``, one lock hold."""
        slots = self._slot(codes.astype(np.uint64))
        with self.lock:
            if not self.capacity or not still_valid():
                return
            self.keys[slots] = codes
            # codes sharing a slot leave one of them in it; only that
            # code's row stamps the slot, whatever order numpy wrote in
            won = self.keys[slots] == codes
            self.epochs[slots[won]] = epoch
            self.values[slots[won]] = values[won]

    def probe_one(self, code: int, epoch: int) -> "float | None":
        slot = self._slot(code)
        with self.lock:
            if self.keys[slot] == code and self.epochs[slot] == epoch:
                return float(self.values[slot])
        return None

    def fill_one(self, code: int, value: float, epoch: int, still_valid) -> None:
        slot = self._slot(code)
        with self.lock:
            if self.capacity and still_valid():
                self.keys[slot] = code
                self.epochs[slot] = epoch
                self.values[slot] = value

    def count(self, epoch: int) -> int:
        """Entries stamped with ``epoch``."""
        with self.lock:
            return int(np.count_nonzero(self.epochs == epoch))


class ResistanceService:
    """Long-lived, cached, thread-safe effective-resistance query service.

    Parameters
    ----------
    graph:
        Weighted undirected graph to serve queries on.
    config:
        :class:`~repro.core.engine.EngineConfig` naming the engine and its
        tunables, used on every (re)build (default: Alg. 3 with the
        paper's settings); see :func:`repro.core.engine.registered_engines`.
    result_cache_size:
        Slots of the direct-mapped, epoch-stamped result table (24 B
        each, default 65536; 0 disables caching).
    executor:
        :class:`~repro.service.executor.Executor` running the planned
        sub-batches; default :class:`~repro.service.executor.SerialExecutor`.
        Pass a :class:`~repro.service.executor.ThreadedExecutor` to fan a
        sharded engine's per-component sub-batches out in parallel.
    max_task_pairs:
        Split engine-bound sub-batches larger than this so a threaded
        executor can balance them (default: no splitting).
    """

    def __init__(
        self,
        graph: Graph,
        config: "EngineConfig | None" = None,
        result_cache_size: int = 65536,
        executor: "Executor | None" = None,
        max_task_pairs: "int | None" = None,
    ):
        self._init_state(
            EngineConfig() if config is None else config,
            result_cache_size, executor, max_task_pairs,
        )
        self._build(graph)

    def _init_state(
        self,
        config: EngineConfig,
        result_cache_size: int,
        executor: "Executor | None" = None,
        max_task_pairs: "int | None" = None,
    ) -> None:
        for name, value, low in (
            ("result_cache_size", result_cache_size, 0),
            ("max_task_pairs", 1 if max_task_pairs is None else max_task_pairs, 1),
        ):
            require(  # a bool is an int, but never a count
                isinstance(value, (int, np.integer))
                and not isinstance(value, bool)
                and value >= low,
                f"{name} must be an integer >= {low}, got {value!r}",
            )
        # constructor helper: runs on a not-yet-shared instance, before the
        # locks it creates below even exist, so the lock-discipline rule's
        # once-locked-always-locked invariant cannot apply yet
        self.config = config  # repro: ignore[lock-discipline] — constructing
        self.stats = ServiceStats()  # repro: ignore[lock-discipline] — constructing
        self.executor = executor if executor is not None else SerialExecutor()
        self.max_task_pairs = max_task_pairs
        self.last_report: "BatchReport | None" = None
        self._results = _ResultTable(int(result_cache_size))
        self._edge_resistances: "tuple[np.ndarray, np.ndarray] | None" = None  # repro: ignore[lock-discipline] — constructing
        self._router: "QueryRouter | None" = None  # repro: ignore[lock-discipline] — constructing
        self._lock = threading.Lock()          # stats + engine swap
        self._refresh_lock = threading.Lock()  # serialises rebuilds
        self._edge_lock = threading.Lock()     # all_edge_resistances memo
        # bumped on every refresh; cache entries only answer probes of the
        # epoch they were computed under, and writes are dropped if a
        # refresh intervened, so an in-flight query can never poison a
        # freshly invalidated cache; 0 marks an empty table slot
        self._epoch = 1  # repro: ignore[lock-discipline] — constructing

    @classmethod
    def from_engine(
        cls,
        engine: ResistanceEngine,
        result_cache_size: int = 65536,
        executor: "Executor | None" = None,
        max_task_pairs: "int | None" = None,
    ) -> "ResistanceService":
        """Serve an already-built engine (skips the build entirely).

        Lets several services — e.g. a serial one and a thread-fanned one
        in a benchmark, or one per worker thread pool — share one expensive
        factorisation.  The engine must carry a ``config`` (engines from
        :func:`~repro.core.engine.build_engine` and
        :func:`~repro.core.persistence.load_engine` do) so refreshes know
        how to rebuild.
        """
        require(
            engine.config is not None,
            "engine has no config attached; build it through build_engine()",
        )
        service = cls.__new__(cls)
        service._init_state(
            engine.config, result_cache_size, executor, max_task_pairs
        )
        service.engine = engine
        service.graph = engine.graph
        return service

    @classmethod
    def from_saved(
        cls,
        path,
        result_cache_size: int = 65536,
        mmap: bool = False,
        executor: "Executor | None" = None,
        max_task_pairs: "int | None" = None,
    ) -> "ResistanceService":
        """Warm-start a service from an engine persisted with ``save()``.

        The expensive build is skipped entirely: the engine state (``Z̃``,
        permutation, norms, labels, graph, config) comes off disk, and
        later :meth:`refresh_after_edge_update` calls rebuild with the
        saved configuration.  With ``mmap=True`` the large arrays are
        memory-mapped read-only, so many worker processes on one host share
        the physical pages instead of each loading a private copy.  Its
        result table starts empty; untouched pages cost no resident memory.
        """
        from repro.core.persistence import load_engine

        engine = load_engine(path, mmap=mmap)
        return cls.from_engine(engine, result_cache_size, executor, max_task_pairs)

    # ------------------------------------------------------------------
    # construction / refresh
    # ------------------------------------------------------------------
    def _build(self, graph: Graph) -> float:
        start = time.perf_counter()
        with self._lock:  # snapshot: a refresh may be swapping configs
            config = self.config
        engine = build_engine(graph, config)
        with self._lock:  # engine + graph swap together, like a refresh
            self.engine = engine
            self.graph = graph
        return time.perf_counter() - start

    def refresh_after_edge_update(
        self,
        graph: "Graph | None" = None,
        edges=None,
        weights=None,
        build_workers: "int | None" = None,
    ) -> RefreshStats:
        """Rebuild the engine after graph edits and invalidate all caches.

        Either pass the fully edited ``graph``, or ``edges`` (an ``(m, 2)``
        array) with matching ``weights`` to add on top of the current graph
        — parallel occurrences coalesce, so adding an existing edge *adds
        conductance* exactly like wiring a resistor in parallel.

        ``build_workers`` overrides (and from then on replaces) the
        config's build parallelism for the rebuild — the knob that keeps a
        refresh short enough to run under live traffic.  Worker counts
        never change engine results, so a parallel rebuild serves the
        exact answers a serial one would.

        The rebuild goes through the served engine's
        :meth:`~repro.core.engine.ResistanceEngine.rebuilt`.  When the edit
        leaves the sparsity pattern unchanged — new weights, or ``edges``
        that only add conductance to existing edges — a ``cholinv``
        engine (warm-started ones included) refactors on its persisted
        fill-reducing permutation and skips the ordering, the largest
        stage of a mesh build; new node pairs, a different ordering or a
        sharded engine take a cold build.  Either way the new engine is
        bit-identical to ``build_engine(graph, config)``;
        :attr:`RefreshStats.reused_ordering` reports which path ran.

        Thread-safe: refreshes serialise among themselves, and queries in
        flight finish against the engine they started with — cache
        entries are epoch-stamped, so an overlapping query neither reads
        another engine's values nor leaves its own behind in a
        post-refresh cache; the engine swap and cache invalidation happen
        atomically.

        Any SLA router installed by :meth:`enable_tiers` is dropped in
        the same swap — its tier engines were built against the old
        graph — so SLA-routed queries raise until ``enable_tiers`` is
        called again on the rebuilt engine.
        """
        with self._refresh_lock:
            require(
                build_workers is None or build_workers >= 1,
                "build_workers must be >= 1",
            )
            if graph is None:
                require(edges is not None, "pass either graph or edges")
                edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
                # validate at the boundary: a bad endpoint id must raise a
                # clear ValueError here, not corrupt the rebuilt graph
                validate_node_ids(edges, self.graph.num_nodes)
                new_weights = (
                    np.ones(edges.shape[0])
                    if weights is None
                    else np.asarray(weights, dtype=np.float64).ravel()
                )
                require(
                    new_weights.shape[0] == edges.shape[0],
                    f"weights length {new_weights.shape[0]} does not match "
                    f"{edges.shape[0]} edges",
                )
                graph = Graph(
                    self.graph.num_nodes,
                    np.concatenate([self.graph.heads, edges[:, 0]]),
                    np.concatenate([self.graph.tails, edges[:, 1]]),
                    np.concatenate([self.graph.weights, new_weights]),
                ).coalesce()
            else:
                require(edges is None and weights is None,
                        "pass either graph or edges, not both")
            # build first — the old engine keeps serving meanwhile — then
            # swap + bump + invalidate atomically; the new worker count is
            # adopted only together with the engine it built, so a call
            # that fails (bad arguments or a build breakdown) never
            # changes how future refreshes build
            rebuild_config = (
                self.config
                if build_workers is None
                else self.config.replace(build_workers=int(build_workers))
            )
            with self._lock:
                engine = self.engine
            start = time.perf_counter()
            new_engine = engine.rebuilt(graph, rebuild_config)  # repro: ignore[blocking-under-lock] — _refresh_lock exists to serialise rebuilds; queries never take it
            rebuild = time.perf_counter() - start
            with self._lock:
                self.config = rebuild_config
                self.engine = new_engine
                self.graph = graph
                self._router = None  # tier engines belong to the old graph
                invalidated_results = self._results.count(self._epoch)
                self._epoch += 1  # retires every cached entry at once
                self.stats.refreshes += 1
            with self._edge_lock:
                self._edge_resistances = None
            return RefreshStats(
                rebuild_seconds=rebuild,
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                invalidated_results=invalidated_results,
                reused_ordering=new_engine.reused_ordering,
            )

    # ------------------------------------------------------------------
    # tiered serving
    # ------------------------------------------------------------------
    def enable_tiers(
        self,
        tiers: "tuple[str, ...]" = ("landmark",),
        calibration_pairs: int = 4096,
        calibration_seed: int = 0,
        profile: "CalibrationProfile | None" = None,
    ) -> CalibrationProfile:
        """Build approximate tier engines and install the SLA router.

        ``tiers`` lists bounded estimator names cheapest-first (the
        shipped one is ``"landmark"``, which shares the served cholinv
        factorisation); each is built with this service's config
        (``num_landmarks`` and ``landmark_strategy`` apply) and — unless a
        previously saved ``profile`` is passed — calibrated against the
        exact engine on ``calibration_pairs`` sampled pairs.  A passed
        ``profile`` must calibrate every requested tier; otherwise this
        raises ``ValueError`` instead of installing a router that would
        silently escalate every pair.  Returns the profile so callers can
        persist it next to a saved engine
        (:meth:`~repro.service.router.CalibrationProfile.default_path`).

        Tier builds and calibration run *outside* the service locks; the
        router is installed only if no refresh intervened.  After
        :meth:`refresh_after_edge_update` the router is dropped and this
        method must be called again.  A sharded service
        (a ``max_shard_nodes`` cap) has no tiers: each tier would be a
        sharded composite without error bounds.
        """
        require(len(tiers) >= 1, "need at least one tier")
        if profile is not None:
            missing = [name for name in tiers if name not in profile.tiers]
            require(
                not missing,
                f"the calibration profile does not cover tier(s) "
                f"{', '.join(map(repr, missing))}; it calibrates "
                f"{', '.join(map(repr, profile.tiers)) or 'no tier'}",
            )
        with self._lock:  # engine + graph + config swap together
            engine = self.engine
            graph = self.graph
            config = self.config
            epoch = self._epoch
        require_unsharded_tiers(config.max_shard_nodes)
        engines: "dict[str, BoundedResistanceEngine]" = {}
        for name in tiers:
            require(
                name != config.method,
                f"tier {name!r} is the service's exact engine itself",
            )
            if name == "landmark" and isinstance(
                engine, CholInvEffectiveResistance
            ):
                # reuse the served factorisation instead of a second build
                tier_engine: ResistanceEngine = (
                    LandmarkEffectiveResistance.from_base_engine(
                        engine,
                        num_landmarks=config.num_landmarks,
                        landmark_strategy=config.landmark_strategy,
                        seed=config.seed,
                    )
                )
            else:
                tier_engine = build_engine(graph, config.replace(method=name))
            require(
                isinstance(tier_engine, BoundedResistanceEngine),
                f"tier {name!r} reports no error bounds and cannot be "
                f"routed safely",
            )
            engines[name] = tier_engine
        if profile is None:
            profile = calibrate(
                engine,
                engines,
                num_pairs=calibration_pairs,
                seed=calibration_seed,
            )
        router = QueryRouter(profile, engines, order=tuple(tiers))
        with self._lock:
            require(
                self._epoch == epoch,
                "a refresh raced enable_tiers(); call it again so the "
                "tiers are built against the current engine",
            )
            self._router = router
        return profile

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, p: int, q: int) -> float:
        """Effective resistance between ``p`` and ``q`` (cached).

        Bit-identical to ``query_pairs([(p, q)])[0]``: a miss is answered
        by the engine's own scalar ``query``.
        """
        p, q = int(p), int(q)
        with self._lock:  # engine + epoch swap together; read them together
            engine = self.engine
            epoch = self._epoch
        # validate against the snapshot, before any accounting, so a bad
        # id fails cleanly even if a refresh shrank the graph meanwhile;
        # the plain range test keeps the array-based check off the hot path
        if not (0 <= p < engine.n and 0 <= q < engine.n):
            validate_node_ids((p, q), engine.n)
        with self._lock:
            self.stats.queries += 1
        if p == q:
            return 0.0
        lo, hi = (p, q) if p < q else (q, p)
        code = lo * engine.n + hi  # the planner's packed pair code
        cached = self._results.probe_one(code, epoch)
        if cached is not None:
            with self._lock:
                self.stats.result_hits += 1
            return cached
        with self._lock:
            self.stats.result_misses += 1
        value = engine.query(lo, hi)
        self._results.fill_one(
            code, value, epoch, still_valid=lambda: self._epoch == epoch
        )
        return value

    def query_pairs(
        self,
        pairs,
        rel_tol: "float | None" = None,
        latency_budget: "float | None" = None,
    ) -> np.ndarray:
        """Effective resistances for an ``(m, 2)`` array of node pairs.

        Runs the full planner/executor path; see
        :meth:`query_pairs_with_report` for the per-batch accounting and
        the meaning of the optional SLA parameters.
        """
        values, _ = self.query_pairs_with_report(
            pairs, rel_tol=rel_tol, latency_budget=latency_budget
        )
        return values

    def query_pairs_with_report(
        self,
        pairs,
        rel_tol: "float | None" = None,
        latency_budget: "float | None" = None,
    ) -> "tuple[np.ndarray, BatchReport]":
        """Answer a pair batch and report how it was served.

        The batch is planned (canonicalise → dedup → trivial slices →
        cache probe), the remaining sub-batches run on the configured
        executor (in parallel for a sharded engine with a
        :class:`~repro.service.executor.ThreadedExecutor`), results are
        scattered back and cached.  The returned
        :class:`BatchReport` carries the hit/miss split and per-sub-batch
        timings for this request alone.

        ``rel_tol`` / ``latency_budget`` attach an :class:`SLA` to the
        request: cache-missed pairs are offered to the router installed
        by :meth:`enable_tiers` first, which serves what its calibrated
        tiers can keep within the tolerance/budget and escalates the rest
        to the exact path above.  Cached exact results still short-circuit
        (they are free and better than any tier), and tier-served answers
        never enter the exact result cache.  With both left ``None`` the
        request takes the plain exact path, bit-identical to a service
        without tiers.
        """
        t_start = time.perf_counter()
        arr = as_pair_array(pairs)
        sla = (
            None
            if rel_tol is None and latency_budget is None
            else SLA(rel_tol=rel_tol, latency_budget=latency_budget)
        )
        with self._lock:  # engine + epoch swap together; read them together
            engine = self.engine
            epoch = self._epoch
            router = self._router
        require(
            sla is None or router is not None,
            "SLA-routed queries need enable_tiers() first (routers are "
            "dropped by refresh_after_edge_update)",
        )
        # validate against the snapshot, so ids stay in range for the
        # exact engine this batch runs on even if a refresh races us
        validate_node_ids(arr, engine.n)
        report = BatchReport(num_queries=arr.shape[0], executor=self.executor.name)
        if arr.shape[0] == 0:
            self.last_report = report
            return np.empty(0), report
        plan = QueryPlanner(engine).plan(arr)
        # only same-epoch entries may resolve this batch, so one batch
        # never mixes two engines
        plan.resolve_from_cache(lambda codes: self._results.probe(codes, epoch))
        routed_rows = 0
        if sla is not None and router is not None:
            pending = np.flatnonzero(~plan.resolved)
            if pending.size:
                routed = router.serve(
                    np.column_stack(
                        (plan.unique_lo[pending], plan.unique_hi[pending])
                    ),
                    sla,
                )
                kept = pending[routed.served]
                # approximate answers resolve the plan directly and are
                # NEVER written to the exact result table
                plan.values[kept] = routed.values[routed.served]
                plan.resolved[kept] = True
                routed_rows = int(kept.shape[0])
                for tier, count in routed.tier_rows.items():
                    report.tier_rows[tier] = count
                    report.subbatch_timings.append(
                        SubBatchTiming(
                            None, count,
                            routed.tier_seconds.get(tier, 0.0), tier=tier,
                        )
                    )
        subbatches = plan.build_subbatches(self.max_task_pairs)
        report.trivial_rows = plan.trivial_rows
        report.cache_hit_rows = plan.cache_hit_rows
        report.unique_misses = routed_rows + sum(
            s.num_pairs for s in subbatches
        )
        if sla is not None:
            report.tier_rows["exact"] = sum(s.num_pairs for s in subbatches)
        report.plan_seconds = time.perf_counter() - t_start
        with self._lock:
            self.stats.queries += report.num_queries
            self.stats.result_hits += report.cache_hit_rows
            self.stats.result_misses += report.unique_misses
            self.stats.batches += 1

        if subbatches:
            t_exec = time.perf_counter()

            def run(subbatch):
                t0 = time.perf_counter()
                values = plan.execute_subbatch(subbatch)
                return values, time.perf_counter() - t0

            results = self.executor.map(run, subbatches)
            report.execute_seconds = time.perf_counter() - t_exec
            for subbatch, (values, seconds) in zip(subbatches, results):
                plan.scatter(subbatch, values)
                report.subbatch_timings.append(
                    SubBatchTiming(subbatch.shard_id, subbatch.num_pairs, seconds)
                )
            rows = np.concatenate([s.unique_rows for s in subbatches])
            self._results.fill(
                plan.codes[rows], plan.values[rows], epoch,
                still_valid=lambda: self._epoch == epoch,
            )
        out = plan.gather()
        report.total_seconds = time.perf_counter() - t_start
        self.last_report = report
        return out, report

    # ------------------------------------------------------------------
    # centrality
    # ------------------------------------------------------------------
    def _edge_table(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(edge weights, edge resistances)`` of one engine snapshot.

        Memoised under ``_edge_lock`` until the next refresh invalidates
        it.  Weights and resistances come from the *same* engine/graph
        pair (snapshotted together under ``_lock``), so centrality never
        multiplies new weights into old resistances across a refresh.
        """
        with self._edge_lock:
            if self._edge_resistances is None:
                with self._lock:  # graph and engine swap together
                    engine, graph = self.engine, self.graph
                values = engine.query_pairs(graph.edge_array())  # repro: ignore[blocking-under-lock] — _edge_lock exists to serialise this one-off table fill; queries never take it
                self._edge_resistances = (graph.weights, values)
            return self._edge_resistances

    def all_edge_resistances(self) -> np.ndarray:
        """Effective resistance of every edge (cached after the first call)."""
        return self._edge_table()[1]

    def top_k_central_edges(self, k: int) -> "tuple[np.ndarray, np.ndarray]":
        """The ``k`` edges with the highest spanning-edge centrality.

        Returns ``(edge_indices, centralities)`` sorted by decreasing
        centrality ``w(e)·R(e)`` — the probability the edge appears in a
        uniformly random spanning tree (ties broken by edge index).
        """
        require(k >= 1, "k must be >= 1")
        weights, resistances = self._edge_table()
        centrality = weights * resistances
        k = min(k, centrality.shape[0])
        if k == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        # stable two-pass selection keeps deterministic tie order
        top = np.argpartition(-centrality, k - 1)[:k]
        top = top[np.lexsort((top, -centrality[top]))]
        return top, centrality[top]
