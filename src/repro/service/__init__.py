"""Query-serving layer — planner/executor architecture over the engines.

The serving stack answers effective-resistance traffic in three layers,
each usable on its own:

* :class:`~repro.service.planner.QueryPlanner` partitions one pair batch
  into trivially-answerable slices (``p == q``, cross-component),
  cache-resolvable pairs, and independent engine-bound
  :class:`~repro.service.planner.SubBatch` objects — one per component
  shard for a :class:`~repro.core.partitioned.PartitionedEngine`;
* :class:`~repro.service.executor.Executor` strategies run those
  sub-batches: :class:`~repro.service.executor.SerialExecutor` in the
  calling thread (default) or
  :class:`~repro.service.executor.ThreadedExecutor` fanning shards out
  over a thread pool, with results bit-identical either way;
* :class:`~repro.service.resistance_service.ResistanceService` owns an
  engine built from one :class:`~repro.core.engine.EngineConfig` plus a
  locked, direct-mapped, epoch-stamped pair-result table (24 B a slot),
  drives plan → execute → scatter for
  ``query_pairs`` (a scalar ``query`` goes straight to the engine's
  bit-identical ``query``), ranks edges by spanning-edge centrality,
  refreshes in place after graph edits,
  and reports per-batch :class:`~repro.service.resistance_service.BatchReport`
  accounting; everything is thread-safe, and node ids are validated at
  this boundary.

Requests may carry an SLA — ``query_pairs(pairs, rel_tol=…,
latency_budget=…)`` — served by the :class:`~repro.service.router.QueryRouter`
that :meth:`ResistanceService.enable_tiers` installs: calibrated
approximate tiers (:mod:`repro.estimators`) answer what they can certify
within the tolerance and budget, everything else escalates to the exact
path, and a request without an SLA is served bit-identically to a
service without tiers.

On top sits :class:`~repro.service.async_service.AsyncResistanceService`:
``submit(pairs) -> Future`` / ``await aquery_pairs(...)`` with a
micro-batching loop that coalesces concurrent small requests into one
planned batch per window (per distinct SLA) — so a fleet of callers
shares dedup, cache probes and the parallel shard fan-out.  Engine
persistence integrates via :meth:`ResistanceService.from_saved`
(``mmap=True`` maps the saved factor so co-located workers share pages),
and calibration profiles persist as JSON sidecars
(:meth:`~repro.service.router.CalibrationProfile.default_path`).

Still open (ROADMAP): sharding *within* a component, and process-backed
executors for GIL-free fan-out.
"""

from repro.service.async_service import AsyncResistanceService, AsyncServiceStats
from repro.service.executor import (
    Executor,
    SerialExecutor,
    ThreadedExecutor,
    make_executor,
)
from repro.service.planner import QueryPlan, QueryPlanner, SubBatch
from repro.service.resistance_service import (
    BatchReport,
    RefreshStats,
    ResistanceService,
    ServiceStats,
    SubBatchTiming,
)
from repro.service.router import (
    SLA,
    CalibrationProfile,
    QueryRouter,
    RoutingResult,
    TierCalibration,
    calibrate,
)

__all__ = [
    "ResistanceService",
    "ServiceStats",
    "RefreshStats",
    "BatchReport",
    "SubBatchTiming",
    "AsyncResistanceService",
    "AsyncServiceStats",
    "QueryPlanner",
    "QueryPlan",
    "SubBatch",
    "Executor",
    "SerialExecutor",
    "ThreadedExecutor",
    "make_executor",
    "SLA",
    "QueryRouter",
    "RoutingResult",
    "CalibrationProfile",
    "TierCalibration",
    "calibrate",
]
