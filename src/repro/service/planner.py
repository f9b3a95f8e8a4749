"""Query planning — partition one pair batch into executable sub-batches.

Serving a batch of ``(p, q)`` queries decomposes into slices with very
different costs, and the planner separates them *before* any engine work:

1. **trivial** — ``p == q`` (answer 0.0) and cross-component pairs (answer
   ``inf``); resolved from the component labels alone, no factor touched;
2. **duplicate** — the batch is canonicalised (``p <= q``) and deduplicated
   with one ``np.unique`` over packed pair codes, so a skewed stream pays
   the engine for each *distinct* pair once;
3. **cached** — distinct pairs found in the service's result table, a
   direct-mapped array cache probed with the same packed codes in one
   vectorised pass;
4. **sub-batches** — the remaining distinct misses, grouped by shard for a
   component-sharded engine (one :class:`SubBatch` per touched shard,
   translated to shard-local ids) or kept whole for a monolithic engine,
   optionally chunked so an executor can fan even one big group out.

Every sub-batch is independent — queries never couple across pairs — which
is what lets :mod:`repro.service.executor` run them concurrently with
results bit-identical to the serial path.  The plan object owns the
scatter/gather bookkeeping: sub-batch results land in a per-unique-pair
value table and one vectorised gather produces the caller-ordered output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import ResistanceEngine, as_pair_array
from repro.core.partitioned import PartitionedEngine


@dataclass
class SubBatch:
    """One independently executable slice of a planned batch.

    Attributes
    ----------
    shard_id:
        Shard group the pairs live in (``None`` for a monolithic engine).
        For a partitioned engine this is a region id (``< num_shards``,
        shard-local pairs) or a cross-region pseudo id (``>= num_shards``,
        global pairs routed through the separator Schur path) — the
        engine's ``query_shard`` dispatches on it either way.
    unique_rows:
        Indices into the plan's unique-pair table this sub-batch answers.
    pairs:
        ``(k, 2)`` id array to hand to the engine — shard-local ids for a
        region group, global ids otherwise.
    """

    shard_id: "int | None"
    unique_rows: np.ndarray
    pairs: np.ndarray

    @property
    def num_pairs(self) -> int:
        return self.pairs.shape[0]


@dataclass
class QueryPlan:
    """A batch partitioned into trivial / cached / engine-bound slices."""

    engine: ResistanceEngine
    inverse: np.ndarray            # request row -> unique-pair index
    codes: np.ndarray              # packed distinct pairs lo·n + hi (sorted)
    unique_lo: np.ndarray          # canonical distinct pairs (lo <= hi)
    unique_hi: np.ndarray
    values: np.ndarray             # per-unique answers, filled as slices resolve
    resolved: np.ndarray           # bool mask over uniques
    trivial_rows: int = 0          # request rows answered structurally
    cache_hit_rows: int = 0        # request rows answered from the result table
    subbatches: "list[SubBatch]" = field(default_factory=list)

    @property
    def num_queries(self) -> int:
        return self.inverse.shape[0]

    @property
    def num_unique(self) -> int:
        return self.unique_lo.shape[0]

    @property
    def num_misses(self) -> int:
        """Distinct pairs that must be answered by the engine."""
        return int(np.count_nonzero(~self.resolved))

    # ------------------------------------------------------------------
    def resolve_from_cache(self, probe) -> int:
        """Fill unresolved uniques from one bulk cache probe.

        ``probe(codes)`` takes the packed codes of the unresolved uniques
        and returns ``(hit mask, values)`` aligned with them, in one
        locked, vectorised pass.  Returns the number of *request rows*
        answered (the service's hit-counting unit).
        """
        pending = np.flatnonzero(~self.resolved)
        if pending.size == 0:
            return 0
        hit, values = probe(self.codes[pending])
        rows = pending[hit]
        if rows.size == 0:
            return 0
        self.values[rows] = values[hit]
        self.resolved[rows] = True
        hits = np.zeros(self.num_unique, dtype=bool)
        hits[rows] = True
        self.cache_hit_rows = int(np.count_nonzero(hits[self.inverse]))
        return self.cache_hit_rows

    def build_subbatches(self) -> "list[SubBatch]":
        """Group the remaining misses into engine-bound sub-batches.

        For a :class:`~repro.core.partitioned.PartitionedEngine` (which
        includes the classic component-sharded engine) the misses are
        grouped per region — translated to shard-local ids — plus one
        cross-region group per split component carrying global ids; any
        other engine gets one whole-batch task.
        """
        rows = np.flatnonzero(~self.resolved)
        self.subbatches = []
        if rows.size == 0:
            return self.subbatches
        los, his = self.unique_lo[rows], self.unique_hi[rows]
        if isinstance(self.engine, PartitionedEngine):
            for shard_id, positions, local in self.engine.shard_subbatches(los, his):
                self.subbatches.append(SubBatch(shard_id, rows[positions], local))
        else:
            self.subbatches.append(SubBatch(None, rows, np.column_stack([los, his])))
        return self.subbatches

    # ------------------------------------------------------------------
    def execute_subbatch(self, subbatch: SubBatch) -> np.ndarray:
        """Answer one sub-batch (safe to call from any executor thread)."""
        if subbatch.shard_id is None:
            return self.engine.query_pairs(subbatch.pairs)
        return self.engine.query_shard(subbatch.shard_id, subbatch.pairs)

    def scatter(self, subbatch: SubBatch, values: np.ndarray) -> None:
        """Record one sub-batch's results in the unique-value table."""
        self.values[subbatch.unique_rows] = values
        self.resolved[subbatch.unique_rows] = True

    def gather(self) -> np.ndarray:
        """Caller-ordered answers (every unique must be resolved)."""
        return self.values[self.inverse]


class QueryPlanner:
    """Builds :class:`QueryPlan` objects for one engine.

    Stateless apart from the engine reference, so a service can create one
    per batch and never worry about staleness across
    :meth:`~repro.service.ResistanceService.refresh_after_edge_update`.
    """

    def __init__(self, engine: ResistanceEngine):
        self.engine = engine

    def plan(self, pairs) -> QueryPlan:
        """Canonicalise, deduplicate and structurally resolve a batch.

        The cache pass (:meth:`QueryPlan.resolve_from_cache`) and sub-batch
        construction (:meth:`QueryPlan.build_subbatches`) are separate steps
        so the caller controls locking around its result cache, which it
        probes and fills with the plan's packed ``codes``.
        """
        arr = as_pair_array(pairs)
        n = self.engine.n
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        # pack each canonical pair into one int64 so dedup is a single
        # np.unique instead of a python dict over tuples
        codes = lo * np.int64(n) + hi
        unique_codes, inverse = np.unique(codes, return_inverse=True)
        unique_lo = unique_codes // n
        unique_hi = unique_codes % n
        values = np.full(unique_codes.shape[0], np.nan)
        labels = self.engine.component_labels
        same_node = unique_lo == unique_hi
        cross = labels[unique_lo] != labels[unique_hi]
        values[same_node] = 0.0
        values[cross] = np.inf
        resolved = same_node | cross
        plan = QueryPlan(
            engine=self.engine,
            inverse=inverse,
            codes=unique_codes,
            unique_lo=unique_lo,
            unique_hi=unique_hi,
            values=values,
            resolved=resolved,
        )
        plan.trivial_rows = int(np.count_nonzero(resolved[inverse]))
        return plan
