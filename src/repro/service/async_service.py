"""``AsyncResistanceService`` — micro-batching async front-end.

A production resistance service sees many *small* concurrent requests (a
handful of pairs each), but the engines are at their best on *large*
batches: dedup only pays off across requests, and a sharded engine only
fans out when a batch touches many components.  This front-end bridges the
two shapes with a classic micro-batching loop:

* callers hand batches to :meth:`AsyncResistanceService.submit`, which
  returns a :class:`concurrent.futures.Future` immediately (or ``await``
  :meth:`aquery_pairs` from asyncio code);
* a background batcher thread collects everything that arrives within a
  configurable ``batch_window`` (or until ``max_batch_pairs`` accumulate),
  concatenates it into **one** planned batch, and runs it through the
  underlying :class:`~repro.service.ResistanceService` — so concurrent
  requests share the dedup pass, the cache probe and the parallel shard
  fan-out;
* each caller's slice of the coalesced answer resolves its future.

Requests may carry a per-request SLA (``rel_tol`` / ``latency_budget``,
see :mod:`repro.service.router`); the batcher coalesces per distinct SLA
— two tolerances never share a routed engine batch, but same-SLA
requests still pool their dedup and cache probes.

Requests are validated at submit time, so one bad node id fails only its
own future, never a whole coalesced batch.  The wrapped service stays
fully usable directly — synchronous ``query``/``query_pairs`` callers and
the batcher thread can share it, because the service itself is
thread-safe.

Example
-------
>>> from repro.graphs.generators import grid_2d
>>> from repro.service import AsyncResistanceService, ResistanceService
>>> service = ResistanceService(grid_2d(8, 8))
>>> with AsyncResistanceService(service, batch_window=0.001) as front:
...     futures = [front.submit([(0, i)]) for i in range(1, 5)]
...     answers = [float(f.result()[0]) for f in futures]
>>> len(answers)
4
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.engine import as_pair_array, validate_node_ids
from repro.service.executor import make_executor
from repro.service.resistance_service import BatchReport, ResistanceService
from repro.utils.validation import require


@dataclass
class AsyncServiceStats:
    """Lifetime counters of the micro-batching loop."""

    requests: int = 0
    pairs: int = 0
    batches: int = 0

    @property
    def coalescing_ratio(self) -> float:
        """Mean requests served per engine batch (1.0 = no coalescing)."""
        return self.requests / self.batches if self.batches else 0.0


class AsyncResistanceService:
    """Async, micro-batching facade over a :class:`ResistanceService`.

    Parameters
    ----------
    service:
        The (thread-safe) service that answers the coalesced batches; give
        it a :class:`~repro.service.executor.ThreadedExecutor` to combine
        micro-batching with parallel shard fan-out.
    batch_window:
        Seconds the batcher waits after the first pending request for more
        to arrive before executing (default 2 ms; 0 executes immediately
        with whatever is queued — still coalescing under load).
    max_batch_pairs:
        Execute early once this many pairs are pending (bounds latency and
        memory under heavy load).
    keep_reports:
        How many recent per-batch :class:`~repro.service.BatchReport`
        objects to retain in :attr:`reports`.
    """

    def __init__(
        self,
        service: ResistanceService,
        batch_window: float = 0.002,
        max_batch_pairs: int = 65536,
        keep_reports: int = 32,
    ):
        require(batch_window >= 0.0, "batch_window must be >= 0")
        require(max_batch_pairs >= 1, "max_batch_pairs must be >= 1")
        self.service = service
        self.batch_window = float(batch_window)
        self.max_batch_pairs = int(max_batch_pairs)
        self.stats = AsyncServiceStats()
        self.reports: "collections.deque[BatchReport]" = collections.deque(
            maxlen=keep_reports
        )
        self._pending: "collections.deque" = collections.deque()
        self._pending_pairs = 0
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._batch_loop, name="resistance-batcher", daemon=True
        )
        self._thread.start()

    @classmethod
    def from_graph(
        cls,
        graph,
        workers: "int | None" = None,
        batch_window: float = 0.002,
        max_batch_pairs: int = 65536,
        **service_kwargs,
    ) -> "AsyncResistanceService":
        """Build the whole stack from a graph in one call.

        ``workers`` sizes the executor of the underlying service (> 1 →
        :class:`~repro.service.executor.ThreadedExecutor`); remaining
        keyword arguments go to :class:`ResistanceService` (``config``,
        ``result_cache_size``).
        """
        service = ResistanceService(
            graph, executor=make_executor(workers), **service_kwargs
        )
        return cls(
            service, batch_window=batch_window, max_batch_pairs=max_batch_pairs
        )

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(
        self,
        pairs,
        rel_tol: "float | None" = None,
        latency_budget: "float | None" = None,
    ) -> "concurrent.futures.Future[np.ndarray]":
        """Enqueue a pair batch; the future resolves to its answers.

        Validation (pair shape, node-id range) happens here, synchronously,
        so a malformed request raises in the caller and can never poison a
        coalesced batch.  ``rel_tol``/``latency_budget`` attach an SLA,
        forwarded to
        :meth:`~repro.service.ResistanceService.query_pairs_with_report`;
        requests with the same SLA coalesce into one engine batch.
        """
        arr = as_pair_array(pairs)
        validate_node_ids(arr, self.service.graph.num_nodes)
        future: "concurrent.futures.Future[np.ndarray]" = concurrent.futures.Future()
        if arr.shape[0] == 0:
            future.set_result(np.empty(0))
            return future
        with self._cond:
            if self._closed:
                raise RuntimeError("AsyncResistanceService is closed")
            self._pending.append((arr, future, (rel_tol, latency_budget)))
            self._pending_pairs += arr.shape[0]
            self._cond.notify_all()
        return future

    def query_pairs(
        self,
        pairs,
        rel_tol: "float | None" = None,
        latency_budget: "float | None" = None,
    ) -> np.ndarray:
        """Synchronous convenience wrapper over :meth:`submit`."""
        return self.submit(
            pairs, rel_tol=rel_tol, latency_budget=latency_budget
        ).result()

    async def aquery_pairs(
        self,
        pairs,
        rel_tol: "float | None" = None,
        latency_budget: "float | None" = None,
    ) -> np.ndarray:
        """Awaitable pair batch (asyncio-native front door)."""
        return await asyncio.wrap_future(
            self.submit(pairs, rel_tol=rel_tol, latency_budget=latency_budget)
        )

    async def aquery(self, p: int, q: int) -> float:
        """Awaitable single-pair query."""
        values = await self.aquery_pairs([(int(p), int(q))])
        return float(values[0])

    # ------------------------------------------------------------------
    # the micro-batching loop
    # ------------------------------------------------------------------
    def _batch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                if not self._closed and self.batch_window > 0.0:
                    # first request seen: hold the window open for company
                    deadline = time.monotonic() + self.batch_window
                    while (
                        not self._closed
                        and self._pending_pairs < self.max_batch_pairs
                        and (remaining := deadline - time.monotonic()) > 0.0
                    ):
                        self._cond.wait(timeout=remaining)
                batch = list(self._pending)
                self._pending.clear()
                self._pending_pairs = 0
            if batch:
                self._execute(batch)

    def _execute(self, batch) -> None:
        # a caller may have cancelled its future while it sat in the queue
        active = [
            (arr, future, sla_key)
            for arr, future, sla_key in batch
            if future.set_running_or_notify_cancel()
        ]
        if not active:
            return
        # one engine batch per distinct SLA: different tolerances cannot
        # share a routed batch, but same-SLA requests still coalesce
        groups: "dict[tuple, list]" = {}
        for arr, future, sla_key in active:
            groups.setdefault(sla_key, []).append((arr, future))
        for (rel_tol, latency_budget), members in groups.items():
            coalesced = np.concatenate([arr for arr, _ in members])
            try:
                values, report = self.service.query_pairs_with_report(
                    coalesced, rel_tol=rel_tol, latency_budget=latency_budget
                )
            except BaseException as exc:  # propagate to every waiter
                for _, future in members:
                    future.set_exception(exc)
                continue
            with self._cond:  # stats/reports are read from caller threads
                self.stats.requests += len(members)
                self.stats.pairs += int(coalesced.shape[0])
                self.stats.batches += 1
                self.reports.append(report)
            offset = 0
            for arr, future in members:
                count = arr.shape[0]
                future.set_result(values[offset:offset + count].copy())
                offset += count

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: "float | None" = None) -> None:
        """Stop accepting requests, drain the queue, join the batcher."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __enter__(self) -> "AsyncResistanceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncResistanceService(window={self.batch_window}, "
            f"executor={self.service.executor.name}, "
            f"batches={self.stats.batches})"  # repro: ignore[atomicity] — cosmetic repr; a stale batch count is fine
        )
