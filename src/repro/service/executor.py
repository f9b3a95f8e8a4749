"""Executors — how a planned query batch's sub-batches actually run.

The planner (:mod:`repro.service.planner`) turns one pair batch into
independent sub-batches (one per touched shard, optionally chunked); an
:class:`Executor` decides *where* those sub-batches run.  Two strategies:

* :class:`SerialExecutor` — run in the calling thread, zero overhead; the
  default, and exactly the pre-redesign behaviour;
* :class:`ThreadedExecutor` — fan sub-batches out over a shared
  :class:`concurrent.futures.ThreadPoolExecutor`, so a component-sharded
  engine answers a cold batch with every shard working concurrently.

The abstraction is deliberately tiny (ordered ``map`` + ``shutdown``) so a
process- or RPC-backed executor can slot in later without touching the
service; everything an executor runs is a pure function of its sub-batch,
which is what makes the fan-out safe and the results bit-identical to the
serial path.
"""

from __future__ import annotations

import abc
import concurrent.futures
import threading
from typing import Callable, Iterable, TypeVar

from repro.utils.validation import require

T = TypeVar("T")
R = TypeVar("R")


class Executor(abc.ABC):
    """Strategy for running a list of independent sub-batch tasks."""

    #: Degree of parallelism the executor offers (1 = serial).
    workers: int = 1
    #: Short label reported in :class:`~repro.service.BatchReport`.
    name: str = "executor"

    @abc.abstractmethod
    def map(self, fn: "Callable[[T], R]", items: "Iterable[T]") -> "list[R]":
        """Run ``fn`` over ``items``; results in input order.

        Implementations must propagate the first exception raised by any
        task to the caller.
        """

    def shutdown(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class SerialExecutor(Executor):
    """Run every sub-batch in the calling thread (the default)."""

    name = "serial"

    def map(self, fn: "Callable[[T], R]", items: "Iterable[T]") -> "list[R]":
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ThreadedExecutor(Executor):
    """Fan sub-batches out over a thread pool.

    Parameters
    ----------
    workers:
        Pool size (>= 1).  Sub-batches of one planned batch run
        concurrently; engine query math only reads built state (the
        engines' stage timers take their own lock, and a
        :class:`~repro.core.partitioned.PartitionedEngine` is fully built
        by its constructor), so the fan-out is safe for every registered
        engine.
    """

    name = "threaded"

    def __init__(self, workers: int = 4) -> None:
        require(workers >= 1, "workers must be >= 1")
        self.workers = int(workers)
        self._pool: "concurrent.futures.ThreadPoolExecutor | None" = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._pool_lock:  # concurrent first uses must share one pool
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="resistance-exec",
                )
            return self._pool

    def map(self, fn: "Callable[[T], R]", items: "Iterable[T]") -> "list[R]":
        batch = list(items)
        if len(batch) <= 1:  # skip pool dispatch for trivial fan-outs
            return [fn(item) for item in batch]
        futures = [self._ensure_pool().submit(fn, item) for item in batch]
        concurrent.futures.wait(futures)
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        # Swap the pool out under the lock, drain it outside: a worker
        # that re-entered ``map`` (and thus ``_ensure_pool``) must never
        # find ``shutdown`` waiting on it while holding ``_pool_lock``.
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadedExecutor(workers={self.workers})"


def make_executor(workers: "int | None") -> Executor:
    """``workers <= 1`` (or ``None``) → serial, else a thread pool."""
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ThreadedExecutor(workers)
