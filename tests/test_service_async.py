"""AsyncResistanceService: futures, asyncio, micro-batch coalescing."""

import asyncio
import concurrent.futures
import threading

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.graphs.generators import grid_2d
from repro.graphs.graph import Graph
from repro.service import (
    AsyncResistanceService,
    ResistanceService,
    ThreadedExecutor,
)


@pytest.fixture
def multi_component() -> Graph:
    return Graph.disjoint_union(
        [grid_2d(5, 5, jitter=0.3, seed=s) for s in range(3)]
    )


@pytest.fixture
def front(multi_component):
    service = ResistanceService(
        multi_component, config=EngineConfig(max_shard_nodes=multi_component.num_nodes)
    )
    with AsyncResistanceService(service, batch_window=0.003) as front:
        yield front


class TestSubmit:
    def test_future_resolves_to_answers(self, front):
        pairs = [(0, 5), (1, 7), (0, 30)]
        expected = front.service.query_pairs(pairs)
        got = front.submit(pairs).result(timeout=10)
        assert np.array_equal(got, expected)

    def test_empty_batch_immediate(self, front):
        future = front.submit([])
        assert future.done()
        assert future.result().shape == (0,)

    def test_burst_coalesces(self, multi_component):
        service = ResistanceService(
            multi_component, config=EngineConfig(max_shard_nodes=multi_component.num_nodes)
        )
        with AsyncResistanceService(service, batch_window=0.05) as front:
            futures = [front.submit([(0, i)]) for i in range(1, 11)]
            results = [f.result(timeout=10) for f in futures]
        assert front.stats.requests == 10
        assert front.stats.batches < 10  # the window merged the burst
        assert front.stats.coalescing_ratio > 1.0
        expected = service.query_pairs([(0, i) for i in range(1, 11)])
        got = np.concatenate(results)
        assert np.array_equal(got, expected)

    def test_bad_request_fails_alone(self, front):
        good = front.submit([(0, 1)])
        with pytest.raises(ValueError, match="node id 999"):
            front.submit([(0, 999)])
        assert np.isfinite(good.result(timeout=10)[0])

    def test_window_zero_still_serves(self, multi_component):
        service = ResistanceService(multi_component)
        with AsyncResistanceService(service, batch_window=0.0) as front:
            values = front.query_pairs([(0, 3), (2, 2)])
        assert values.shape == (2,)
        assert values[1] == 0.0

    def test_max_batch_pairs_flushes_early(self, multi_component):
        service = ResistanceService(multi_component)
        with AsyncResistanceService(
            service, batch_window=5.0, max_batch_pairs=4
        ) as front:
            futures = [front.submit([(0, i), (1, i)]) for i in range(1, 4)]
            # 6 pairs > max 4: the loop must flush well before the 5s window
            results = [f.result(timeout=10) for f in futures]
        assert all(r.shape == (2,) for r in results)


class TestAsyncio:
    def test_aquery_pairs(self, front):
        pairs = [(0, 7), (30, 31)]
        expected = front.service.query_pairs(pairs)

        async def go():
            return await front.aquery_pairs(pairs)

        assert np.array_equal(asyncio.run(go()), expected)

    def test_aquery_single(self, front):
        expected = front.service.query(0, 7)

        async def go():
            return await front.aquery(0, 7)

        assert asyncio.run(go()) == expected

    def test_gather_many_clients(self, front):
        n = front.service.graph.num_nodes

        async def client(i):
            return await front.aquery_pairs([(i, i + 1), (i, n - 1)])

        async def go():
            return await asyncio.gather(*[client(i) for i in range(8)])

        results = asyncio.run(go())
        direct = front.service.query_pairs(
            [(i, j) for i in range(8) for j in (i + 1, n - 1)]
        )
        assert np.array_equal(np.concatenate(results), direct)


class TestLifecycle:
    def test_submit_after_close_raises(self, multi_component):
        service = ResistanceService(multi_component)
        front = AsyncResistanceService(service, batch_window=0.0)
        front.close()
        assert front.closed
        with pytest.raises(RuntimeError, match="closed"):
            front.submit([(0, 1)])

    def test_close_drains_pending(self, multi_component):
        service = ResistanceService(multi_component)
        front = AsyncResistanceService(service, batch_window=0.2)
        futures = [front.submit([(0, i)]) for i in range(1, 6)]
        front.close(timeout=10)  # must flush the open window, not drop it
        for future in futures:
            assert future.result(timeout=1).shape == (1,)

    def test_close_idempotent(self, multi_component):
        front = AsyncResistanceService(
            ResistanceService(multi_component), batch_window=0.0
        )
        front.close()
        front.close()

    def test_from_graph_builds_stack(self, multi_component):
        with AsyncResistanceService.from_graph(
            multi_component,
            workers=2,
            batch_window=0.001,
            config=EngineConfig(max_shard_nodes=multi_component.num_nodes),
        ) as front:
            assert isinstance(front.service.executor, ThreadedExecutor)
            value = front.submit([(0, 5)]).result(timeout=10)
        assert np.isfinite(value[0])

    def test_cancelled_future_skipped(self, multi_component):
        service = ResistanceService(multi_component)
        front = AsyncResistanceService(service, batch_window=0.5)
        hold = front.submit([(0, 1)])
        victim = front.submit([(0, 2)])
        assert victim.cancel()
        front.close(timeout=10)
        assert hold.result(timeout=1).shape == (1,)
        with pytest.raises(concurrent.futures.CancelledError):
            victim.result(timeout=1)

    def test_reports_recorded(self, multi_component):
        service = ResistanceService(multi_component)
        with AsyncResistanceService(service, batch_window=0.01) as front:
            front.submit([(0, 1), (0, 2)]).result(timeout=10)
        assert len(front.reports) >= 1
        assert front.reports[-1].num_queries >= 2

    def test_errors_propagate_to_waiters(self, multi_component, monkeypatch):
        service = ResistanceService(multi_component)

        def explode(pairs, rel_tol=None, latency_budget=None):
            raise RuntimeError("engine on fire")

        with AsyncResistanceService(service, batch_window=0.02) as front:
            monkeypatch.setattr(
                service, "query_pairs_with_report", explode
            )
            futures = [front.submit([(0, 1)]), front.submit([(0, 2)])]
            for future in futures:
                with pytest.raises(RuntimeError, match="on fire"):
                    future.result(timeout=10)

    def test_batcher_thread_named(self, front):
        names = [t.name for t in threading.enumerate()]
        assert "resistance-batcher" in names
