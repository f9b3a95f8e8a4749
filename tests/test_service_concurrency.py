"""Concurrency hammer: many threads sharing one ResistanceService.

Rebuilds are deterministic, so refreshing with the *same* graph never
changes any answer — which makes "mix queries and refreshes from many
threads" a strong check: every thread must see bit-identical values to a
fresh single-threaded engine throughout, and the locked counters must not
lose a single update.
"""

import threading

import numpy as np
import pytest

from repro.core.engine import EngineConfig, build_engine
from repro.graphs.generators import grid_2d
from repro.graphs.graph import Graph
from repro.service import ResistanceService, ThreadedExecutor

EXACT = EngineConfig(method="exact")


@pytest.fixture
def multi_component() -> Graph:
    return Graph.disjoint_union(
        [grid_2d(5, 5, jitter=0.3, seed=s) for s in range(3)]
    )


def _hammer(service, graph, reference, pairs, threads, reps):
    """Run mixed traffic from ``threads`` workers; collect mismatches."""
    errors = []
    barrier = threading.Barrier(threads)

    def worker(tid):
        rng = np.random.default_rng(tid)
        try:
            barrier.wait(timeout=30)
            for rep in range(reps):
                kind = (tid + rep) % 4
                if kind == 0:
                    got = service.query_pairs(pairs)
                    if not np.array_equal(got, reference):
                        errors.append(f"t{tid} rep{rep}: batch mismatch")
                elif kind == 1:
                    i = int(rng.integers(0, pairs.shape[0]))
                    p, q = int(pairs[i, 0]), int(pairs[i, 1])
                    got = service.query(p, q)
                    if got != reference[i]:
                        errors.append(f"t{tid} rep{rep}: single mismatch")
                elif kind == 2:
                    shuffled = pairs[rng.permutation(pairs.shape[0])]
                    got = service.query_pairs(shuffled)
                    want = service.engine.query_pairs(shuffled)
                    if not np.array_equal(got, want):
                        errors.append(f"t{tid} rep{rep}: shuffle mismatch")
                else:
                    # same graph -> deterministic rebuild -> same answers
                    service.refresh_after_edge_update(graph)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"t{tid}: {type(exc).__name__}: {exc}")

    workers = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    return errors


@pytest.mark.parametrize("executor", [None, ThreadedExecutor(3)])
def test_hammer_mixed_traffic_bit_identical(multi_component, executor):
    threads, reps = 6, 8
    config = EngineConfig(max_shard_nodes=multi_component.num_nodes)
    service = ResistanceService(
        multi_component, config=config, executor=executor
    )
    fresh = build_engine(multi_component, config)
    rng = np.random.default_rng(99)
    n = multi_component.num_nodes
    pairs = np.column_stack([
        rng.integers(0, n, size=64),
        rng.integers(0, n, size=64),
    ])
    reference = fresh.query_pairs(pairs)

    errors = _hammer(service, multi_component, reference, pairs, threads, reps)
    assert errors == []

    # counters took every update: queries is incremented once per row /
    # call under the lock, so the exact total is a lost-update detector
    expected_refreshes = sum(
        1
        for tid in range(threads)
        for rep in range(reps)
        if (tid + rep) % 4 == 3
    )
    expected_queries = sum(
        64 if (tid + rep) % 4 in (0, 2) else 1
        for tid in range(threads)
        for rep in range(reps)
        if (tid + rep) % 4 != 3
    )
    assert service.stats.refreshes == expected_refreshes
    assert service.stats.queries == expected_queries
    # post-hammer, the service still answers correctly single-threaded
    assert np.array_equal(service.query_pairs(pairs), reference)


@pytest.mark.parametrize("capacity", [1, 3])
def test_hammer_tiny_result_table_never_crosses_pairs(multi_component, capacity):
    # a few slots shared by 64 pairs: concurrent fills keep overwriting
    # each other's slots, and no probe may return another pair's value
    service = ResistanceService(multi_component, result_cache_size=capacity)
    rng = np.random.default_rng(capacity)
    n = multi_component.num_nodes
    pairs = np.column_stack([
        rng.integers(0, n, size=64),
        rng.integers(0, n, size=64),
    ])
    reference = build_engine(multi_component, EngineConfig()).query_pairs(pairs)
    errors = _hammer(service, multi_component, reference, pairs, threads=6, reps=8)
    assert errors == []
    assert np.array_equal(service.query_pairs(pairs), reference)


def test_refresh_during_inflight_query_does_not_poison_cache(tiny_path):
    """An old-engine result computed across a refresh must not be cached.

    The in-flight query holds its (old) engine while a refresh with a
    *changed* graph swaps engine and retires the cached entries; the
    stale value is returned to its own caller but the epoch fence must
    keep it out of the post-refresh result cache.
    """
    service = ResistanceService(tiny_path, config=EXACT)
    entered = threading.Event()
    release = threading.Event()
    original = service.engine.query_pairs

    def stalled(pairs):
        values = original(pairs)
        entered.set()
        assert release.wait(timeout=30)
        return values

    service.engine.query_pairs = stalled
    before = ResistanceService(tiny_path, config=EXACT).query(0, 4)
    inflight = {}

    def old_query():
        inflight["value"] = service.query_pairs([(0, 4)])[0]

    worker = threading.Thread(target=old_query)
    worker.start()
    assert entered.wait(timeout=30)
    # a parallel (0, 1) unit edge halves that segment: R(0,4) drops 0.5
    service.refresh_after_edge_update(edges=[(0, 1)], weights=[1.0])
    release.set()
    worker.join(timeout=30)

    assert inflight["value"] == pytest.approx(before)  # stale but honest
    # the fence kept the stale write out of the table altogether: its old
    # epoch could never answer a probe, but it would evict a live entry
    assert not service._results.epochs.any()
    after = service.query_pairs([(0, 4)])[0]  # must re-answer, not hit cache
    assert after == pytest.approx(before - 0.5)
    assert service.query(0, 4) == pytest.approx(before - 0.5)


def test_concurrent_refresh_with_changed_graph_converges(multi_component):
    """Queries racing a real topology change settle on the new answers."""
    service = ResistanceService(multi_component, config=EXACT)
    updated = Graph(
        multi_component.num_nodes,
        np.concatenate([multi_component.heads, [0]]),
        np.concatenate([multi_component.tails, [30]]),
        np.concatenate([multi_component.weights, [1.0]]),
    )
    pairs = np.array([(0, 30), (0, 5), (26, 31)])
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            service.query_pairs(pairs)
            service.query(0, 30)

    workers = [threading.Thread(target=churn) for _ in range(3)]
    for w in workers:
        w.start()
    service.refresh_after_edge_update(updated)
    stop.set()
    for w in workers:
        w.join(timeout=60)
    expected = build_engine(updated, EXACT).query_pairs(pairs)
    assert np.allclose(service.query_pairs(pairs), expected)
    assert np.isfinite(service.query(0, 30))


def test_concurrent_cache_hits_consistent(multi_component):
    service = ResistanceService(multi_component)
    pairs = [(0, 5), (1, 7), (0, 24)]
    expected = service.query_pairs(pairs)
    outcomes = []

    def worker():
        for _ in range(20):
            outcomes.append(np.array_equal(service.query_pairs(pairs), expected))

    workers = [threading.Thread(target=worker) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert all(outcomes)
    assert service.stats.result_hits > 0
