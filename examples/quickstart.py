"""Quickstart — compute effective resistances on a weighted graph.

Builds a small power-grid-like mesh, computes effective resistances for
every edge three ways (exact, the paper's Alg. 3, and the WWW'15 random
projection baseline), shows the engine registry (``EngineConfig`` +
``build_engine`` — the one factory every layer dispatches through), then
the query-serving layer (``repro.service.ResistanceService``): cached pair
queries, top-k central edges, an in-place refresh after edge edits, then
engine persistence — save a built Alg. 3 engine to ``.npz`` and warm-start
a service from it without refactoring — and finally the async serving
stack: a component-sharded engine (``EngineConfig(max_shard_nodes=k)``
with a ``k`` no component exceeds) whose per-shard sub-batches fan out over
a thread pool, fronted by ``AsyncResistanceService``, whose micro-batching
loop coalesces concurrent small requests into one planned batch
(``await``-able from asyncio, or via ``submit() -> Future``).

Alg. 3 accepts a ``mode=`` knob choosing the Alg. 2 kernel:
``mode="blocked"`` (default) runs the level-scheduled batched kernel,
``mode="reference"`` the original column-at-a-time loop — both produce the
same sparse approximate inverse, the blocked one several times faster.
Builds also parallelise: ``EngineConfig(build_workers=N)`` (CLI
``--build-workers``) runs large Alg. 2 levels as concurrent column chunks
and fans a sharded engine's component builds out over N threads — with
**bit-identical** results for every N, so the knob only trades build
wall-clock.

Sharding also goes *inside* a component: a ``max_shard_nodes`` cap below
a component's size splits it into vertex-separator-bounded regions (so
region factors build independently and in parallel) and answers
cross-region pairs exactly through a dense Schur complement on the
separator — demonstrated at the end on the single-component mesh.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    EngineConfig,
    ExactEffectiveResistance,
    Graph,
    RandomProjectionEffectiveResistance,
    build_engine,
    grid_2d,
    load_engine,
    registered_engines,
)


def main() -> None:
    # a 60x60 jittered grid: ~3.6k nodes, ~7.1k edges
    graph = grid_2d(60, 60, jitter=0.3, seed=0)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    pairs = graph.edge_array()

    t0 = time.perf_counter()
    exact = ExactEffectiveResistance(graph)
    truth = exact.query_pairs(pairs)
    t_exact = time.perf_counter() - t0
    print(f"\nexact (factor once + solve per edge): {t_exact:.2f}s")

    # every engine is built through the registry: one config, one factory
    print(f"registered engines: {', '.join(registered_engines())}")
    t0 = time.perf_counter()
    alg3 = build_engine(graph, EngineConfig(epsilon=1e-3, drop_tol=1e-3))
    approx = alg3.query_pairs(pairs)
    t_alg3 = time.perf_counter() - t0
    rel = np.abs(approx - truth) / truth
    print(
        f"Alg. 3 (approx inverse of Cholesky factor): {t_alg3:.2f}s  "
        f"Ea={rel.mean():.2e}  Em={rel.max():.2e}"
    )
    print(f"  filled-graph depth (dpt): {alg3.max_depth}")
    print(f"  nnz(Z)/(n log n): {alg3.stats.nnz_per_nlogn:.2f}  (paper: C < 20)")

    t0 = time.perf_counter()
    baseline = RandomProjectionEffectiveResistance(
        graph, num_projections=400, solver="splu", seed=0
    )
    jl = baseline.query_pairs(pairs)
    t_rp = time.perf_counter() - t0
    rel_rp = np.abs(jl - truth) / truth
    print(
        f"WWW'15 random projection (k=400): {t_rp:.2f}s  "
        f"Ea={rel_rp.mean():.2e}  Em={rel_rp.max():.2e}"
    )

    # a couple of point queries
    corner_to_corner = alg3.query(0, graph.num_nodes - 1)
    print(f"\nR_eff(corner, corner) = {corner_to_corner:.4f} ohms")
    print(f"R_eff(0, 1)           = {alg3.query(0, 1):.4f} ohms")

    # the serving layer: cached queries, centrality ranking, live refresh
    from repro.service import ResistanceService

    # the same EngineConfig picks and tunes the engine the service builds
    service = ResistanceService(
        graph, config=EngineConfig(epsilon=1e-3, drop_tol=1e-3)
    )
    hot_pairs = [(0, 1), (0, graph.num_nodes - 1), (1, 0)]
    service.query_pairs(hot_pairs)
    service.query_pairs(hot_pairs)  # answered from the result table
    # a scalar query is bit-identical to the batch answer it shares a
    # cache entry with
    same = service.query(0, 1) == service.query_pairs([(0, 1)])[0]
    print(f"\nservice cache hit rate: {service.stats.hit_rate:.0%} "
          f"(scalar == batch: {same})")
    top_edges, centrality = service.top_k_central_edges(3)
    print("3 most central edges (w(e)·R(e)):")
    for e, c in zip(top_edges, centrality):
        print(f"  ({int(graph.heads[e])}, {int(graph.tails[e])})  {c:.4f}")
    refresh = service.refresh_after_edge_update(edges=[(0, 1)], weights=[1.0])
    print(
        f"after adding a parallel (0, 1) edge (rebuilt in "
        f"{refresh.rebuild_seconds:.2f}s, ordering reused: "
        f"{refresh.reused_ordering}): R_eff(0, 1) = "
        f"{service.query(0, 1):.4f} ohms"
    )

    # persistence: save the built Alg. 3 engine, warm-start from disk
    with tempfile.TemporaryDirectory() as tmp:
        saved = service.engine.save(Path(tmp) / "engine.npz")
        restored = load_engine(saved)
        t0 = time.perf_counter()
        warm = ResistanceService.from_saved(saved)
        t_warm = time.perf_counter() - t0
        match = restored.query(0, 1) == service.query(0, 1)
        print(
            f"\nengine saved to .npz and restored (bit-identical: {match}); "
            f"service warm-started in {t_warm * 1e3:.1f}ms"
        )
        print(f"warm service R_eff(0, 1) = {warm.query(0, 1):.4f} ohms")

    # the async serving stack: sharded engine + parallel executor +
    # micro-batching front-end coalescing concurrent requests
    import asyncio

    from repro.service import AsyncResistanceService, ResistanceService, ThreadedExecutor

    multi = Graph.disjoint_union(
        [grid_2d(20, 20, jitter=0.3, seed=s) for s in range(4)]
    )
    # build_workers=2 builds the four component shards on two threads —
    # the engine is bit-identical to a serial build, just ready sooner
    sharded_service = ResistanceService(
        multi,
        config=EngineConfig(max_shard_nodes=multi.num_nodes, build_workers=2),
        executor=ThreadedExecutor(2),
    )
    print(
        f"\nsharded engine: {sharded_service.engine.num_shards} shards "
        f"built with build_workers=2"
    )

    async def serve_concurrent_clients(front: AsyncResistanceService):
        # eight clients firing small batches at once; the batcher
        # coalesces them into few planned engine batches
        requests = [
            front.aquery_pairs([(i, i + 1), (i, multi.num_nodes - 1 - i)])
            for i in range(8)
        ]
        return await asyncio.gather(*requests)

    with AsyncResistanceService(sharded_service, batch_window=0.005) as front:
        answers = asyncio.run(serve_concurrent_clients(front))
        stats = front.stats
        report = front.reports[-1]  # accounting of the coalesced batch
    direct = sharded_service.query_pairs(
        [(i, i + 1) for i in range(8)]
    )
    match = all(
        float(batch[0]) == float(direct[i]) for i, batch in enumerate(answers)
    )
    print(
        f"\nasync service on a {stats.requests}-request burst: "
        f"{stats.batches} coalesced engine batch(es), "
        f"answers match the synchronous path: {match}"
    )
    print(
        f"last batch: {report.num_queries} queries, "
        f"{report.trivial_rows} trivial, {report.cache_hit_rows} cache hits, "
        f"{report.unique_misses} engine misses over "
        f"{report.shards_touched} shard(s) [{report.executor} executor]"
    )

    # separator sharding: component sharding buys nothing on ONE huge
    # component, so a cap of a quarter of it splits it internally —
    # vertex-separator-bounded regions factor independently (in parallel)
    # and cross-region pairs go through a small dense Schur complement on
    # the separator, exactly (given the region factors)
    t0 = time.perf_counter()
    partitioned = build_engine(
        graph,
        EngineConfig(
            epsilon=1e-3, drop_tol=1e-3,
            max_shard_nodes=graph.num_nodes // 4, build_workers=2,
        ),
    )
    t_part = time.perf_counter() - t0
    report = partitioned.partition_report()
    sep = report["separators"][0]
    print(
        f"\nseparator-sharded engine on the single {graph.num_nodes}-node "
        f"component: {report['num_shards']} regions "
        f"{[int(s) for s in report['shard_sizes']]}, "
        f"separator {report['separator_size']} nodes "
        f"({100 * sep.separator_fraction:.1f}%), built in {t_part:.2f}s"
    )
    part_values = partitioned.query_pairs(pairs)
    rel_part = np.abs(part_values - truth) / truth
    print(
        f"region-sharded answers vs exact: Ea={rel_part.mean():.2e}  "
        f"Em={rel_part.max():.2e}  (monolithic Em={rel.max():.2e})"
    )


if __name__ == "__main__":
    main()
