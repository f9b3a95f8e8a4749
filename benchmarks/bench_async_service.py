"""E9 — async serving throughput: serial vs parallel shard fan-out.

Measures the planner/executor redesign on its target workload: a cold
batch of mixed pair queries against a *multi-component* graph served by a
component-sharded engine (``max_shard_nodes`` at the node count).  Three paths
answer the identical batch:

* **serial** — ``ResistanceService`` with the default ``SerialExecutor``
  (the pre-redesign behaviour: shards visited one after another);
* **parallel** — the same shared engine behind a ``ThreadedExecutor``,
  so the per-shard sub-batches run concurrently;
* **async** — ``AsyncResistanceService`` on top of the parallel service,
  with the batch arriving as many small concurrent requests that the
  micro-batching loop coalesces.

All three must produce bit-identical answers (asserted).  The ≥ 2×
speedup acceptance gate for the parallel path is only *asserted* when the
host actually has the cores to show it (``--assert-speedup auto``); a
1-core CI box still exercises the whole path and records the measured
numbers.  Results are printed and written as JSON for the CI artifact.

Run:  PYTHONPATH=src python benchmarks/bench_async_service.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro.core.engine import EngineConfig, build_engine
from repro.graphs.generators import grid_2d
from repro.graphs.graph import Graph
from repro.service import (
    AsyncResistanceService,
    ResistanceService,
    ThreadedExecutor,
)


def build_multi_component_graph(components: int, side: int, seed: int = 0) -> Graph:
    """Disjoint union of ``components`` jittered grids of ``side``²nodes."""
    return Graph.disjoint_union(
        [grid_2d(side, side, jitter=0.3, seed=seed + i) for i in range(components)]
    )


def make_query_stream(
    graph: Graph,
    components: int,
    batch: int,
    cross_fraction: float = 0.1,
    seed: int = 7,
) -> np.ndarray:
    """Random pair batch: mostly within-component (engine-bound), some cross.

    The disjoint-union layout puts component ``i``'s nodes in one
    contiguous id range, so within-component pairs are drawn per range;
    a ``cross_fraction`` of fully random pairs keeps the structural
    ``inf`` path exercised too.
    """
    rng = np.random.default_rng(seed)
    per_component = graph.num_nodes // components
    component_of = rng.integers(0, components, size=batch)
    lo = component_of * per_component
    pairs = np.column_stack([
        lo + rng.integers(0, per_component, size=batch),
        lo + rng.integers(0, per_component, size=batch),
    ])
    cross = rng.random(batch) < cross_fraction
    pairs[cross] = np.column_stack([
        rng.integers(0, graph.num_nodes, size=int(cross.sum())),
        rng.integers(0, graph.num_nodes, size=int(cross.sum())),
    ])
    return pairs


def run_case(args) -> dict:
    graph = build_multi_component_graph(args.components, args.side, seed=args.seed)
    config = EngineConfig(
        max_shard_nodes=graph.num_nodes, epsilon=args.epsilon, drop_tol=args.epsilon
    )
    t0 = time.perf_counter()
    engine = build_engine(graph, config)
    build_seconds = time.perf_counter() - t0
    pairs = make_query_stream(
        graph, args.components, args.batch, seed=args.seed + 1
    )

    # serial cold batch (fresh caches; shared prebuilt engine)
    serial = ResistanceService.from_engine(engine)
    t0 = time.perf_counter()
    serial_values, serial_report = serial.query_pairs_with_report(pairs)
    serial_seconds = time.perf_counter() - t0

    # parallel cold batch
    parallel = ResistanceService.from_engine(
        engine, executor=ThreadedExecutor(args.workers)
    )
    t0 = time.perf_counter()
    parallel_values, parallel_report = parallel.query_pairs_with_report(pairs)
    parallel_seconds = time.perf_counter() - t0

    # async cold batch: the same pairs as many concurrent small requests
    async_backend = ResistanceService.from_engine(
        engine, executor=ThreadedExecutor(args.workers)
    )
    chunks = np.array_split(pairs, args.requests)
    t0 = time.perf_counter()
    with AsyncResistanceService(
        async_backend, batch_window=args.batch_window
    ) as front:
        futures = [front.submit(chunk) for chunk in chunks if chunk.shape[0]]
        async_values = np.concatenate([future.result() for future in futures])
        coalesced_batches = front.stats.batches
    async_seconds = time.perf_counter() - t0

    assert np.array_equal(serial_values, parallel_values), (
        "parallel shard fan-out changed answers"
    )
    assert np.array_equal(serial_values, async_values), (
        "micro-batched path changed answers"
    )

    batch = pairs.shape[0]
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    return {
        "case": "async_service_cold_batch",
        "smoke": bool(args.smoke),
        "nodes": int(graph.num_nodes),
        "edges": int(graph.num_edges),
        "components": int(args.components),
        "batch_pairs": int(batch),
        "unique_engine_pairs": int(serial_report.unique_misses),
        "shards_touched": int(serial_report.shards_touched),
        "workers": int(args.workers),
        "requests": int(args.requests),
        "batch_window_s": float(args.batch_window),
        "engine_build_s": build_seconds,
        "serial_s": serial_seconds,
        "parallel_s": parallel_seconds,
        "async_s": async_seconds,
        "serial_qps": batch / serial_seconds if serial_seconds else 0.0,
        "parallel_qps": batch / parallel_seconds if parallel_seconds else 0.0,
        "async_qps": batch / async_seconds if async_seconds else 0.0,
        "parallel_speedup": speedup,
        "coalesced_engine_batches": int(coalesced_batches),
        "bit_identical": True,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized case (seconds, no speedup gate)")
    parser.add_argument("--components", type=int, default=8,
                        help="number of disjoint grid components")
    parser.add_argument("--side", type=int, default=None,
                        help="grid side per component "
                             "(default: 80 full / 14 smoke)")
    parser.add_argument("--batch", type=int, default=None,
                        help="cold query batch size "
                             "(default: 20000 full / 2000 smoke)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--requests", type=int, default=64,
                        help="concurrent requests the async path splits "
                             "the batch into")
    parser.add_argument("--batch-window", dest="batch_window", type=float,
                        default=0.002)
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--assert-speedup", dest="assert_speedup",
                        choices=["auto", "always", "never"], default="auto",
                        help="gate on >= 2x parallel speedup: auto asserts "
                             "only on a multi-core host at full scale")
    parser.add_argument("--output", help="write the result record as JSON")
    args = parser.parse_args(argv)
    if args.side is None:
        args.side = 14 if args.smoke else 80  # 8 * 80^2 = 51200 nodes
    if args.batch is None:
        args.batch = 2000 if args.smoke else 20000

    result = run_case(args)
    print(json.dumps(result, indent=2))
    if args.output:
        out_dir = os.path.dirname(args.output)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.output, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)

    gate = args.assert_speedup == "always" or (
        args.assert_speedup == "auto"
        and not args.smoke
        and (os.cpu_count() or 1) >= args.workers
    )
    if gate and result["parallel_speedup"] < 2.0:
        print(
            f"FAIL: parallel path only {result['parallel_speedup']:.2f}x "
            f"over serial (>= 2x required with {args.workers} workers "
            f"on {os.cpu_count()} cores)",
            file=sys.stderr,
        )
        return 1
    print(
        f"parallel speedup {result['parallel_speedup']:.2f}x with "
        f"{args.workers} workers on {os.cpu_count()} core(s)"
        + ("" if gate else " (speedup gate not applicable on this host)"),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
