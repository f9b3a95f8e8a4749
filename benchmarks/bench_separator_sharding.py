"""E11 — within-component separator sharding on one large component.

Per-component sharding parallelises across connected components, which
buys nothing on the single huge component that dominates real netlists.
A ``max_shard_nodes`` cap below the component's size splits that one
component into vertex-separator-bounded regions, factors each region
independently (fanned out over ``build_workers``), and answers
cross-region pairs exactly through a dense Schur complement on the
separator.  This bench measures the whole trade on a single ~50k-node
jittered grid:

* **reference** — the SuperLU ``exact`` engine on the probe pairs; both
  cholinv sides record their max relative error against it;
* **monolithic** — one cholinv factorisation of the full component;
* **separator-sharded** — the same component at 1/2/4 build workers,
  with bit-identity asserted across worker counts (the knob trades
  wall-clock only) and max relative deviation vs the monolithic answers
  recorded and gated.

Both cholinv sides factor with ``drop_tol=0`` by default: then ICT is the
complete factor and Theorem 1 bounds each side's error by epsilon, so the
deviation gate measures the separator algebra rather than ICT drop noise
(at ``drop_tol=1e-6`` the monolithic side alone is 0.2 off SuperLU at
224²).

The ≥ 1.3× acceptance gate for the 4-worker region build over the
1-worker region build is only asserted at full scale on a ≥ 4-core host
(``--assert-speedup auto``); smoke runs still execute every code path.
Results are written as ``BENCH_separator_sharding.json`` for the CI
artifact trajectory.

Run:  PYTHONPATH=src python benchmarks/bench_separator_sharding.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# standalone script: make `benchmarks.conftest` importable from any cwd so
# the BENCH_*.json record shape stays shared across the bench suite
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.conftest import emit_json, host_context  # noqa: E402

from repro.core.engine import EngineConfig, build_engine  # noqa: E402
from repro.core.partitioned import PartitionedEngine
from repro.graphs.generators import grid_2d

WORKER_COUNTS = (1, 2, 4)
# cross-region answers are exact given the region factors, so the sharded
# engine must track the monolithic one to the same order as the configured
# epsilon; the gate is deliberately loose (100x) — it catches wiring bugs
# (wrong separator algebra ~ O(1) errors), not approximation noise
ERROR_GATE_FACTOR = 100.0


def _timed_build(graph, config) -> "tuple[object, float]":
    t0 = time.perf_counter()
    engine = build_engine(graph, config)
    return engine, time.perf_counter() - t0


def _timed_query(engine, probe) -> "tuple[np.ndarray, float]":
    t0 = time.perf_counter()
    values = engine.query_pairs(probe)
    return values, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized case (seconds, no speedup gate)")
    parser.add_argument("--side", type=int, default=None,
                        help="grid side of the single component "
                             "(default: 224 full / 32 smoke)")
    parser.add_argument("--epsilon", type=float, default=1e-4)
    parser.add_argument("--drop-tol", dest="drop_tol", type=float,
                        default=0.0,
                        help="ichol drop tolerance of both cholinv sides "
                             "(0 by default: the complete factor, where "
                             "Theorem 1 bounds the error by epsilon; at "
                             "positive tolerances the ICT drop, not the "
                             "separator algebra, dominates the deviation)")
    parser.add_argument("--max-shard-nodes", dest="max_shard_nodes",
                        type=int, default=None,
                        help="region size cap (default: max(512, ceil(nodes / 4)))")
    parser.add_argument("--probes", type=int, default=2048,
                        help="random query pairs (half forced cross-region)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--assert-speedup", dest="assert_speedup",
                        choices=["auto", "always", "never"], default="auto",
                        help="gate on >= 1.3x 4-worker region-build speedup: "
                             "auto asserts only on a >= 4-core host at full "
                             "scale")
    parser.add_argument("--output", help="write the result record as JSON")
    args = parser.parse_args(argv)
    if args.side is None:
        args.side = 32 if args.smoke else 224          # 224² ≈ 50k nodes

    graph = grid_2d(args.side, args.side, jitter=0.3, seed=args.seed)
    if args.max_shard_nodes is None:
        args.max_shard_nodes = max(512, -(-graph.num_nodes // 4))
    rng = np.random.default_rng(args.seed + 23)
    probe = rng.integers(0, graph.num_nodes, size=(args.probes, 2))

    print(
        f"single component: {graph.num_nodes} nodes, {graph.num_edges} edges",
        file=sys.stderr,
    )
    exact, exact_build = _timed_build(graph, EngineConfig(method="exact"))
    exact_values, exact_query = _timed_query(exact, probe)
    del exact
    print(
        f"  SuperLU reference: build {exact_build:.3f}s, "
        f"{args.probes} queries {exact_query:.3f}s",
        file=sys.stderr,
    )
    mono, mono_build = _timed_build(
        graph, EngineConfig(epsilon=args.epsilon, drop_tol=args.drop_tol)
    )
    mono_values, mono_query = _timed_query(mono, probe)
    print(
        f"  monolithic: build {mono_build:.3f}s, "
        f"{args.probes} queries {mono_query:.3f}s",
        file=sys.stderr,
    )

    del mono
    sharded_config = EngineConfig(
        epsilon=args.epsilon,
        drop_tol=args.drop_tol,
        max_shard_nodes=args.max_shard_nodes,
    )
    runs = []
    reference_values = None
    plan_record = None
    for workers in WORKER_COUNTS:
        engine, build_seconds = _timed_build(
            graph, sharded_config.replace(build_workers=workers)
        )
        assert isinstance(engine, PartitionedEngine)
        values, query_seconds = _timed_query(engine, probe)
        if reference_values is None:
            reference_values = values
            report = engine.partition_report()
            assert engine.plan.separator.size > 0, (
                "bench graph must actually be split — raise --side or "
                "lower --max-shard-nodes"
            )
            plan_record = {
                "num_shards": report["num_shards"],
                "separator_size": report["separator_size"],
                "shard_sizes": [int(s) for s in report["shard_sizes"]],
                "separator_fraction": float(
                    report["separators"][0].separator_fraction
                ),
                "region_imbalance": float(report["separators"][0].imbalance),
            }
        else:
            assert np.array_equal(values, reference_values), (
                f"{workers}-worker separator-sharded engine answered "
                f"differently — worker count must trade wall-clock only"
            )
        runs.append({
            "workers": workers,
            "build_seconds": build_seconds,
            "query_seconds": query_seconds,
            "stage_seconds": {
                stage: float(seconds)
                for stage, seconds in engine.timer.times.items()
            },
        })
        print(
            f"  separator-sharded: {workers} worker(s) -> "
            f"build {build_seconds:.3f}s, queries {query_seconds:.3f}s",
            file=sys.stderr,
        )

    def max_rel_error(values, truth) -> float:
        scale = np.maximum(np.abs(truth), 1e-12)
        return float(np.max(np.abs(values - truth) / scale))

    # correctness vs the monolithic factorisation (both approximate at the
    # same epsilon, and the Schur path is exact given the region factors)
    max_rel_dev = max_rel_error(reference_values, mono_values)
    sharded_error = max_rel_error(reference_values, exact_values)
    mono_error = max_rel_error(mono_values, exact_values)
    error_bound = ERROR_GATE_FACTOR * args.epsilon
    print(
        f"  max relative error vs SuperLU: separator-sharded "
        f"{sharded_error:.3e}, monolithic {mono_error:.3e}\n"
        f"  max relative deviation vs monolithic: {max_rel_dev:.3e} "
        f"(gate {error_bound:.1e})",
        file=sys.stderr,
    )

    by_workers = {run["workers"]: run["build_seconds"] for run in runs}
    speedup_4 = by_workers[1] / by_workers[4] if by_workers[4] else 0.0
    result = {
        "bench": "separator_sharding",
        "smoke": bool(args.smoke),
        "nodes": int(graph.num_nodes),
        "edges": int(graph.num_edges),
        "epsilon": args.epsilon,
        "drop_tol": args.drop_tol,
        "max_shard_nodes": args.max_shard_nodes,
        "plan": plan_record,
        "reference": {
            "method": "exact",
            "build_seconds": exact_build,
            "query_seconds": exact_query,
        },
        "monolithic": {
            "build_seconds": mono_build,
            "query_seconds": mono_query,
            "max_rel_error_vs_exact": mono_error,
        },
        "worker_counts": list(WORKER_COUNTS),
        "runs": runs,
        "speedup_2": by_workers[1] / by_workers[2] if by_workers[2] else 0.0,
        "speedup_4": speedup_4,
        "max_rel_dev_vs_monolithic": max_rel_dev,
        "max_rel_error_vs_exact": sharded_error,
        "bit_identical": True,
        "host": host_context(),
    }
    print(json.dumps(result, indent=2))
    if args.output:
        # one writer for every BENCH_*.json so the artifact records stay
        # shape-consistent across the bench suite
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        written = emit_json(out.parent, "separator_sharding", result)
        if out.name != written.name:
            written.replace(out)
            print(f"moved to {out}", file=sys.stderr)

    if max_rel_dev > error_bound:
        print(
            f"FAIL: separator-sharded answers deviate {max_rel_dev:.3e} from "
            f"monolithic (bound {error_bound:.1e})",
            file=sys.stderr,
        )
        return 1
    gate = args.assert_speedup == "always" or (
        args.assert_speedup == "auto"
        and not args.smoke
        and (os.cpu_count() or 1) >= 4
    )
    if gate and speedup_4 < 1.3:
        print(
            f"FAIL: 4-worker region build only {speedup_4:.2f}x over serial "
            f"(>= 1.3x required on {os.cpu_count()} cores)",
            file=sys.stderr,
        )
        return 1
    print(
        f"separator-sharded 4-worker build speedup {speedup_4:.2f}x over "
        f"1-worker, monolithic build {mono_build:.3f}s, on "
        f"{os.cpu_count()} core(s)"
        + ("" if gate else " (speedup gate not applicable on this host)"),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
