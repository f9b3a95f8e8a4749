"""E10 — parallel engine-build pipeline: 1/2/4-worker build times.

Measures the ``build_workers`` dimension end to end on its two target
shapes:

* **single-component** — one large jittered grid, where the parallelism
  comes from the level-parallel Alg. 2 kernel (large levels split into
  column chunks that run concurrently; scipy's sparsetools matmul
  releases the GIL);
* **multi-component** — an 8-component disjoint union served by a
  component-sharded engine (``max_shard_nodes`` at the node count), where eager shard builds fan out over the
  build pool (each shard is an independent factorisation).

Every worker count must produce a **bit-identical** engine (asserted on
the raw ``Z̃`` CSC arrays, per shard for the sharded case) — the knob
trades wall-clock only.  The ≥ 1.7× speedup acceptance gate for 4 workers
on the multi-component case is only asserted when the host has the cores
to show it (``--assert-speedup auto``); a 1-core CI box still executes
the full parallel code path and records the measured numbers.  Results
are printed and written as ``BENCH_build_parallel.json`` for the CI
artifact trajectory.

Run:  PYTHONPATH=src python benchmarks/bench_build_parallel.py [--smoke]
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

import repro.core.approx_inverse as approx_inverse_module  # noqa: E402
from repro.core.effective_resistance import CholInvEffectiveResistance
from repro.core.engine import EngineConfig, build_engine
from repro.core.partitioned import PartitionedEngine
from repro.graphs.generators import grid_2d
from repro.graphs.graph import Graph

WORKER_COUNTS = (1, 2, 4)


def _cholinv_engines(engine) -> "list[CholInvEffectiveResistance]":
    """Every Alg. 3 engine an engine holds (its shards, when sharded)."""
    subs = engine._engines if isinstance(engine, PartitionedEngine) else [engine]
    return [sub for sub in subs if isinstance(sub, CholInvEffectiveResistance)]


def _z_arrays(engine) -> "list[tuple[np.ndarray, np.ndarray, np.ndarray]]":
    """The raw CSC arrays of every Alg. 3 factor an engine holds."""
    if isinstance(engine, PartitionedEngine):
        out = []
        for sub in engine._engines:
            if isinstance(sub, CholInvEffectiveResistance):
                z = sub.z_tilde
                out.append((z.indptr, z.indices, z.data))
        return out
    z = engine.z_tilde
    return [(z.indptr, z.indices, z.data)]


def _assert_bit_identical(reference, candidate, case: str, workers: int) -> None:
    ref_arrays = _z_arrays(reference)
    cand_arrays = _z_arrays(candidate)
    assert len(ref_arrays) == len(cand_arrays), (
        f"{case}: {workers}-worker build produced a different shard layout"
    )
    for shard, ((rp, ri, rd), (cp, ci, cd)) in enumerate(
        zip(ref_arrays, cand_arrays)
    ):
        assert (
            np.array_equal(rp, cp)
            and np.array_equal(ri, ci)
            and np.array_equal(rd, cd)
        ), (
            f"{case}: Z̃ of shard {shard} differs between 1 and "
            f"{workers} workers — parallel build must be bit-identical"
        )


def run_case(name: str, graph: Graph, config: EngineConfig, probe: np.ndarray) -> dict:
    """Build the engine at every worker count; assert bit-equality vs serial."""
    runs = []
    reference = None
    reference_values = None
    for workers in WORKER_COUNTS:
        t0 = time.perf_counter()
        engine = build_engine(graph, config.replace(build_workers=workers))
        build_seconds = time.perf_counter() - t0
        values = engine.query_pairs(probe)
        if reference is None:
            reference, reference_values = engine, values
        else:
            _assert_bit_identical(reference, engine, name, workers)
            assert np.array_equal(reference_values, values), (
                f"{name}: {workers}-worker engine answered differently"
            )
        runs.append({
            "workers": workers,
            "build_seconds": build_seconds,
            "ichol_seconds": sum(
                float(sub.timer.times.get("ichol", 0.0)) for sub in _cholinv_engines(engine)
            ),
            "stage_seconds": {
                stage: float(seconds)
                for stage, seconds in engine.timer.times.items()
            },
        })
        print(
            f"  {name}: {workers} worker(s) -> {build_seconds:.3f}s",
            file=sys.stderr,
        )
    nnz = int(sum(arrays[2].shape[0] for arrays in _z_arrays(reference)))
    factors = [sub.ichol_result for sub in _cholinv_engines(reference)]
    by_workers = {run["workers"]: run["build_seconds"] for run in runs}
    return {
        "case": name,
        "nodes": int(graph.num_nodes),
        "edges": int(graph.num_edges),
        "components": int(reference.component_labels.max()) + 1,
        "nnz_z": nnz,
        "nnz_l": int(sum(factor.nnz for factor in factors)),
        # trailing columns the ICT sweep finished with dense updates
        "dense_columns": int(sum(factor.dense_columns for factor in factors)),
        "runs": runs,
        "speedup_2": by_workers[1] / by_workers[2] if by_workers[2] else 0.0,
        "speedup_4": by_workers[1] / by_workers[4] if by_workers[4] else 0.0,
        "bit_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized case (seconds, no speedup gate)")
    parser.add_argument("--single-side", dest="single_side", type=int,
                        default=None,
                        help="grid side of the single-component case "
                             "(default: 224 full / 32 smoke)")
    parser.add_argument("--components", type=int, default=8,
                        help="components of the multi-component case")
    parser.add_argument("--multi-side", dest="multi_side", type=int,
                        default=None,
                        help="grid side per component "
                             "(default: 80 full / 13 smoke)")
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chunk-target", dest="chunk_target", type=int,
                        default=None,
                        help="override the Alg. 2 chunking target (smoke "
                             "runs lower it so the chunked code path "
                             "executes even on tiny graphs)")
    parser.add_argument("--assert-speedup", dest="assert_speedup",
                        choices=["auto", "always", "never"], default="auto",
                        help="gate on >= 1.7x 4-worker build speedup for the "
                             "multi-component case: auto asserts only on a "
                             ">= 4-core host at full scale")
    parser.add_argument("--output", help="write the result record as JSON")
    args = parser.parse_args(argv)
    if args.single_side is None:
        args.single_side = 32 if args.smoke else 224   # 224² ≈ 50k nodes
    if args.multi_side is None:
        args.multi_side = 13 if args.smoke else 80     # 8 × 80² = 51200
    if args.chunk_target is None and args.smoke:
        # exercise the chunked parallel path on the tiny smoke graphs too
        args.chunk_target = 4096
    if args.chunk_target is not None:
        approx_inverse_module._CHUNK_TARGET_NNZ = int(args.chunk_target)

    rng = np.random.default_rng(args.seed + 17)

    single = grid_2d(args.single_side, args.single_side, jitter=0.3,
                     seed=args.seed)
    probe = rng.integers(0, single.num_nodes, size=(512, 2))
    print("single-component case:", file=sys.stderr)
    single_case = run_case(
        "single_component", single, EngineConfig(epsilon=args.epsilon), probe
    )

    multi = Graph.disjoint_union([
        grid_2d(args.multi_side, args.multi_side, jitter=0.3,
                seed=args.seed + i)
        for i in range(args.components)
    ])
    probe = rng.integers(0, multi.num_nodes, size=(512, 2))
    print("multi-component case:", file=sys.stderr)
    multi_case = run_case(
        "multi_component", multi,
        EngineConfig(epsilon=args.epsilon, max_shard_nodes=multi.num_nodes), probe,
    )

    result = {
        "bench": "build_parallel",
        "smoke": bool(args.smoke),
        "chunk_target": approx_inverse_module._CHUNK_TARGET_NNZ,
        "worker_counts": list(WORKER_COUNTS),
        "cases": [single_case, multi_case],
        "host": host_context(),
    }
    print(json.dumps(result, indent=2))
    if args.output:
        # one writer for every BENCH_*.json so the artifact records stay
        # shape-consistent across the bench suite
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        written = emit_json(out.parent, "build_parallel", result)
        if out.name != written.name:
            written.replace(out)
            print(f"moved to {out}", file=sys.stderr)

    gate = args.assert_speedup == "always" or (
        args.assert_speedup == "auto"
        and not args.smoke
        and (os.cpu_count() or 1) >= 4
    )
    speedup = multi_case["speedup_4"]
    if gate and speedup < 1.7:
        print(
            f"FAIL: multi-component 4-worker build only {speedup:.2f}x over "
            f"serial (>= 1.7x required on {os.cpu_count()} cores)",
            file=sys.stderr,
        )
        return 1
    print(
        f"multi-component 4-worker build speedup {speedup:.2f}x, "
        f"single-component {single_case['speedup_4']:.2f}x, on "
        f"{os.cpu_count()} core(s)"
        + ("" if gate else " (speedup gate not applicable on this host)"),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
