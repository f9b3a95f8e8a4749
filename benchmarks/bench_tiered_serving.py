"""E12 — tiered-accuracy serving behind the SLA-aware query router.

The serving claim: once :meth:`ResistanceService.enable_tiers` has stood
up a landmark tier next to the exact cholinv engine, a batch requested at
``rel_tol=0.05`` is served **≥ 5× faster** than the same batch through
the exact path, while every routed answer stays within the requested
tolerance of the exact value — and a request with *no* SLA remains
bit-identical to a tier-less service.  This bench measures all three on
a single ~50k-node Barabási–Albert graph (the heavy-tailed degree
profile that makes landmark projection earn its keep):

* **exact** — the plain ``query_pairs`` path, cache disabled, the
  baseline every routed answer is compared against;
* **routed** — the same batch at each of three tolerances, with the
  per-tier split, wall-clock, and observed max relative error recorded.

The ≥ 5× speedup and within-tolerance gates are only asserted at full
scale (``--assert-speedup auto``); smoke runs still execute every code
path, including the no-SLA bit-identity check.  Results are written as
``BENCH_tiered_serving.json`` for the CI artifact trajectory.

Run:  PYTHONPATH=src python benchmarks/bench_tiered_serving.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

# standalone script: make `benchmarks.conftest` importable from any cwd so
# the BENCH_*.json record shape stays shared across the bench suite
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.conftest import emit_json, host_context  # noqa: E402

from repro.core.engine import EngineConfig  # noqa: E402
from repro.graphs.generators import barabasi_albert_graph
from repro.service import ResistanceService

REL_TOLS = (0.2, 0.05, 0.01)
GATE_REL_TOL = 0.05  # the acceptance tolerance the speedup gate runs at
GATE_SPEEDUP = 5.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized case (seconds, no speedup gate)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="graph size (default: 50000 full / 2000 smoke)")
    parser.add_argument("--attachments", type=int, default=4,
                        help="Barabási–Albert edges per new node")
    parser.add_argument("--num-landmarks", dest="num_landmarks", type=int,
                        default=64)
    parser.add_argument("--queries", type=int, default=None,
                        help="batch size (default: 4096 full / 512 smoke)")
    parser.add_argument("--calibration-pairs", dest="calibration_pairs",
                        type=int, default=None,
                        help="router calibration sample "
                             "(default: 4096 full / 512 smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--assert-speedup", dest="assert_speedup",
                        choices=["auto", "always", "never"], default="auto",
                        help="gate on >= 5x routed speedup at rel_tol=0.05: "
                             "auto asserts only at full scale")
    parser.add_argument("--output", help="write the result record as JSON")
    args = parser.parse_args(argv)
    if args.nodes is None:
        args.nodes = 2000 if args.smoke else 50000
    if args.queries is None:
        args.queries = 512 if args.smoke else 4096
    if args.calibration_pairs is None:
        args.calibration_pairs = 512 if args.smoke else 4096

    graph = barabasi_albert_graph(
        args.nodes, attachments=args.attachments, seed=args.seed
    )
    print(
        f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges "
        f"(Barabási–Albert, m={args.attachments})",
        file=sys.stderr,
    )
    rng = np.random.default_rng(args.seed + 31)
    batch = rng.integers(0, graph.num_nodes, size=(args.queries, 2))

    # cache disabled throughout: the bench measures engine/tier wall-clock,
    # not result-table hits (bench_service_throughput covers the cache)
    t0 = time.perf_counter()
    service = ResistanceService(
        graph,
        config=EngineConfig(num_landmarks=args.num_landmarks, seed=args.seed),
        result_cache_size=0,
    )
    build_seconds = time.perf_counter() - t0
    print(f"  exact engine build: {build_seconds:.3f}s", file=sys.stderr)

    t0 = time.perf_counter()
    exact = service.query_pairs(batch)
    exact_seconds = time.perf_counter() - t0
    print(
        f"  exact path: {args.queries} queries in {exact_seconds:.3f}s",
        file=sys.stderr,
    )

    t0 = time.perf_counter()
    service.enable_tiers(
        tiers=("landmark",),
        calibration_pairs=args.calibration_pairs,
        calibration_seed=args.seed,
    )
    tier_seconds = time.perf_counter() - t0
    print(
        f"  landmark tier build + calibration: {tier_seconds:.3f}s "
        f"(k={args.num_landmarks})",
        file=sys.stderr,
    )

    # no-SLA requests must stay bit-identical to the tier-less service
    plain = service.query_pairs(batch)
    bit_identical = bool(np.array_equal(plain, exact, equal_nan=True))
    assert bit_identical, "no-SLA request diverged after enable_tiers()"

    scale = np.maximum(np.abs(exact), 1e-12)
    finite = np.isfinite(exact)
    runs = []
    for rel_tol in REL_TOLS:
        t0 = time.perf_counter()
        values, report = service.query_pairs_with_report(batch, rel_tol=rel_tol)
        routed_seconds = time.perf_counter() - t0
        rel = np.abs(values[finite] - exact[finite]) / scale[finite]
        max_rel_err = float(rel.max()) if finite.any() else 0.0
        runs.append({
            "rel_tol": rel_tol,
            "seconds": routed_seconds,
            "speedup_vs_exact": exact_seconds / routed_seconds
            if routed_seconds else 0.0,
            "max_rel_error": max_rel_err,
            "within_tolerance": max_rel_err <= rel_tol,
            "tier_rows": {k: int(v) for k, v in report.tier_rows.items()},
        })
        print(
            f"  rel_tol={rel_tol}: {routed_seconds:.3f}s "
            f"({runs[-1]['speedup_vs_exact']:.1f}x), "
            f"max rel err {max_rel_err:.4f}, tiers {runs[-1]['tier_rows']}",
            file=sys.stderr,
        )

    result = {
        "bench": "tiered_serving",
        "smoke": bool(args.smoke),
        "nodes": int(graph.num_nodes),
        "edges": int(graph.num_edges),
        "attachments": args.attachments,
        "num_landmarks": args.num_landmarks,
        "queries": args.queries,
        "calibration_pairs": args.calibration_pairs,
        "build_seconds": build_seconds,
        "tier_build_seconds": tier_seconds,
        "exact_seconds": exact_seconds,
        "no_sla_bit_identical": bit_identical,
        "runs": runs,
        "host": host_context(),
    }
    print(json.dumps(result, indent=2))
    if args.output:
        # one writer for every BENCH_*.json so the artifact records stay
        # shape-consistent across the bench suite
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        written = emit_json(out.parent, "tiered_serving", result)
        if out.name != written.name:
            written.replace(out)
            print(f"moved to {out}", file=sys.stderr)

    gate_run = next(r for r in runs if r["rel_tol"] == GATE_REL_TOL)
    if not gate_run["within_tolerance"]:
        print(
            f"FAIL: routed answers at rel_tol={GATE_REL_TOL} deviate "
            f"{gate_run['max_rel_error']:.4f} from exact",
            file=sys.stderr,
        )
        return 1
    gate = args.assert_speedup == "always" or (
        args.assert_speedup == "auto" and not args.smoke
    )
    if gate and gate_run["speedup_vs_exact"] < GATE_SPEEDUP:
        print(
            f"FAIL: routed batch at rel_tol={GATE_REL_TOL} only "
            f"{gate_run['speedup_vs_exact']:.2f}x over exact "
            f"(>= {GATE_SPEEDUP}x required)",
            file=sys.stderr,
        )
        return 1
    print(
        f"tiered serving at rel_tol={GATE_REL_TOL}: "
        f"{gate_run['speedup_vs_exact']:.1f}x over exact, max rel err "
        f"{gate_run['max_rel_error']:.4f}, no-SLA bit-identical"
        + ("" if gate else " (speedup gate not applicable at smoke scale)"),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
