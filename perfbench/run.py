"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mesh-er --seed 1 --seconds 15 --trace 0

Prints each named end-to-end metric with its unit, a JSON detail line
(host, every named metric, checks, failures) and, as the last line, the
result object: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench-out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that only exercise every code path")
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload in this process; return ``(result, detail)``."""
    from measure import HostReference, Ledger, host_info
    from tracing import Tracer
    from workloads import DRIVER_METRICS, HOST_BOUND, LAYER_UNITS, SIZES, WORKLOADS, Context

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    reference = HostReference()
    ctx = Context(
        seed=seed, seconds=seconds, tracer=Tracer(trace),
        size=SIZES["smoke" if smoke else "full"], root=ROOT,
        ledger=Ledger(reference, HOST_BOUND),
    )
    WORKLOADS[workload](ctx)
    ledger = ctx.ledger
    ctx.named["failed_frac"] = (ledger.failed / max(ledger.attempted, 1), "ratio")

    if trace:
        metrics = {
            name: {"value": float(ctx.layers.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        stands_for = {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}
        stands_for.update({metric: by[workload] for metric, by in DRIVER_METRICS.items()})
        metrics = {}
        for metric, name in stands_for.items():
            value, unit = ctx.named[name]
            if unit in ("s", "ms"):
                value = ctx.scaled[name]
            metrics[metric] = {"value": value, "unit": unit}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        raise RuntimeError(f"{workload}: no samples for {missing}: {ledger.failures[:5]}")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": {
            **host_info(),
            "reference_ms": reference.median_ms(),
            "reference_readings": len(reference.readings),
        },
        "named": {name: {"value": v, "unit": u} for name, (v, u) in ctx.named.items()},
        "samples": {name: len(v) for name, v in ledger.samples.items()},
        "checks": ledger.checks,
        "failures": ledger.failures[:20],
    }
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        ctx.tracer.dump(SPANS_DIR / f"{workload}-seed{seed}.spans.json")
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for name, metric in detail["named"].items():
        value = "n/a (too few samples)" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{args.workload} {name}: {value} {metric['unit']}")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
