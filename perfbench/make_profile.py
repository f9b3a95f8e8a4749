"""Run every workload untraced and traced, each in a fresh process.

Prints every named end-to-end metric with its unit, the per-layer metrics
of the traced runs and the tracing overhead (traced minus untraced named
metric), per workload.  ``--out`` also writes all of it as JSON, the form
of the committed ``perfbench/baseline.json``, which also keeps the driver's
end-to-end metrics, scaled to the reference host.

    python3 perfbench/make_profile.py --seed 0 --seconds 20 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mesh-er", "social-er", "pg-reduce")


def run_one(workload: str, seed: int, seconds: float, trace: int):
    """One workload in a fresh process, so its peak RSS is its own."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    *_, detail, result = out.stdout.strip().splitlines()
    return json.loads(result), json.loads(detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    profile = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        result, detail = run_one(workload, args.seed, args.seconds, 0)
        traced_result, traced = run_one(workload, args.seed, args.seconds, 1)
        overhead = {
            name: {"value": traced["named"][name]["value"] - metric["value"],
                   "unit": metric["unit"]}
            for name, metric in detail["named"].items()
            if metric["unit"] in ("s", "ms") and metric["value"] is not None
            and traced["named"][name]["value"] is not None
        }
        profile["host"] = detail["host"]
        profile["workloads"][workload] = {
            "correct": result["correct"] and traced_result["correct"],
            "failed": result["failed"] + traced_result["failed"],
            "named": detail["named"],
            "driver": result["metrics"],
            "layers": traced_result["metrics"],
            "tracing_overhead": overhead,
            "checks": {**detail["checks"], **traced["checks"]},
        }
        print(f"== {workload}  correct={profile['workloads'][workload]['correct']}")
        for name, metric in detail["named"].items():
            value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
            print(f"  {name:<18} {value:>12} {metric['unit']}")
        for name, metric in traced_result["metrics"].items():
            if metric["value"]:
                print(f"  layer {name:<32} {metric['value']:.6g} {metric['unit']}")
        for name, metric in overhead.items():
            print(f"  overhead {name:<18} {metric['value']:+.6g} {metric['unit']}")
    print(json.dumps({"host": profile["host"]}))
    if args.out:
        args.out.write_text(json.dumps(profile, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
