"""Refresh cost: cold build vs reused-ordering refresh vs new-edge refresh.

``ResistanceService.refresh_after_edge_update`` rebuilds through
``engine.rebuilt``: an edit that keeps the sparsity pattern (the Table II
incremental setting — values change, topology does not) refactors on the
served fill-reducing permutation and skips the ordering; an edit that
inserts an edge orders from scratch.  Per case (a jittered mesh, whose
build the ordering dominates, and a Barabási–Albert graph) this records:

* ``cold`` — ``build_engine`` of the edited graph;
* ``reused`` — a refresh that scales 1% of the edge weights by U(0.5, 2);
* ``new_edge`` — a refresh that adds one edge between unjoined nodes.

Timings are best-of-``--repeat`` with cold builds and refreshes
interleaved, for each path as a whole and for each of its build stages
(``ordering``, ``ichol``, ``approx_inverse``) separately, so the stage
shares in ``stage_seconds`` compare across commits.  ``alg2_levels`` (the
filled-graph depth of the cold build's factor, plus one) is the number of
Alg. 2 levels, each paying one batched matmul and truncation, so the
``approx_inverse`` stage reads as a per-level cost too.  Every reused refresh must report ``reused_ordering`` and be
bit-identical to the cold build (``perm``, ``Z̃``, column norms, answers);
every new-edge refresh must order afresh and match its own cold build.
Results print as JSON and, with ``--output``, are written as
``BENCH_refresh.json`` for the CI artifact trajectory.

Run:  PYTHONPATH=src python benchmarks/bench_refresh.py [--smoke]
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

from repro.core.engine import EngineConfig, build_engine  # noqa: E402
from repro.graphs.generators import barabasi_albert_graph, grid_2d  # noqa: E402
from repro.graphs.graph import Graph  # noqa: E402
from repro.service import ResistanceService  # noqa: E402

EDIT_FRACTION = 0.01


def _edited(graph: Graph, rng: np.random.Generator) -> Graph:
    """``graph`` with 1% of its edge weights scaled by U(0.5, 2)."""
    weights = graph.weights.copy()
    count = max(1, int(EDIT_FRACTION * graph.num_edges))
    chosen = rng.choice(graph.num_edges, count, replace=False)
    weights[chosen] *= rng.uniform(0.5, 2.0, size=count)
    return graph.with_weights(weights)


def _unjoined_pair(graph: Graph, rng: np.random.Generator) -> "tuple[int, int]":
    """A random node pair no edge of ``graph`` joins."""
    keys = graph.node_pair_keys()
    n = graph.num_nodes
    while True:
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        position = np.searchsorted(keys, u * n + v)
        if position == keys.shape[0] or keys[position] != u * n + v:
            return u, v


def _assert_bit_identical(engine, cold, probe: np.ndarray, what: str) -> None:
    same = np.array_equal(engine.perm, cold.perm) and all(
        np.array_equal(getattr(engine.z_tilde, part), getattr(cold.z_tilde, part))
        for part in ("indptr", "indices", "data")
    )
    same = same and np.array_equal(engine._column_sq_norms, cold._column_sq_norms)
    same = same and np.array_equal(engine.query_pairs(probe), cold.query_pairs(probe))
    assert same, f"{what}: refreshed engine differs from a cold build_engine"


def run_case(name: str, graph: Graph, repeat: int, seed: int) -> dict:
    """Time the three rebuild paths on ``graph``; assert bit-identity."""
    config = EngineConfig()
    rng = np.random.default_rng(seed)
    probe = rng.integers(0, graph.num_nodes, size=(512, 2))
    service = ResistanceService(graph, config=config)
    times: "dict[str, list[float]]" = {"cold": [], "reused": [], "new_edge": []}
    stages: "dict[str, dict[str, list[float]]]" = {path: {} for path in times}

    def record_stages(path: str, engine) -> None:
        for stage, seconds in engine.timer.times.items():
            stages[path].setdefault(stage, []).append(seconds)

    for _ in range(repeat):
        edited = _edited(graph, rng)
        start = time.perf_counter()
        cold = build_engine(edited, config)
        times["cold"].append(time.perf_counter() - start)
        record_stages("cold", cold)

        stats = service.refresh_after_edge_update(edited)
        assert stats.reused_ordering, f"{name}: weight edit did not reuse the ordering"
        times["reused"].append(stats.rebuild_seconds)
        record_stages("reused", service.engine)
        _assert_bit_identical(service.engine, cold, probe, f"{name} reused")

        u, v = _unjoined_pair(graph, rng)
        grown = ResistanceService.from_engine(cold)
        stats = grown.refresh_after_edge_update(edges=[(u, v)], weights=[1.0])
        assert not stats.reused_ordering, f"{name}: a new edge kept the old ordering"
        times["new_edge"].append(stats.rebuild_seconds)
        record_stages("new_edge", grown.engine)
        _assert_bit_identical(
            grown.engine, build_engine(grown.graph, config), probe, f"{name} new edge"
        )
    best = {path: min(samples) for path, samples in times.items()}
    print(
        f"  {name}: cold {best['cold']:.3f}s, reused {best['reused']:.3f}s, "
        f"new edge {best['new_edge']:.3f}s",
        file=sys.stderr,
    )
    return {
        "case": name,
        "nodes": int(graph.num_nodes),
        "edges": int(graph.num_edges),
        "repeat": repeat,
        "best_seconds": best,
        "samples_seconds": times,
        "alg2_levels": int(cold.depths.max()) + 1,
        "stage_seconds": {
            path: {stage: min(samples) for stage, samples in by_stage.items()}
            for path, by_stage in stages.items()
        },
        "reused_vs_cold": best["reused"] / best["cold"] if best["cold"] else 0.0,
        "bit_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized cases (seconds)")
    parser.add_argument("--grid-side", dest="grid_side", type=int, default=None,
                        help="side of the jittered mesh (default: 72 full / 24 smoke)")
    parser.add_argument("--ba-nodes", dest="ba_nodes", type=int, default=None,
                        help="nodes of the BA graph (default: 3000 full / 400 smoke)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timed repetitions per path (default: 5 full / 2 smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", help="write the result record as JSON")
    args = parser.parse_args(argv)
    side = args.grid_side or (24 if args.smoke else 72)
    ba_nodes = args.ba_nodes or (400 if args.smoke else 3000)
    repeat = args.repeat or (2 if args.smoke else 5)

    cases = [
        run_case(
            "grid", grid_2d(side, side, jitter=0.3, seed=args.seed), repeat, args.seed
        ),
        run_case(
            "ba",
            barabasi_albert_graph(ba_nodes, 3, weight_low=0.5, weight_high=2.0,
                                  seed=args.seed),
            repeat, args.seed + 1,
        ),
    ]
    result = {
        "bench": "refresh",
        "smoke": bool(args.smoke),
        "edit_fraction": EDIT_FRACTION,
        "cases": cases,
        "host": host_context(),
    }
    print(json.dumps(result, indent=2))
    if args.output:
        # one writer for every BENCH_*.json so the artifact records stay
        # shape-consistent across the bench suite
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        written = emit_json(out.parent, "refresh", result)
        if out.name != written.name:
            written.replace(out)
            print(f"moved to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
