"""Pair-query kernel: the raw pair-dot kernel vs scipy's column-slice expression.

``CholInvEffectiveResistance.query_pairs`` evaluates the Eq. (22) cross
terms ``z̃_pᵀ z̃_q`` with :func:`repro.linalg.sparse_utils.column_pair_dots`,
which calls scipy's compiled gather and element-wise-product kernels
directly.  ``_reference_query_pairs`` (kept in
``tests/test_effective_resistance.py`` as the specification) runs the same
arithmetic through ``Z̃[:, P].multiply(Z̃[:, Q]).sum(axis=0)``.  Per case
this records the sum over its calls of each call's best-of-``--repeat``
time, for both, and asserts that the answers are byte-identical:

* ``grid`` — a jittered mesh, one 4096-pair batch and all edges;
* ``ba`` — a Barabási–Albert graph (dense ``Z̃`` columns), the same;
* ``grid_64_pairs`` — 32 batches of 64 pairs on the same mesh, the size
  of the async service's requests: one segment each, so per-call
  overhead is all there is (read ``*_us_per_call``);
* ``pg_blocks`` — the Schur-reduced blocks of a synthetic power grid
  (Alg. 1 step 3): all edges of every block, one call per block, the
  per-call-overhead regime of the PG reduction;
* ``grid72_all_edges`` — all edges of the full-size 72² mesh in one call
  (about 2.5M gathered entries; not run with ``--smoke``).

A batch of several segments is shared out between the caller and the
kernel's helper threads (``cores − 1`` of them).  Each case also times
the kernel with one participant, the caller alone, and asserts that it
gives the same bytes; ``participants`` is the most a call of the case
used (the host's usable cores, capped by its segments) and
``host_cores`` those cores.

For both paths it also records the minor page faults of a call
(``getrusage`` ``ru_minflt``, the mean over the case's calls, each
measured right after a warm-up call of its own) and the largest
``tracemalloc`` peak of a call.  Both are recorded, not gated: fault
counts depend on the allocator and on what ran before.

Results print as JSON and are written as ``BENCH_pair_queries.json``
(``--output`` picks the path; default ``benchmarks/out/``).

Run:  PYTHONPATH=src python benchmarks/bench_pair_queries.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# standalone script: make `benchmarks.conftest` and the test-suite
# reference importable from any cwd
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.conftest import emit_json, host_context  # noqa: E402
from tests.test_effective_resistance import _reference_query_pairs  # noqa: E402

import repro.linalg.sparse_utils as sparse_utils  # noqa: E402
from repro.core.engine import EngineConfig, as_pair_columns, build_engine, build_engines  # noqa: E402
from repro.graphs.generators import barabasi_albert_graph, grid_2d  # noqa: E402
from repro.powergrid.generators import PGConfig, synthetic_ibmpg_like  # noqa: E402
from repro.reduction.pipeline import PGReducer, ReductionConfig  # noqa: E402

BATCH_PAIRS = 4096
SMALL_BATCH_PAIRS = 64
SMALL_BATCHES = 32


@contextmanager
def _one_participant():
    """Run ``column_pair_dots`` on the calling thread alone."""
    cores = sparse_utils._CORES
    sparse_utils._CORES = 1
    try:
        yield
    finally:
        sparse_utils._CORES = cores


def _participants(engine, pairs) -> int:
    """Threads ``column_pair_dots`` shares the batch between."""
    ps, qs = as_pair_columns(pairs)
    nnz = np.diff(engine.z_tilde.indptr)
    gathered = nnz[engine._position[ps]] + nnz[engine._position[qs]]
    return sparse_utils._pair_plan(gathered)[1]


def _best_of(repeat: int, run) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _minflt_per_call(work, run) -> float:
    """Mean minor page faults of ``run(engine, pairs)`` over ``work``,
    each call measured right after a warm-up call of its own."""
    faults = 0
    for engine, pairs in work:
        run(engine, pairs)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(engine, pairs)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults / len(work)


def _tracemalloc_peak(work, run) -> int:
    """Largest ``tracemalloc`` peak of one ``run(engine, pairs)`` call."""
    peak = 0
    tracemalloc.start()
    try:
        for engine, pairs in work:
            tracemalloc.reset_peak()
            run(engine, pairs)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak


def run_case(name: str, engines: list, batches: list, repeat: int) -> dict:
    """Time ``engine.query_pairs`` against the reference over every
    ``(engine, batch)``; assert byte-identical answers."""
    work = [(engine, pairs) for engine, engine_batches in zip(engines, batches)
            for pairs in engine_batches]
    for engine, pairs in work:
        got = engine.query_pairs(pairs)
        want = _reference_query_pairs(engine, pairs)
        assert got.tobytes() == want.tobytes(), f"{name}: kernel differs from the reference"
        with _one_participant():
            alone = engine.query_pairs(pairs)
        assert alone.tobytes() == got.tobytes(), f"{name}: one participant differs"
    # each call is repeated back to back, so both sides run on a warm heap:
    # alternating calls of different sizes makes the allocator return and
    # re-fault its pages, which the order of the calls would then decide
    kernel = sum(_best_of(repeat, lambda: e.query_pairs(p)) for e, p in work)
    with _one_participant():
        kernel_alone = sum(_best_of(repeat, lambda: e.query_pairs(p)) for e, p in work)
    reference = sum(_best_of(repeat, lambda: _reference_query_pairs(e, p)) for e, p in work)
    participants = max(_participants(e, p) for e, p in work)
    paths = {"kernel": lambda e, p: e.query_pairs(p), "reference": _reference_query_pairs}
    minflt = {side: _minflt_per_call(work, run) for side, run in paths.items()}
    peak = {side: _tracemalloc_peak(work, run) for side, run in paths.items()}
    calls = len(work)
    print(
        f"  {name}: kernel {kernel * 1e3:.2f} ms (participants {participants}; "
        f"{kernel_alone * 1e3:.2f} ms alone, {kernel / calls * 1e6:.0f} µs/call), "
        f"{minflt['kernel']:.0f} faults/call, peak {peak['kernel'] / 1e6:.1f} MB; "
        f"reference {reference * 1e3:.2f} ms ({reference / calls * 1e6:.0f} µs/call), "
        f"{minflt['reference']:.0f} faults/call, peak {peak['reference'] / 1e6:.1f} MB",
        file=sys.stderr,
    )
    return {
        "case": name,
        "engines": len(engines),
        "calls": calls,
        "pairs": int(sum(p.shape[0] for _, p in work)),
        "nnz_z": int(sum(e.z_tilde.nnz for e in engines)),
        "repeat": repeat,
        "participants": participants,
        "kernel_seconds": kernel,
        "kernel_one_participant_seconds": kernel_alone,
        "reference_seconds": reference,
        "kernel_us_per_call": kernel / calls * 1e6,
        "reference_us_per_call": reference / calls * 1e6,
        "speedup": reference / kernel if kernel else 0.0,
        "participants_speedup": kernel_alone / kernel if kernel else 0.0,
        "kernel_minflt_per_call": minflt["kernel"],
        "reference_minflt_per_call": minflt["reference"],
        "kernel_tracemalloc_peak_bytes": peak["kernel"],
        "reference_tracemalloc_peak_bytes": peak["reference"],
        "bit_identical": True,
    }


def _single(graph, seed: int) -> "tuple[list, list]":
    engine = build_engine(graph, EngineConfig())
    pairs = np.random.default_rng(seed).integers(0, graph.num_nodes, size=(BATCH_PAIRS, 2))
    return [engine], [[pairs, graph.edge_array()]]


def _small_batches(engine, seed: int) -> "tuple[list, list]":
    rng = np.random.default_rng(seed)
    batches = [rng.integers(0, engine.n, size=(SMALL_BATCH_PAIRS, 2))
               for _ in range(SMALL_BATCHES)]
    return [engine], [batches]


def _pg_blocks(side: int, seed: int) -> "tuple[list, list]":
    grid = synthetic_ibmpg_like(
        PGConfig(nx=side, ny=side, pad_pitch=10, load_fraction=0.06), seed=seed
    )
    reducer = PGReducer(grid, ReductionConfig(seed=seed))
    graphs = [reducer._schur_block(b).graph for b in range(reducer.num_blocks)]
    graphs = [g for g in graphs if g.num_edges]
    engines = build_engines(graphs, EngineConfig())
    return engines, [[g.edge_array()] for g in graphs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized cases (seconds)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timed repetitions per path (default: 7 full / 3 smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="benchmarks/out/BENCH_pair_queries.json",
                        help="where to write the result record")
    args = parser.parse_args(argv)
    side = 24 if args.smoke else 72
    ba_nodes = 400 if args.smoke else 3000
    pg_side = 32 if args.smoke else 72
    repeat = args.repeat or (3 if args.smoke else 7)

    grid_engines, grid_batches = _single(
        grid_2d(side, side, jitter=0.3, seed=args.seed), args.seed
    )
    cases = [
        run_case("grid", grid_engines, grid_batches, repeat),
        run_case("grid_64_pairs", *_small_batches(grid_engines[0], args.seed + 3), repeat),
        run_case(
            "ba",
            *_single(barabasi_albert_graph(ba_nodes, 3, seed=args.seed + 1), args.seed + 1),
            repeat,
        ),
        run_case("pg_blocks", *_pg_blocks(pg_side, args.seed + 2), repeat),
    ]
    if not args.smoke:
        mesh = grid_2d(72, 72, jitter=0.3, seed=args.seed)
        engine = build_engine(mesh, EngineConfig())
        cases.append(run_case("grid72_all_edges", [engine], [[mesh.edge_array()]], repeat))
    result = {
        "bench": "pair_queries",
        "smoke": bool(args.smoke),
        "batch_pairs": BATCH_PAIRS,
        "host_cores": sparse_utils._CORES,
        "cases": cases,
        "host": host_context(),
    }
    print(json.dumps(result, indent=2))
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = emit_json(out.parent, "pair_queries", result)
    if out.name != written.name:
        written.replace(out)
        print(f"moved to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
