"""The benchmark workloads, driven through the public API of ``repro``.

Every engine uses ``EngineConfig()`` defaults (epsilon = drop_tol = 1e-3,
AMD ordering, blocked Alg. 2, one build worker), so the benchmark measures
what users get.  Every generator seed derives from the workload seed.

Each workload fills ``ctx.named`` with its end-to-end metrics (names as in
``perfbench/README.md``) and, on a traced run, ``ctx.layers`` with the
per-layer metrics of the layers it calls.  Reference answers, accuracy
scoring and checks run outside the timed regions, after peak memory is read.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from measure import (
    Ledger, median, peak_rss_mb, percentile, relative_errors, rng_for,
    run_window, uniform_pairs, derive_seed,
)
from tracing import Tracer

from repro.apps.incremental import run_incremental_flow
from repro.cholesky import compute_ordering, filled_graph_depth, ichol
from repro.core.approx_inverse import approximate_inverse
from repro.core.effective_resistance import CholInvEffectiveResistance
from repro.core.engine import EngineConfig, build_engine
from repro.graphs.components import connected_components
from repro.graphs.generators import barabasi_albert_graph, grid_2d
from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian
from repro.powergrid.dc import dc_analysis, max_voltage_drop
from repro.powergrid.generators import PGConfig, synthetic_ibmpg_like
from repro.reduction.pipeline import PGReducer, ReductionConfig
from repro.service import AsyncResistanceService, ResistanceService

# Input sizes.  "full" is what the benchmark measures; it is sized so that
# a 30 s run repeats every timed operation many times on a 2-core host,
# even while the host runs slow (ten builds and refreshes on the mesh,
# sixteen on the BA graphs, twelve PG reductions).  "smoke" only exercises every code path, for
# the benchmark's own tests.
SIZES = {
    "full": {
        "mesh_side": 72, "ba_nodes": 3000, "pg_side": 72,
        "er_batches": 8, "edge_passes": 10, "batch_pairs": 4096,
        "mesh_ref_pairs": 512, "ba_ref_pairs": 64, "min_cycles": 3,
        "request_rate": 400.0, "burst_seconds": 1.0,
        "reps": 2, "dc_solves": 8, "incremental_flows": 8,
    },
    "smoke": {
        "mesh_side": 16, "ba_nodes": 300, "pg_side": 24,
        "er_batches": 2, "edge_passes": 1, "batch_pairs": 256,
        "mesh_ref_pairs": 32, "ba_ref_pairs": 16, "min_cycles": 2,
        "request_rate": 200.0, "burst_seconds": 0.2,
        "reps": 1, "dc_solves": 1, "incremental_flows": 1,
    },
}

REQUEST_PAIRS = 64        # pairs per open-loop request
HOT_PAIRS = 4096          # skewed half of the requests draws from these
ZIPF_EXPONENT = 1.3
REFRESH_FRACTION = 0.01   # share of edge weights one refresh perturbs
SLA_REL_TOL = 0.05
BA_GRAPHS = 6             # social-er rotates over this many graphs

# Accuracy gates: a run whose answers are worse reports ``correct: false``.
# They sit well above the seed's errors (about 12x on mesh edges, 4x on the
# PG port voltages, 50x on BA so the smoke-size graphs pass too) and 1.5x
# above the known far-pair gap on meshes, which the ICT drop causes.
GATES = {
    "mesh-er": {"err_edge_mean": 1e-2, "err_far_mean": 0.4},
    "social-er": {"err_edge_mean": 5e-3, "err_far_mean": 5e-3},
    "pg-reduce": {"dc_err_pct": 10.0, "incremental_rel_pct": 10.0},
}

# The part of a host-reference reading that scales each timed series (see
# ``measure.HostReference``); unlisted series use both parts.  Builds,
# refreshes and reductions are interpreter-bound (the ordering, the
# per-block engine calls); an all-edge pass is one numpy gather; batches
# and DC solves mix the two.
HOST_BOUND = {
    "setup_s": "interpreted", "refresh_s": "interpreted",
    "reduce_s": "interpreted", "incremental_s": "interpreted",
    "edge_er_s": "native",
}

# Every per-layer metric with its unit; a layer the workload does not call
# reports 0.
LAYER_UNITS = {
    "graphs.laplacian_s": "s",
    "cholesky.ordering_s": "s",
    "cholesky.ichol_s": "s",
    "cholesky.nnz_l": "count",
    "cholesky.shift_retries": "count",
    "cholesky.levels": "count",
    "approx_inverse.s": "s",
    "approx_inverse.nnz_z": "count",
    "approx_inverse.columns_truncated": "count",
    "engine.finalize_s": "s",
    "engine.query_pairs_per_s": "1/s",
    "persistence.load_s": "s",
    "persistence.bytes": "bytes",
    "service.plan_s": "s",
    "service.execute_s": "s",
    "service.cache_hit_frac": "ratio",
    "service.dedup_frac": "ratio",
    "router.approx_frac": "ratio",
    "router.tier_s": "s",
    "async.coalescing_ratio": "ratio",
    "async.batch_pairs": "count",
    "loadgen.late_ms_p99": "ms",
    "partition.s": "s",
    "reduction.er_s": "s",
    "reduction.block_other_s": "s",
    "reduction.stitch_s": "s",
    "reduction.blocks": "count",
    "reduction.kept_frac": "ratio",
    "powergrid.dc_reduced_s": "s",
}


@dataclass
class Context:
    """One workload run: its arguments, and what it measured."""

    seed: int
    seconds: float
    tracer: Tracer
    size: dict
    root: Path
    ledger: Ledger = field(default_factory=Ledger)
    named: "dict[str, tuple[float | None, str]]" = field(default_factory=dict)
    layers: "dict[str, float]" = field(default_factory=dict)
    # named timings with every sample scaled to the reference host
    scaled: "dict[str, float | None]" = field(default_factory=dict)

    def timed_median(self, name: str, unit: str, scale: float = 1.0) -> None:
        """Publish the median of a sample series as a named metric."""
        value = median(self.ledger.samples.get(name, []))
        self.named[name] = (None if value is None else value * scale, unit)
        value = median(self.ledger.scaled.get(name, []))
        self.scaled[name] = None if value is None else value * scale


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _staged_build(ctx: Context, graph: Graph, config: EngineConfig):
    """The Alg. 3 build one stage at a time, each stage its own span.

    Returns the engine and the build's counts; the traced run checks that
    this reproduces ``build_engine`` bit for bit.
    """
    tracer = ctx.tracer
    with tracer.span("engine.build"):
        ground = float(graph.weights.mean())
        with tracer.span("graphs.laplacian"):
            matrix, _ = grounded_laplacian(graph, ground)
        with tracer.span("cholesky.ordering"):
            perm = compute_ordering(matrix, method=config.ordering)
        with tracer.span("cholesky.ichol"):
            factor = ichol(matrix, drop_tol=config.drop_tol, perm=perm)
        with tracer.span("cholesky.levels"):
            depths = filled_graph_depth(factor.lower)
        with tracer.span("approx_inverse"):
            z_tilde, stats = approximate_inverse(
                factor.lower,
                epsilon=config.epsilon,
                small_column_threshold=config.small_column_threshold,
                mode=config.mode,
                build_workers=config.build_workers,
            )
        with tracer.span("engine.finalize"):
            labels, _ = connected_components(graph)
            norms = np.asarray(z_tilde.multiply(z_tilde).sum(axis=0)).ravel()
            engine = CholInvEffectiveResistance.from_state(
                graph, config, z_tilde, perm, norms, labels, stats, ground
            )
    # a Manteuffel retry doubles the shift, starting from 1e-6
    retries = 0 if factor.shift == 0.0 else round(np.log2(factor.shift / 1e-6)) + 1
    counts = {
        "cholesky.nnz_l": factor.nnz,
        "cholesky.shift_retries": retries,
        "cholesky.levels": int(depths.max()) + 1,
        "approx_inverse.nnz_z": stats.nnz,
        "approx_inverse.columns_truncated": stats.columns_truncated,
    }
    return engine, factor, counts


def _check_staged_fidelity(ctx: Context, graph, config, engine, factor) -> None:
    """The staged build must equal ``build_engine``'s perm, L and Z̃."""
    direct = build_engine(graph, config)
    same = (
        np.array_equal(direct.perm, engine.perm)
        and direct.ichol_result.nnz == factor.nnz
        and all(
            np.array_equal(getattr(direct.z_tilde, part), getattr(engine.z_tilde, part))
            for part in ("indptr", "indices", "data")
        )
    )
    ctx.ledger.check("staged_build_matches_build_engine", same)


def _report_layers(ctx: Context, reports) -> None:
    """Service-layer metrics from the ``BatchReport`` of every batch."""
    layers = ctx.layers
    queries = sum(r.num_queries for r in reports)
    hits = sum(r.cache_hit_rows for r in reports)
    shared = sum(
        r.num_queries - r.trivial_rows - r.cache_hit_rows - r.unique_misses
        for r in reports
    )
    layers["service.plan_s"] = median([r.plan_seconds for r in reports]) or 0.0
    layers["service.execute_s"] = median([r.execute_seconds for r in reports]) or 0.0
    layers["service.cache_hit_frac"] = hits / queries if queries else 0.0
    layers["service.dedup_frac"] = shared / queries if queries else 0.0
    timings = [t for r in reports for t in r.subbatch_timings if t.tier == "exact"]
    seconds = sum(t.seconds for t in timings)
    layers["engine.query_pairs_per_s"] = (
        sum(t.num_pairs for t in timings) / seconds if seconds else 0.0
    )


def _build_layers(ctx: Context, counts: dict) -> None:
    tracer = ctx.tracer
    layers = ctx.layers
    layers["graphs.laplacian_s"] = tracer.layer_seconds("graphs.laplacian")
    layers["cholesky.ordering_s"] = tracer.layer_seconds("cholesky.ordering")
    layers["cholesky.ichol_s"] = tracer.layer_seconds("cholesky.ichol")
    layers["approx_inverse.s"] = tracer.layer_seconds("approx_inverse")
    layers["engine.finalize_s"] = tracer.layer_seconds("engine.finalize")
    layers.update(counts)


# ----------------------------------------------------------------------
# serving: warm start, open-loop requests, refresh
# ----------------------------------------------------------------------
def _warm_start(ctx: Context, engine, pairs: np.ndarray):
    """Save ``engine`` (untimed) and serve it again through ``from_saved``.

    The reloaded service must answer ``pairs`` bit for bit like ``engine``.
    """
    ledger, tracer = ctx.ledger, ctx.tracer
    with TemporaryDirectory(prefix=".perfbench-", dir=ctx.root) as scratch:
        path = engine.save(Path(scratch) / "engine.npz")
        ctx.layers["persistence.bytes"] = path.stat().st_size
        with tracer.span("persistence.load"):
            service = ledger.run("from_saved", ResistanceService.from_saved, path)
    if service is not None and not np.array_equal(
        service.engine.query_pairs(pairs), engine.query_pairs(pairs)
    ):
        ledger.fail("from_saved reload does not answer bit-identically")
    return service


def _request_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Even requests draw zipf-skewed hot pairs, odd ones uniform pairs."""
    hot = uniform_pairs(rng, n, HOT_PAIRS)
    weights = np.arange(1, HOT_PAIRS + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    ranks = rng.choice(HOT_PAIRS, size=(count, REQUEST_PAIRS), p=weights / weights.sum())
    requests = hot[ranks]
    odd = np.arange(1, count, 2)
    requests[odd] = uniform_pairs(rng, n, odd.size * REQUEST_PAIRS).reshape(
        odd.size, REQUEST_PAIRS, 2
    )
    return requests


def _open_loop(ledger: Ledger, front: AsyncResistanceService, requests, rate: float):
    """Submit each request at its due time, ``rate`` per second, whether or
    not earlier ones have been answered, then wait for every answer.

    Returns the due and done times of each request and its future.
    """
    count = len(requests)
    due = time.perf_counter() + 0.01 + np.arange(count) / rate
    done = np.full(count, np.nan)
    answered = threading.Semaphore(0)
    futures, late = {}, []

    def on_done(i: int):
        def callback(_future) -> None:
            done[i] = time.perf_counter()
            answered.release()
        return callback

    for i in range(count):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late.append(time.perf_counter() - due[i])
        future = ledger.run("request", front.submit, requests[i])
        if future is not None:
            futures[i] = future
            future.add_done_callback(on_done(i))
    deadline = time.perf_counter() + 60.0
    resolved = 0
    while resolved < len(futures) and answered.acquire(
        timeout=max(0.0, deadline - time.perf_counter())
    ):
        resolved += 1
    if resolved < len(futures):
        ledger.fail(f"{len(futures) - resolved} requests unresolved at the end of the run")
    return due, done, futures, late


@dataclass
class Serving:
    """What the open-loop bursts of one run measured."""

    latencies_ms: "list[float]" = field(default_factory=list)
    late_s: "list[float]" = field(default_factory=list)
    requests: int = 0
    pairs: int = 0
    batches: int = 0
    reports: list = field(default_factory=list)


def _burst(ctx: Context, service: ResistanceService, serving: Serving, rng) -> None:
    """An open-loop burst of requests through ``AsyncResistanceService``.

    Every answer must equal the engine's for the same pairs.
    """
    size, ledger, tracer = ctx.size, ctx.ledger, ctx.tracer
    rate = size["request_rate"]
    requests = _request_pairs(
        rng, service.engine.n, max(1, int(rate * size["burst_seconds"]))
    )
    if tracer.enabled:
        # the batcher calls this public method once per coalesced batch
        plain = service.query_pairs_with_report

        def traced_batch(*args, **kwargs):
            with tracer.span("service.query_pairs"):
                out = plain(*args, **kwargs)
            serving.reports.append(out[1])
            return out

        service.query_pairs_with_report = traced_batch
    front = AsyncResistanceService(service)
    try:
        due, done, futures, late = _open_loop(ledger, front, requests, rate)
    finally:
        front.close()
    if tracer.enabled:
        del service.query_pairs_with_report
    serving.late_s += late
    serving.requests += front.stats.requests
    serving.pairs += front.stats.pairs
    serving.batches += front.stats.batches

    for i, future in futures.items():
        if np.isnan(done[i]):
            continue  # unresolved, already counted
        if future.exception() is not None:
            ledger.fail(f"request: {future.exception()!r}")
            continue
        serving.latencies_ms.append((done[i] - due[i]) * 1e3)
        tracer.record("request", due[i], done[i], request_id=len(serving.latencies_ms))
        values = future.result()
        if ledger.count_nonfinite("request", values) and not np.array_equal(
            values, service.engine.query_pairs(requests[i])
        ):
            ledger.fail("request disagrees with the engine")


def _edited(graph: Graph, rng: np.random.Generator) -> Graph:
    """``graph`` with ``REFRESH_FRACTION`` of its edge weights scaled by
    U(0.5, 2)."""
    weights = graph.weights.copy()
    count = max(1, int(REFRESH_FRACTION * graph.num_edges))
    edited = rng.choice(graph.num_edges, count, replace=False)
    weights[edited] *= rng.uniform(0.5, 2.0, size=edited.size)
    return Graph(graph.num_nodes, graph.heads, graph.tails, weights)


# ----------------------------------------------------------------------
# mesh-er and social-er: the Table I protocol
# ----------------------------------------------------------------------
def _er_protocol(
    ctx: Context, graphs: "list[Graph]", reference_method: str, gates: dict,
    sla: bool = False, serve: bool = False,
) -> None:
    """Builds, all-edge resistances, closed-loop batches, refreshes, then
    accuracy.

    Cycle ``i`` runs on ``graphs[i % len(graphs)]``; accuracy is scored on
    ``graphs[0]``.  ``sla`` adds the landmark tier to set-up and follows
    each exact batch with a ``rel_tol`` batch through the router.  ``serve``
    warm-starts the service from a saved engine and sends an open-loop
    burst of requests through ``AsyncResistanceService`` before the refresh.
    """
    size, ledger, tracer = ctx.size, ctx.ledger, ctx.tracer
    config = EngineConfig()
    rng = rng_for(ctx.seed, "pairs")
    request_rng = rng_for(ctx.seed, "requests")
    edit_rng = rng_for(ctx.seed, "refresh")
    scored_graph = graphs[0]
    n = scored_graph.num_nodes
    ref_count = size["mesh_ref_pairs" if reference_method == "exact" else "ba_ref_pairs"]
    sampled_edges = rng.choice(scored_graph.num_edges, size=ref_count, replace=False)
    far_pairs = uniform_pairs(rng, n, ref_count)
    reports, sla_reports = [], []
    serving = Serving()
    scored: dict = {}
    counts: dict = {}

    def set_up(graph: Graph):
        """Build an engine and a service over it; ``None`` if that failed."""
        # the previous engines sit in reference cycles; free them now, not
        # at whichever point of the build the collector would pick
        gc.collect()
        start = time.perf_counter()
        if tracer.enabled:
            built = ledger.run("build", _staged_build, ctx, graph, config)
            engine = None if built is None else built[0]
        else:
            engine = ledger.run("build", build_engine, graph, config)
        if engine is None:
            return None
        service = ResistanceService.from_engine(engine)
        if sla and ledger.run("enable_tiers", service.enable_tiers, ("landmark",)) is None:
            return None
        ledger.sample("setup_s", time.perf_counter() - start)
        if tracer.enabled and not counts:
            _check_staged_fidelity(ctx, graph, config, engine, built[1])
            counts.update(built[2])
        return engine, service

    def cycle(i: int) -> None:
        graph = graphs[i % len(graphs)]
        # set-up and refresh repeat within a cycle, on the same graph, so
        # their medians rest on more samples; the last engine serves
        for _ in range(size["reps"]):
            ready = None  # free the previous repetition's engine first
            ready = set_up(graph)
            if ready is None:
                return
        engine, service = ready
        if serve:
            service = _warm_start(ctx, engine, far_pairs)
            if service is None:
                return
            engine = service.engine

        for _ in range(size["edge_passes"]):
            start = time.perf_counter()
            with tracer.span("engine.all_edge_resistances"):
                edges = ledger.run("edge_er", engine.all_edge_resistances)
            if edges is None:
                return
            ledger.sample("edge_er_s", time.perf_counter() - start)
            ledger.count_nonfinite("edge_er", edges)
        if graph is scored_graph:
            scored["edges"] = edges[sampled_edges]
            scored["far"] = engine.query_pairs(far_pairs)

        for _ in range(size["er_batches"]):
            pairs = uniform_pairs(rng, n, size["batch_pairs"])
            start = time.perf_counter()
            with tracer.span("service.query_pairs"):
                out = ledger.run("batch", service.query_pairs_with_report, pairs)
            if out is None:
                continue
            ledger.sample("batch_ms_p50", time.perf_counter() - start)
            ledger.count_nonfinite("batch", out[0])
            reports.append(out[1])
            if not sla:
                continue
            pairs = uniform_pairs(rng, n, size["batch_pairs"])
            start = time.perf_counter()
            with tracer.span("service.query_pairs_sla"):
                out = ledger.run(
                    "sla_batch", service.query_pairs_with_report, pairs,
                    rel_tol=SLA_REL_TOL,
                )
            if out is None:
                continue
            ledger.sample("sla_batch_ms_p50", time.perf_counter() - start)
            values, report = out
            ledger.count_nonfinite("sla_batch", values)
            sla_reports.append(report)
            # the router's acceptance is calibrated, not certified: on the
            # seed about one answer in 16k lands just above the tolerance
            err = relative_errors(values, engine.query_pairs(pairs))
            over = float(np.mean(err > SLA_REL_TOL))
            ledger.check("sla_answers_over_rel_tol<=1%", over <= 0.01)

        if serve:
            _burst(ctx, service, serving, request_rng)

        # the refresh runs alone, so its time is the rebuild's own
        for _ in range(size["reps"]):
            edited = _edited(graph, edit_rng)
            start = time.perf_counter()
            with tracer.span("service.refresh"):
                refreshed = ledger.run("refresh", service.refresh_after_edge_update, graph=edited)
            if refreshed is None:
                return
            ledger.sample("refresh_s", time.perf_counter() - start)
            ledger.count_nonfinite("refreshed", service.query_pairs(far_pairs))

    run_window(ctx.seconds, max(size["min_cycles"], len(graphs)), cycle)
    ctx.named["peak_rss_mb"] = (peak_rss_mb(), "MB")

    ctx.timed_median("setup_s", "s")
    ctx.timed_median("edge_er_s", "s")
    ctx.timed_median("batch_ms_p50", "ms", scale=1e3)
    if sla:
        ctx.timed_median("sla_batch_ms_p50", "ms", scale=1e3)
    ctx.timed_median("refresh_s", "s")
    if serve:
        ctx.named["request_ms_p50"] = (median(serving.latencies_ms), "ms")
        ctx.named["request_ms_p99"] = (percentile(serving.latencies_ms, 99.0), "ms")
    if scored:
        # an independent reference that shares nothing with the Alg. 3 path
        reference = build_engine(scored_graph, EngineConfig(method=reference_method))
        reference_edges = reference.query_pairs(scored_graph.edge_array()[sampled_edges])
        edge_err = relative_errors(scored["edges"], reference_edges)
        far_err = relative_errors(scored["far"], reference.query_pairs(far_pairs))
        accuracy = {
            "err_edge_mean": float(edge_err.mean()),
            "err_edge_max": float(edge_err.max()),
            "err_far_mean": float(far_err.mean()),
        }
        for name, value in accuracy.items():
            ctx.named[name] = (value, "ratio")
        for name, limit in gates.items():
            ledger.check(f"{name}<={limit:g}", accuracy[name] <= limit)

    if tracer.enabled:
        _build_layers(ctx, counts)
        _report_layers(ctx, reports + sla_reports + serving.reports)
        if sla_reports:
            routed = sum(sum(r.tier_rows.values()) for r in sla_reports)
            approx = sum(
                rows for r in sla_reports for tier, rows in r.tier_rows.items()
                if tier != "exact"
            )
            ctx.layers["router.approx_frac"] = approx / routed if routed else 0.0
            ctx.layers["router.tier_s"] = median([
                sum(t.seconds for t in r.subbatch_timings if t.tier != "exact")
                for r in sla_reports
            ])
        if serve:
            ctx.layers["persistence.load_s"] = tracer.layer_seconds("persistence.load")
            if serving.batches:
                ctx.layers["async.coalescing_ratio"] = serving.requests / serving.batches
                ctx.layers["async.batch_pairs"] = serving.pairs / serving.batches
            ctx.layers["loadgen.late_ms_p99"] = float(np.percentile(serving.late_s, 99.0)) * 1e3


def mesh_er(ctx: Context) -> None:
    """Table I protocol on a jittered 2-D mesh (its build is ordering-bound),
    served warm from a saved engine under open-loop requests."""
    side = ctx.size["mesh_side"]
    graph = grid_2d(side, side, jitter=0.3, seed=derive_seed(ctx.seed, "graph"))
    _er_protocol(ctx, [graph], "exact", GATES["mesh-er"], serve=True)


def social_er(ctx: Context) -> None:
    """Table I protocol on Barabasi-Albert graphs (Alg. 2 and ICT bound),
    plus the landmark tier and SLA-routed batches."""
    # batch cost differs by up to 25% from one BA graph and engine to the
    # next, so the cycles rotate over several graphs and the medians
    # average them out
    graphs = [
        barabasi_albert_graph(ctx.size["ba_nodes"], 3, seed=derive_seed(ctx.seed, f"graph{k}"))
        for k in range(BA_GRAPHS)
    ]
    # SuperLU does not finish on BA graphs of useful size; CG does
    _er_protocol(ctx, graphs, "naive", GATES["social-er"], sla=True)


# ----------------------------------------------------------------------
# pg-reduce: Alg. 1 and the Table II incremental protocol
# ----------------------------------------------------------------------
def pg_reduce(ctx: Context) -> None:
    """PG reduction of a synthetic IBM-style grid, a DC check against the
    original, then incremental re-reduction after 10% of blocks change."""
    size, ledger, tracer = ctx.size, ctx.ledger, ctx.tracer
    side = size["pg_side"]
    grid = synthetic_ibmpg_like(
        PGConfig(nx=side, ny=side, pad_pitch=10, load_fraction=0.06),
        seed=derive_seed(ctx.seed, "grid"),
    )
    config = ReductionConfig(seed=derive_seed(ctx.seed, "reduction"))
    original = dc_analysis(grid)
    ports = grid.port_nodes()
    max_drop = max_voltage_drop(grid, original.voltages)
    layer_samples: "dict[str, list[float]]" = {}

    def cycle(i: int) -> None:
        # set-up and reduction repeat within a cycle; each reducer starts
        # from scratch, so every repetition does the same work
        for _ in range(size["reps"]):
            start = time.perf_counter()
            with tracer.span("reduction.construct"):
                reducer = ledger.run("construct", PGReducer, grid, config)
            if reducer is None:
                return
            ledger.sample("setup_s", time.perf_counter() - start)
            start = time.perf_counter()
            with tracer.span("reduction.reduce"):
                reduced = ledger.run("reduce", reducer.reduce)
            if reduced is None:
                return
            ledger.sample("reduce_s", time.perf_counter() - start)

            blocks = [reducer.reduce_block(b) for b in range(reducer.num_blocks)]
            er = sum(b.er_time for b in blocks)
            for name, value in (
                ("partition.s", reducer.timer["partition"]),
                ("reduction.er_s", er),
                ("reduction.block_other_s", sum(b.total_time for b in blocks) - er),
                ("reduction.stitch_s", reducer.timer["stitch"]),
                ("reduction.kept_frac", reduced.grid.num_nodes / grid.num_nodes),
            ):
                layer_samples.setdefault(name, []).append(value)
            ctx.layers["reduction.blocks"] = reducer.num_blocks

        # the answer a user of the reduced model waits for: its DC solve
        for _ in range(size["dc_solves"]):
            start = time.perf_counter()
            with tracer.span("powergrid.dc_reduced"):
                reduced_dc = ledger.run("dc_reduced", dc_analysis, reduced.grid)
            if reduced_dc is None:
                return
            ledger.sample("dc_solve_ms", time.perf_counter() - start)
        ledger.count_nonfinite("reduced dc", reduced_dc.voltages)
        errors = reduced.port_voltage_errors(original.voltages, reduced_dc.voltages, ports)
        ledger.sample("dc_err_pct", 100.0 * float(errors.mean()) / max_drop)

        # which blocks change decides the incremental cost, so each cycle
        # samples several random 10% selections
        for flow in range(size["incremental_flows"]):
            with tracer.span("reduction.incremental"):
                outcome = ledger.run(
                    "incremental", run_incremental_flow, grid, config,
                    modified_fraction=0.1,
                    seed=derive_seed(ctx.seed, f"incremental{i}.{flow}"),
                    base_reducer=reducer,
                )
            if outcome is None:
                return
            ledger.sample("incremental_s", outcome.total_time)
            limit = GATES["pg-reduce"]["incremental_rel_pct"]
            ledger.check(f"incremental_rel_pct<={limit:g}", outcome.rel_pct <= limit)
            layer_samples.setdefault("powergrid.dc_reduced_s", []).append(
                outcome.time_reduced_solve
            )

    run_window(ctx.seconds, size["min_cycles"], cycle)
    ctx.named["peak_rss_mb"] = (peak_rss_mb(), "MB")
    ctx.timed_median("setup_s", "s")
    ctx.timed_median("reduce_s", "s")
    ctx.timed_median("dc_solve_ms", "ms", scale=1e3)
    ctx.timed_median("incremental_s", "s")
    ctx.timed_median("dc_err_pct", "%")
    dc_err, limit = ctx.named["dc_err_pct"][0], GATES["pg-reduce"]["dc_err_pct"]
    ledger.check(f"dc_err_pct<={limit:g}", dc_err is not None and dc_err <= limit)
    for name, values in layer_samples.items():
        ctx.layers[name] = median(values)


WORKLOADS = {
    "mesh-er": mesh_er,
    "social-er": social_er,
    "pg-reduce": pg_reduce,
}

# The driver's end-to-end metrics besides setup_s and peak_rss_mb, and the
# named metric each stands for on each workload; the units match.
DRIVER_METRICS = {
    "work_s": {"mesh-er": "edge_er_s", "social-er": "edge_er_s", "pg-reduce": "reduce_s"},
    "answer_ms": {
        "mesh-er": "batch_ms_p50", "social-er": "batch_ms_p50", "pg-reduce": "dc_solve_ms",
    },
    "update_s": {
        "mesh-er": "refresh_s", "social-er": "refresh_s", "pg-reduce": "incremental_s",
    },
}
