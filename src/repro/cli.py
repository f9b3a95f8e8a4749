"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``er``          effective resistances of a graph (file or generator);
                ``--method`` accepts any registered engine,
                ``--max-shard-nodes N`` builds one sub-engine per
                connected component and splits any component above N
                nodes into vertex-separator regions, and
                ``--save-engine``/``--load-engine`` persist/warm-start
                built Alg. 3 engines
``service``     serve batched/centrality queries via ResistanceService
                (same engine/persistence options as ``er``);
                ``--workers`` fans sharded sub-batches out over threads,
                ``--batch-window`` micro-batches repeated requests through
                AsyncResistanceService, ``--mmap`` maps a loaded engine
``dc``          DC operating point of a SPICE power grid
``transient``   Backward-Euler transient analysis of a SPICE power grid
``reduce``      Alg. 1 power-grid reduction (SPICE in → SPICE out)
``table1``      run one Table I benchmark case
``fig1``        reproduce the Fig. 1 waveform experiment
``lint``        run the repro.analysis invariant checker (lock discipline,
                registry purity, config-persistence drift, determinism,
                boundary validation, mutable defaults)

The CLI wraps the same public API the examples use; it exists so the
reproduction can be driven from shell scripts without writing Python.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _load_graph(args):
    """Build the graph from --edgelist/--mtx/--generator options."""
    from repro.graphs.generators import barabasi_albert_graph, fe_mesh_2d, grid_2d
    from repro.graphs.io import read_edgelist, read_matrix_market

    if args.edgelist:
        return read_edgelist(args.edgelist)
    if args.mtx:
        return read_matrix_market(args.mtx)
    kind, _, spec = (args.generator or "grid2d:40x40").partition(":")
    if kind == "grid2d":
        rows, _, cols = spec.partition("x")
        return grid_2d(int(rows or 40), int(cols or 40), jitter=0.3, seed=args.seed)
    if kind == "mesh2d":
        rows, _, cols = spec.partition("x")
        return fe_mesh_2d(int(rows or 40), int(cols or 40), seed=args.seed)
    if kind == "ba":
        return barabasi_albert_graph(int(spec or 5000), 3, seed=args.seed)
    raise SystemExit(f"unknown generator {args.generator!r}")


def _engine_config(args):
    """Fold the shared engine options into one EngineConfig; a value the
    config rejects is a usage error."""
    from repro.core.engine import EngineConfig

    try:
        return EngineConfig(
            method=args.method, epsilon=args.epsilon, drop_tol=args.drop_tol,
            ordering=args.ordering, mode=args.mode, seed=args.seed,
            build_workers=args.build_workers,
            max_shard_nodes=args.max_shard_nodes,
            num_landmarks=args.num_landmarks,
            landmark_strategy=args.landmark_strategy,
        )
    except ValueError as exc:
        args.parser.error(str(exc))


def _enable_tiers(args, service, profile=None, sidecar=None):
    """Install the landmark SLA tier; a service it cannot route (a sharded
    one) or a loaded ``sidecar`` profile that does not calibrate it is a
    usage error."""
    try:
        return service.enable_tiers(tiers=("landmark",), profile=profile)
    except ValueError as exc:
        prefix = "" if sidecar is None else f"calibration sidecar {sidecar}: "
        args.parser.error(f"{prefix}{exc}")


def _sla_requested(args) -> bool:
    return args.rel_tol is not None or args.latency_budget is not None


def _reject_sharded_sla(args) -> None:
    """SLA flags on a sharded engine are a usage error, reported before
    the (possibly long) engine build rather than after it."""
    if not _sla_requested(args):
        return
    from repro.service.resistance_service import require_unsharded_tiers

    try:
        require_unsharded_tiers(args.max_shard_nodes)
    except ValueError as exc:
        args.parser.error(str(exc))


def _print_tier_summary(report) -> None:
    if report is None or not report.tier_rows:
        return
    split = ", ".join(
        f"{tier}={rows}" for tier, rows in report.tier_rows.items()
    )
    print(f"tier split (distinct pairs): {split}", file=sys.stderr)


def _parse_pairs(args, num_nodes: int) -> np.ndarray:
    """``--pairs`` items (``"P,Q"``) as an ``(m, 2)`` id array.

    A malformed item or an id outside the graph is a usage error, reported
    through the subcommand's ``parser.error`` instead of a traceback.
    """
    from repro.core.engine import validate_node_ids

    pairs = []
    for item in args.pairs:
        p, _, q = item.partition(",")
        try:
            pairs.append((int(p), int(q)))
        except ValueError:
            args.parser.error(
                f"--pairs item {item!r} is not a pair of integer node ids "
                f"like 12,97"
            )
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    try:
        validate_node_ids(arr, num_nodes)
    except ValueError as exc:
        args.parser.error(f"--pairs: {exc}")
    return arr


def _reject_graph_source_with_load(args) -> None:
    """A loaded engine brings its own graph and configuration."""
    if args.edgelist or args.mtx or args.generator:
        raise SystemExit(
            "--load-engine restores the saved graph and engine settings; "
            "remove --edgelist/--mtx/--generator (engine options are "
            "taken from the saved file too)"
        )


def _save_engine(engine, path) -> None:
    try:
        saved = engine.save(path)
    except NotImplementedError as exc:
        raise SystemExit(str(exc))
    print(f"engine saved to {saved}", file=sys.stderr)


def _print_partition_report(engine) -> None:
    """Pretty-print PartitionedEngine.partition_report() (er --partition-report)."""
    from repro.core.partitioned import PartitionedEngine

    if not isinstance(engine, PartitionedEngine):
        raise SystemExit(
            "--partition-report needs a sharded engine; add "
            "--max-shard-nodes N"
        )
    report = engine.partition_report()
    out = sys.stderr
    print(
        f"partition: max_shard_nodes={report['max_shard_nodes']} "
        f"shards={report['num_shards']} "
        f"components={report['num_components']} "
        f"split_components={report['split_components']} "
        f"separator_size={report['separator_size']}",
        file=out,
    )
    part = report["partition"]
    print(
        f"  blocks: sizes={report['shard_sizes']} "
        f"imbalance={part.imbalance:.3f} cut_weight={part.cut_weight:.4g}",
        file=out,
    )
    for sq in report["separators"]:
        print(
            f"  component {sq.component}: regions={sq.num_regions} "
            f"sizes={sq.region_sizes.tolist()} "
            f"separator={sq.separator_size} "
            f"({100.0 * sq.separator_fraction:.1f}% of component) "
            f"imbalance={sq.imbalance:.3f} "
            f"coupling_weight={sq.coupling_weight:.4g}",
            file=out,
        )


def cmd_er(args) -> int:
    """Compute effective resistances and print/save them."""
    from repro.core.engine import build_engine

    if args.load_engine:
        from repro.core.persistence import load_engine

        _reject_graph_source_with_load(args)
        engine = load_engine(args.load_engine)
        graph = engine.graph
        print(f"engine loaded from {args.load_engine}", file=sys.stderr)
    else:
        config = _engine_config(args)
        _reject_sharded_sla(args)
        graph = _load_graph(args)
        engine = build_engine(graph, config)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges", file=sys.stderr)
    if args.partition_report:
        _print_partition_report(engine)
    if args.save_engine:
        _save_engine(engine, args.save_engine)
    if args.pairs:
        pairs = _parse_pairs(args, graph.num_nodes)
    else:
        pairs = graph.edge_array()
    if _sla_requested(args):
        from repro.service import ResistanceService

        service = ResistanceService.from_engine(engine)
        _enable_tiers(args, service)
        values, report = service.query_pairs_with_report(
            pairs, rel_tol=args.rel_tol, latency_budget=args.latency_budget
        )
        _print_tier_summary(report)
    else:
        values = engine.query_pairs(pairs)
    out = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        out.write("p,q,r_eff\n")
        for (p, q), r in zip(pairs, values):
            out.write(f"{int(p)},{int(q)},{r:.10g}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_service(args) -> int:
    """Serve pair queries / edge-centrality rankings from a ResistanceService."""
    import time

    from repro.service import AsyncResistanceService, ResistanceService, make_executor

    if not args.pairs and not args.top_k:
        print("nothing to do: pass --pairs and/or --top-k", file=sys.stderr)
        return 1
    with make_executor(args.workers) as executor:  # shut the pool down on exit
        t0 = time.perf_counter()
        if args.load_engine:
            _reject_graph_source_with_load(args)
            service = ResistanceService.from_saved(
                args.load_engine, mmap=args.mmap, executor=executor
            )
            graph = service.graph
            print(f"engine loaded from {args.load_engine}", file=sys.stderr)
        else:
            config = _engine_config(args)
            _reject_sharded_sla(args)
            graph = _load_graph(args)
            service = ResistanceService(graph, config=config, executor=executor)
        print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges",
              file=sys.stderr)
        print(f"service ready in {time.perf_counter() - t0:.2f}s "
              f"({executor.workers} worker(s))", file=sys.stderr)
        if args.save_engine:
            _save_engine(service.engine, args.save_engine)

        if _sla_requested(args):
            from repro.service import CalibrationProfile

            # reuse a calibration sidecar saved next to a loaded engine;
            # otherwise calibrate now (and persist next to --save-engine)
            profile = sidecar = None
            if args.load_engine:
                path = CalibrationProfile.default_path(args.load_engine)
                if path.exists():
                    sidecar = path
                    try:
                        profile = CalibrationProfile.load(sidecar)
                    except ValueError as exc:
                        args.parser.error(str(exc))
                    print(f"calibration loaded from {sidecar}", file=sys.stderr)
            profile = _enable_tiers(args, service, profile, sidecar)
            if args.save_engine:
                saved = profile.save(
                    CalibrationProfile.default_path(args.save_engine)
                )
                print(f"calibration saved to {saved}", file=sys.stderr)

        if args.pairs:
            pairs = _parse_pairs(args, graph.num_nodes)
            repeat = max(args.repeat, 1)
            t0 = time.perf_counter()
            if args.batch_window > 0.0:
                # each repeat is one concurrent request; the micro-batching
                # loop coalesces them into few planned engine batches
                with AsyncResistanceService(
                    service, batch_window=args.batch_window
                ) as front:
                    futures = [
                        front.submit(
                            pairs, rel_tol=args.rel_tol,
                            latency_budget=args.latency_budget,
                        )
                        for _ in range(repeat)
                    ]
                    values = futures[-1].result()
                    for future in futures:
                        future.result()
                    coalesced = front.stats.batches
            else:
                for _ in range(repeat):
                    values = service.query_pairs(
                        pairs, rel_tol=args.rel_tol,
                        latency_budget=args.latency_budget,
                    )
                coalesced = None
            elapsed = time.perf_counter() - t0
            _print_tier_summary(service.last_report)
            print("p,q,r_eff")
            for (p, q), r in zip(pairs, values):
                print(f"{int(p)},{int(q)},{r:.10g}")
            total = pairs.shape[0] * repeat
            print(
                f"{total} queries in {elapsed:.3f}s "
                f"({total / max(elapsed, 1e-12):.0f} q/s, "
                f"hit rate {service.stats.hit_rate:.1%})",
                file=sys.stderr,
            )
            if coalesced is not None:
                print(
                    f"micro-batching: {repeat} requests coalesced into "
                    f"{coalesced} engine batch(es) "
                    f"(window {args.batch_window:g}s)",
                    file=sys.stderr,
                )
        if args.top_k:
            edges, centrality = service.top_k_central_edges(args.top_k)
            print(f"top {len(edges)} central edges (w(e)·R(e)):")
            for e, c in zip(edges, centrality):
                u, v = int(graph.heads[e]), int(graph.tails[e])
                print(f"  ({u}, {v})  centrality={c:.6g}")
    return 0


def cmd_dc(args) -> int:
    """DC-solve a SPICE power grid and report IR-drop statistics."""
    from repro.powergrid.dc import dc_analysis
    from repro.powergrid.spice import read_spice

    grid = read_spice(args.netlist)
    result = dc_analysis(grid)
    print(f"grid: {grid}")
    print(f"max IR drop / bounce: {result.max_drop() * 1e3:.4f} mV")
    drops = result.drops()
    worst = np.argsort(drops)[-args.top:][::-1]
    print(f"worst {args.top} nodes:")
    for node in worst:
        print(f"  {grid.name_of(int(node))}: {drops[node] * 1e3:.4f} mV")
    return 0


def cmd_transient(args) -> int:
    """Transient-simulate a SPICE power grid; report worst excursions."""
    from repro.powergrid.spice import read_spice
    from repro.powergrid.transient import transient_analysis

    grid = read_spice(args.netlist)
    ports = grid.port_nodes()
    result = transient_analysis(
        grid, step=args.step, num_steps=args.steps, observe=ports
    )
    swing = result.voltages.max(axis=1) - result.voltages.min(axis=1)
    worst = np.argsort(swing)[-args.top:][::-1]
    print(f"grid: {grid}  ({args.steps} steps of {args.step:g}s)")
    print(f"worst {args.top} port swings:")
    for row in worst:
        node = int(result.observed[row])
        print(f"  {grid.name_of(node)}: {swing[row] * 1e3:.4f} mV")
    return 0


def cmd_reduce(args) -> int:
    """Reduce a SPICE power grid with Alg. 1 and write the reduced netlist."""
    from repro.core.engine import EngineConfig
    from repro.powergrid.spice import read_spice, write_spice
    from repro.reduction.pipeline import PGReducer, ReductionConfig

    grid = read_spice(args.netlist)
    config = ReductionConfig(
        engine=EngineConfig(method=args.er_method),
        merge_resistance_fraction=args.merge_fraction,
        protect_all_ports=not args.merge_ports,
        seed=args.seed,
    )
    reducer = PGReducer(grid, config)
    reduced = reducer.reduce()
    print(f"original: {grid}")
    print(f"reduced:  {reduced.grid}")
    stages = ", ".join(
        f"{name} {reducer.timer[name]:.2f}s" for name in ("partition", "blocks", "stitch")
    )
    print(f"Tred: {reducer.timer.total:.2f}s ({reducer.num_blocks} blocks; {stages})")
    write_spice(reduced.grid, args.output, title=f"reduced from {args.netlist}")
    print(f"wrote {args.output}")
    return 0


def cmd_table1(args) -> int:
    """Run one Table I case and print the measured vs paper row."""
    from repro.bench.cases import TABLE1_CASES
    from repro.bench.table1 import render_table1, run_table1_case

    if args.case not in TABLE1_CASES:
        raise SystemExit(f"unknown case; choose from {', '.join(TABLE1_CASES)}")
    case = TABLE1_CASES[args.case]
    row = run_table1_case(
        case, seed=args.seed, run_baseline=not args.skip_baseline,
        build_workers=args.build_workers,
    )
    print(render_table1([row], TABLE1_CASES))
    return 0


def cmd_fig1(args) -> int:
    """Reproduce the Fig. 1 waveform experiment."""
    from repro.bench.cases import TABLE2_CASES
    from repro.bench.fig1 import ascii_plot, run_fig1

    case = TABLE2_CASES[args.case]
    result = run_fig1(case, num_steps=args.steps, output_csv=args.output)
    print(
        ascii_plot(
            result.times,
            {"original": result.vdd_original, "reduced": result.vdd_reduced},
            title=f"VDD node {result.vdd_node_name}",
        )
    )
    print()
    print(
        ascii_plot(
            result.times,
            {"original": result.gnd_original, "reduced": result.gnd_reduced},
            title=f"GND node {result.gnd_node_name}",
        )
    )
    if args.output:
        print(f"\nwaveforms written to {args.output}")
    return 0


def cmd_lint(args) -> int:
    """Run the static invariant checker (alias of ``python -m repro.analysis``)."""
    from repro.analysis.app import main as analysis_main

    argv = list(args.paths)
    argv += ["--format", args.format]
    for extra in args.extra_paths or ():
        argv += ["--paths", extra]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.write_baseline:
        argv += ["--write-baseline"]
    if args.select:
        argv += ["--select", args.select]
    if args.list_rules:
        argv += ["--list-rules"]
    if args.lock_graph_dot:
        argv += ["--lock-graph-dot", args.lock_graph_dot]
    if args.lock_graph_json:
        argv += ["--lock-graph-json", args.lock_graph_json]
    return analysis_main(argv)


def _add_graph_engine_arguments(parser) -> None:
    """Graph-source and engine options shared by ``er`` and ``service``."""
    from repro.core.engine import registered_engines

    methods = list(registered_engines())
    parser.add_argument("--edgelist", help="edge-list file (u v [w] per line)")
    parser.add_argument("--mtx", help="MatrixMarket adjacency/Laplacian file")
    parser.add_argument("--generator", help="grid2d:RxC | mesh2d:RxC | ba:N")
    parser.add_argument("--method", default="cholinv", choices=methods)
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--drop-tol", dest="drop_tol", type=float, default=1e-3)
    parser.add_argument("--ordering", default="amd",
                        choices=["amd", "rcm", "natural", "nested_dissection"])
    parser.add_argument("--mode", default="blocked", choices=["blocked", "reference"],
                        help="Alg. 2 kernel (cholinv only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-shard-nodes", dest="max_shard_nodes",
                        type=int, default=None, metavar="N",
                        help="shard the engine: one sub-engine per connected "
                             "component, and any component above N nodes "
                             "split into vertex-separator regions of at most "
                             "N nodes with Schur-complement cross-region "
                             "queries (default: one engine for the whole "
                             "graph)")
    parser.add_argument("--build-workers", dest="build_workers", type=int,
                        default=1, metavar="N",
                        help="threads used to build the engine: large Alg. 2 "
                             "levels split into parallel column chunks, and "
                             "with --max-shard-nodes the per-shard builds fan "
                             "out; results are bit-identical for any N")
    parser.add_argument("--save-engine", dest="save_engine", metavar="PATH",
                        help="persist the built engine to PATH (.npz)")
    parser.add_argument("--load-engine", dest="load_engine", metavar="PATH",
                        help="warm-start from a saved engine instead of building "
                             "(graph and engine options come from the file)")
    parser.add_argument("--num-landmarks", dest="num_landmarks", type=int,
                        default=32, metavar="K",
                        help="landmark count for the landmark estimator tier")
    parser.add_argument("--landmark-strategy", dest="landmark_strategy",
                        default="degree", choices=["degree", "random", "spread"],
                        help="how the landmark tier picks its landmarks")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, default=None,
                        metavar="TOL",
                        help="serve with an SLA: accept answers from the "
                             "calibrated landmark tier while the relative "
                             "error stays within TOL (pairs it cannot "
                             "certify escalate to the exact engine)")
    parser.add_argument("--latency-budget", dest="latency_budget", type=float,
                        default=None, metavar="SECONDS",
                        help="SLA latency target for the whole batch; the "
                             "landmark tier is skipped when too slow to fit, "
                             "and an exact request that cannot fit "
                             "downgrades to it")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Effective resistances via approximate inverse of Cholesky factor"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    er = sub.add_parser("er", help="compute effective resistances")
    _add_graph_engine_arguments(er)
    er.add_argument("--pairs", nargs="*", help='queries like "12,97" (default: all edges)')
    er.add_argument("--partition-report", dest="partition_report",
                    action="store_true",
                    help="print shard/separator quality diagnostics "
                         "(needs --max-shard-nodes)")
    er.add_argument("--output", default="-", help="CSV path or - for stdout")
    er.set_defaults(func=cmd_er, parser=er)

    sv = sub.add_parser("service", help="serve cached pair/centrality queries")
    _add_graph_engine_arguments(sv)
    sv.add_argument("--pairs", nargs="*", help='queries like "12,97"')
    sv.add_argument("--repeat", type=int, default=1,
                    help="repeat the pair batch (exercises the result cache)")
    sv.add_argument("--top-k", dest="top_k", type=int, default=0,
                    help="print the k most central edges (w(e)·R(e))")
    sv.add_argument("--workers", type=int, default=1,
                    help="executor threads fanning per-shard sub-batches "
                         "out in parallel (pairs well with --max-shard-nodes)")
    sv.add_argument("--batch-window", dest="batch_window", type=float,
                    default=0.0, metavar="SECONDS",
                    help="micro-batching window; > 0 serves the repeated "
                         "pair batches through AsyncResistanceService, "
                         "coalescing concurrent requests")
    sv.add_argument("--mmap", action="store_true",
                    help="with --load-engine, memory-map the saved arrays "
                         "so co-located workers share pages")
    sv.set_defaults(func=cmd_service, parser=sv)

    dc = sub.add_parser("dc", help="DC analysis of a SPICE power grid")
    dc.add_argument("netlist")
    dc.add_argument("--top", type=int, default=5)
    dc.set_defaults(func=cmd_dc)

    tr = sub.add_parser("transient", help="transient analysis of a SPICE power grid")
    tr.add_argument("netlist")
    tr.add_argument("--step", type=float, default=1e-11)
    tr.add_argument("--steps", type=int, default=1000)
    tr.add_argument("--top", type=int, default=5)
    tr.set_defaults(func=cmd_transient)

    red = sub.add_parser("reduce", help="Alg. 1 power-grid reduction")
    red.add_argument("netlist")
    red.add_argument("--output", default="reduced.sp")
    from repro.core.engine import registered_engines

    red.add_argument("--er-method", dest="er_method", default="cholinv",
                     choices=list(registered_engines()))
    red.add_argument("--merge-fraction", dest="merge_fraction", type=float, default=0.05)
    red.add_argument("--merge-ports", dest="merge_ports", action="store_true",
                     help="allow merging current-source ports (original [8] behaviour)")
    red.add_argument("--seed", type=int, default=0)
    red.set_defaults(func=cmd_reduce)

    t1 = sub.add_parser("table1", help="run one Table I benchmark case")
    t1.add_argument("--case", default="fe-mesh-2d")
    t1.add_argument("--seed", type=int, default=0)
    t1.add_argument("--skip-baseline", action="store_true")
    t1.add_argument("--build-workers", dest="build_workers", type=int,
                    default=1, metavar="N",
                    help="threads for the Alg. 3 engine build (bit-identical "
                         "results for any N; T shrinks, errors do not move)")
    t1.set_defaults(func=cmd_table1)

    f1 = sub.add_parser("fig1", help="reproduce the Fig. 1 waveforms")
    f1.add_argument("--case", default="pg3-like")
    f1.add_argument("--steps", type=int, default=300)
    f1.add_argument("--output", help="CSV output path")
    f1.set_defaults(func=cmd_fig1)

    lint = sub.add_parser(
        "lint", help="run the repro.analysis structural invariant checker"
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to analyse (default: src/repro)")
    lint.add_argument("--paths", action="append", dest="extra_paths",
                      metavar="PATH",
                      help="additional file/directory to analyse (repeatable)")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--baseline", metavar="PATH",
                      help="baseline file of accepted findings "
                           "(default: analysis-baseline.json when present)")
    lint.add_argument("--write-baseline", dest="write_baseline",
                      action="store_true",
                      help="accept every current finding into the baseline")
    lint.add_argument("--select", metavar="RULE[,RULE...]",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--list-rules", dest="list_rules", action="store_true",
                      help="list registered rules and exit")
    lint.add_argument("--lock-graph-dot", metavar="PATH",
                      help="export the lock acquisition graph as DOT")
    lint.add_argument("--lock-graph-json", metavar="PATH",
                      help="export the lock acquisition graph as JSON")
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
