"""Table II protocol — PG reduction for transient and DC incremental analysis.

For each case and each effective-resistance backend (accurate / WWW'15 /
Alg. 3), run the full application flow and collect the row the paper
prints: model sizes, reduction time, analysis time, Err (mV) and Rel (%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.incremental import run_incremental_flow
from repro.apps.transient_flow import run_transient_flow
from repro.bench.cases import Table2Case
from repro.bench.reporting import format_table, speedup
from repro.core.engine import EngineConfig
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.powergrid.dc import dc_analysis
from repro.powergrid.transient import transient_analysis
from repro.reduction.pipeline import PGReducer, ReductionConfig
from repro.utils.timing import timed

METHODS = ("exact", "random_projection", "cholinv")
_METHOD_LABEL = {
    "exact": "Acc. Eff. Res.",
    "random_projection": "App. Eff. Res. (WWW15)",
    "cholinv": "App. Eff. Res. (Alg. 3)",
}


@dataclass
class Table2Row:
    """One (case, method) cell of Table II."""

    case: str
    method: str
    original_nodes: int
    original_edges: int
    time_original_analysis: float
    reduced_nodes: int
    reduced_edges: int
    time_reduction: float
    time_reduced_analysis: float
    err_mv: float
    rel_pct: float

    @property
    def total_time(self) -> float:
        """Reduction plus reduced-model analysis."""
        return self.time_reduction + self.time_reduced_analysis


def _method_config(method: str, seed: int) -> ReductionConfig:
    engine = EngineConfig(method=method)
    if method == "random_projection":
        engine = engine.replace(c_jl=25.0)
    return ReductionConfig(engine=engine, seed=seed)


def run_table2_transient(
    case: Table2Case, methods=METHODS, num_steps: "int | None" = None
) -> "list[Table2Row]":
    """Table II upper half for one case (all methods share the original run)."""
    grid = synthetic_ibmpg_like(case.config, seed=case.seed, transient=True)
    ports = grid.port_nodes()
    steps = num_steps if num_steps is not None else case.transient_steps

    with timed() as elapsed:
        original = transient_analysis(
            grid, step=case.transient_step, num_steps=steps, observe=ports
        )
    time_original = elapsed()

    rows = []
    for method in methods:
        outcome = run_transient_flow(
            grid,
            _method_config(method, case.seed),
            step=case.transient_step,
            num_steps=steps,
            original_result=original,
        )
        rows.append(
            Table2Row(
                case=case.name,
                method=method,
                original_nodes=grid.num_nodes,
                original_edges=grid.num_resistors,
                time_original_analysis=time_original,
                reduced_nodes=outcome.reduced.grid.num_nodes,
                reduced_edges=outcome.reduced.grid.num_resistors,
                time_reduction=outcome.time_reduction,
                time_reduced_analysis=outcome.time_transient_reduced,
                err_mv=outcome.err_mv,
                rel_pct=outcome.rel_pct,
            )
        )
    return rows


def run_table2_incremental(case: Table2Case, methods=METHODS) -> "list[Table2Row]":
    """Table II lower half for one case."""
    grid = synthetic_ibmpg_like(case.config, seed=case.seed, transient=False)

    rows = []
    for method in methods:
        config = _method_config(method, case.seed)
        base = PGReducer(grid, config)
        base.reduce()  # the pristine reduction exists before the design edit
        outcome = run_incremental_flow(
            grid, config, seed=case.seed + 1, base_reducer=base
        )
        rows.append(
            Table2Row(
                case=case.name,
                method=method,
                original_nodes=grid.num_nodes,
                original_edges=grid.num_resistors,
                time_original_analysis=outcome.time_original_solve,
                reduced_nodes=outcome.reduced.grid.num_nodes,
                reduced_edges=outcome.reduced.grid.num_resistors,
                time_reduction=outcome.time_incremental_reduction,
                time_reduced_analysis=outcome.time_reduced_solve,
                err_mv=outcome.err_mv,
                rel_pct=outcome.rel_pct,
            )
        )
    return rows


def render_table2(rows: "list[Table2Row]", analysis_label: str) -> str:
    """Render measured Table II rows (one line per case × method)."""
    headers = [
        "case", "method", "|V|", "|E|", f"T{analysis_label}_orig",
        "|V|red", "|E|red", "Tred", f"T{analysis_label}_red",
        "Err(mV)", "Rel(%)", "speedup_vs_exact",
    ]
    exact_tred = {row.case: row.time_reduction for row in rows if row.method == "exact"}
    body = []
    for row in rows:
        body.append([
            row.case,
            _METHOD_LABEL[row.method],
            row.original_nodes,
            row.original_edges,
            row.time_original_analysis,
            row.reduced_nodes,
            row.reduced_edges,
            row.time_reduction,
            row.time_reduced_analysis,
            row.err_mv,
            row.rel_pct,
            speedup(exact_tred.get(row.case, float("nan")), row.time_reduction),
        ])
    return format_table(
        headers, body, title=f"Table II — PG reduction for {analysis_label} analysis"
    )
