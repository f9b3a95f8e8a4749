"""Incremental-analysis application flows.

Two scenarios live here:

* the Table II (lower half) power-grid protocol of Section IV-B — a
  designer fixes IR-drop violations by editing a small region of the grid;
  because Alg. 1 is block-local, only the modified blocks need re-reduction
  (:func:`run_incremental_flow`);
* an online graph-editing flow on top of
  :class:`repro.service.ResistanceService` — edge weights change (or edges
  appear), the service refreshes in place, and the flow reports refresh
  cost and post-refresh accuracy against the exact engine
  (:func:`run_edge_update_flow`); a weight-only edit refactors on the
  served fill-reducing permutation, and the outcome says whether it did.

For the power-grid flow:

* ``Tred``  — time to re-reduce the modified blocks and re-stitch;
* ``Tinc``  — time to DC-solve the reduced model;
* ``Err`` / ``Rel`` — port-voltage error of the reduced solve against a
  direct DC solve of the modified original grid.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.powergrid.dc import dc_analysis, max_voltage_drop
from repro.powergrid.netlist import PowerGrid
from repro.reduction.pipeline import PGReducer, ReducedGrid, ReductionConfig
from repro.utils.rng import ensure_rng
from repro.utils.timing import timed
from repro.utils.validation import require


def perturb_blocks(
    grid: PowerGrid,
    labels: np.ndarray,
    block_ids,
    resistance_span: "tuple[float, float]" = (0.6, 1.6),
    load_span: "tuple[float, float]" = (0.8, 1.25),
    seed=None,
) -> PowerGrid:
    """Return a copy of ``grid`` with the chosen blocks modified.

    Resistors whose *both* endpoints lie in a modified block are scaled by
    a random factor in ``resistance_span``; current loads inside modified
    blocks are scaled by ``load_span``.  Topology (and therefore the
    partition and node roles) is unchanged — exactly the setting in which
    incremental reduction applies.
    """
    rng = ensure_rng(seed)
    modified = copy.deepcopy(grid)
    chosen = set(int(b) for b in block_ids)
    for i, (a, b) in enumerate(zip(modified.res_a, modified.res_b)):
        if int(labels[a]) in chosen and int(labels[b]) in chosen:
            modified.res_ohms[i] *= float(rng.uniform(*resistance_span))
    for source in modified.isources:
        if int(labels[source.node]) in chosen:
            source.dc *= float(rng.uniform(*load_span))
    return modified


@dataclass
class IncrementalOutcome:
    """Everything Table II (lower) reports for one (case, method) cell."""

    reduced: ReducedGrid
    modified_blocks: np.ndarray
    time_incremental_reduction: float
    time_reduced_solve: float
    time_original_solve: float
    err_volts: float
    rel_error: float

    @property
    def err_mv(self) -> float:
        """``Err`` in millivolts."""
        return self.err_volts * 1e3

    @property
    def rel_pct(self) -> float:
        """``Rel`` in percent."""
        return self.rel_error * 1e2

    @property
    def total_time(self) -> float:
        """Incremental reduction + reduced solve."""
        return self.time_incremental_reduction + self.time_reduced_solve


def run_incremental_flow(
    grid: PowerGrid,
    config: "ReductionConfig | None" = None,
    modified_fraction: float = 0.1,
    seed=0,
    base_reducer: "PGReducer | None" = None,
) -> IncrementalOutcome:
    """Run the Table II (lower) protocol for one method.

    Steps: reduce the pristine grid once (warm cache), perturb ~10% of the
    blocks, re-reduce only those, re-stitch, DC-solve the reduced model,
    and compare against a direct DC solve of the modified grid.
    """
    require(0 < modified_fraction <= 1.0, "modified_fraction in (0, 1]")
    rng = ensure_rng(seed)
    if base_reducer is None:
        base_reducer = PGReducer(grid, config or ReductionConfig())
        base_reducer.reduce()  # populate the block cache

    num_blocks = base_reducer.num_blocks
    count = max(1, int(round(modified_fraction * num_blocks)))
    modified_blocks = np.sort(rng.choice(num_blocks, size=count, replace=False))

    modified_grid = perturb_blocks(
        grid, base_reducer.labels, modified_blocks, seed=rng
    )

    with timed() as elapsed:
        incremental = base_reducer.rebuild_for(modified_grid, modified_blocks)
        reduced = incremental.reduce()
    time_red = elapsed()

    with timed() as elapsed:
        reduced_dc = dc_analysis(reduced.grid)
    time_solve = elapsed()

    with timed() as elapsed:
        original_dc = dc_analysis(modified_grid)
    time_original = elapsed()

    ports = modified_grid.port_nodes()
    errors = reduced.port_voltage_errors(
        original_dc.voltages, reduced_dc.voltages, ports
    )
    err = float(errors.mean())
    drop = max_voltage_drop(modified_grid, original_dc.voltages)
    rel = err / drop if drop > 0 else 0.0
    return IncrementalOutcome(
        reduced=reduced,
        modified_blocks=modified_blocks,
        time_incremental_reduction=time_red,
        time_reduced_solve=time_solve,
        time_original_solve=time_original,
        err_volts=err,
        rel_error=rel,
    )


# ----------------------------------------------------------------------
# graph-editing flow on top of ResistanceService
# ----------------------------------------------------------------------
@dataclass
class EdgeUpdateOutcome:
    """What one service refresh after graph edits cost, and how good it is."""

    updated_graph: Graph
    refresh_seconds: float
    queries_after_refresh: int
    max_rel_error: float
    mean_rel_error: float
    invalidated_results: int
    # the refresh refactored on the served fill-reducing permutation
    reused_ordering: bool


def perturb_edge_weights(
    graph: Graph,
    fraction: float = 0.1,
    span: "tuple[float, float]" = (0.5, 2.0),
    seed=None,
) -> Graph:
    """Scale a random ``fraction`` of edge weights by factors in ``span``."""
    require(0 < fraction <= 1.0, "fraction in (0, 1]")
    rng = ensure_rng(seed)
    count = max(1, int(round(fraction * graph.num_edges)))
    chosen = rng.choice(graph.num_edges, size=count, replace=False)
    weights = graph.weights.copy()
    weights[chosen] *= rng.uniform(*span, size=count)
    return graph.with_weights(weights)


def run_edge_update_flow(
    service,
    updated_graph: "Graph | None" = None,
    modified_fraction: float = 0.1,
    num_check_pairs: int = 64,
    seed=0,
) -> EdgeUpdateOutcome:
    """Edit the served graph, refresh the service, and audit the answers.

    Steps: perturb ~``modified_fraction`` of the edge weights (or take the
    caller's ``updated_graph``), call
    :meth:`~repro.service.ResistanceService.refresh_after_edge_update`,
    re-query a random pair sample, and compare against the exact engine on
    the updated graph.
    """
    from repro.core.engine import EngineConfig, build_engine

    rng = ensure_rng(seed)
    if updated_graph is None:
        updated_graph = perturb_edge_weights(
            service.graph, fraction=modified_fraction, seed=rng
        )
    refresh = service.refresh_after_edge_update(updated_graph)

    n = updated_graph.num_nodes
    pairs = np.column_stack([
        rng.integers(0, n, size=num_check_pairs),
        rng.integers(0, n, size=num_check_pairs),
    ])
    served = service.query_pairs(pairs)
    exact = build_engine(updated_graph, EngineConfig(method="exact"))
    truth = exact.query_pairs(pairs)
    finite = np.isfinite(truth) & (truth > 0)
    rel = np.abs(served[finite] - truth[finite]) / truth[finite]
    same = ~finite
    consistent = np.array_equal(np.isfinite(served[same]), np.isfinite(truth[same]))
    require(consistent, "service and exact engine disagree on connectivity")
    return EdgeUpdateOutcome(
        updated_graph=updated_graph,
        refresh_seconds=refresh.rebuild_seconds,
        queries_after_refresh=int(pairs.shape[0]),
        max_rel_error=float(rel.max()) if rel.size else 0.0,
        mean_rel_error=float(rel.mean()) if rel.size else 0.0,
        invalidated_results=refresh.invalidated_results,
        reused_ordering=refresh.reused_ordering,
    )
