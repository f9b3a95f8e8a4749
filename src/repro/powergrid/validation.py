"""Netlist sanity checking — a production power-grid flow's first step.

Real benchmark files (and generated grids) can contain defects that make
analysis results silently wrong: nodes with no DC path to any pad, loads
on floating islands, pads shorted to each other with conflicting voltages.
:func:`validate_power_grid` finds them all and returns a structured report
the CLI and the reduction pipeline can surface before solving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.components import connected_components
from repro.powergrid.netlist import PowerGrid


@dataclass
class ValidationReport:
    """Findings of a netlist check (all lists hold node indices)."""

    num_nodes: int
    num_components: int
    floating_nodes: list = field(default_factory=list)
    floating_loads: list = field(default_factory=list)
    conflicting_pads: list = field(default_factory=list)
    isolated_nodes: list = field(default_factory=list)
    extreme_resistance_ratio: float = 1.0

    @property
    def ok(self) -> bool:
        """True when nothing blocking analysis was found."""
        return not (self.floating_nodes or self.floating_loads or self.conflicting_pads)

    def summary(self) -> str:
        """One-paragraph human-readable verdict."""
        if self.ok:
            return (
                f"OK: {self.num_nodes} nodes in {self.num_components} net(s); "
                f"resistance spread {self.extreme_resistance_ratio:.1e}"
            )
        problems = []
        if self.floating_nodes:
            problems.append(f"{len(self.floating_nodes)} node(s) without a DC path to any pad")
        if self.floating_loads:
            problems.append(f"{len(self.floating_loads)} current source(s) on floating nodes")
        if self.conflicting_pads:
            problems.append(
                f"{len(self.conflicting_pads)} node(s) pinned to conflicting voltages"
            )
        return "PROBLEMS: " + "; ".join(problems)


def floating_nodes(grid: PowerGrid, labels: np.ndarray, count: int) -> np.ndarray:
    """Sorted nodes with no resistive path to a pad or a ground shunt.

    ``labels`` gives each node's component (``count`` of them) in the
    resistor network.  A component is anchored when it holds a pad or a
    shunt — a shunt provides a DC path to ground, which is a valid return.
    """
    anchored = np.zeros(count, dtype=bool)
    anchored[labels[grid.pad_nodes()]] = True
    anchored[labels[np.asarray(grid.shunt_node, dtype=np.int64)]] = True
    return np.flatnonzero(~anchored[labels])


def validate_power_grid(grid: PowerGrid) -> ValidationReport:
    """Check a power grid for the defects described in the module docstring."""
    graph = grid.to_graph()
    labels, count = connected_components(graph)

    floating = floating_nodes(grid, labels, count).tolist()
    floating_set = set(floating)
    floating_loads = [cs.node for cs in grid.isources if cs.node in floating_set]

    # conflicting pads: one node pinned to two different voltages
    pinned: dict[int, float] = {}
    conflicting = []
    for vs in grid.vsources:
        existing = pinned.get(vs.node)
        if existing is not None and not np.isclose(existing, vs.voltage):
            conflicting.append(vs.node)
        pinned[vs.node] = vs.voltage

    degrees = np.zeros(grid.num_nodes)
    if graph.num_edges:
        np.add.at(degrees, graph.heads, 1.0)
        np.add.at(degrees, graph.tails, 1.0)
    for node in grid.shunt_node:
        degrees[node] += 1.0
    isolated = [int(v) for v in np.flatnonzero(degrees == 0)]

    ohms = np.asarray(grid.res_ohms, dtype=np.float64)
    ratio = float(ohms.max() / ohms.min()) if ohms.size else 1.0

    return ValidationReport(
        num_nodes=grid.num_nodes,
        num_components=count,
        floating_nodes=floating,
        floating_loads=floating_loads,
        conflicting_pads=sorted(set(conflicting)),
        isolated_nodes=isolated,
        extreme_resistance_ratio=ratio,
    )
