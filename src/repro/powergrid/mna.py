"""Nodal-analysis matrix assembly for power grids.

We use straight nodal analysis with *known-voltage elimination* — the form
every power-grid simulator (including the paper's CHOLMOD-based flow) uses:

* ``G`` is the conductance Laplacian of the resistor network plus ground
  shunts (an SDD M-matrix);
* voltage-source (pad) nodes have known voltages, so the solve restricts to
  the unknown nodes ``U``::

      G_UU · v_U = i_U − G_UK · v_K

* ``C`` is the capacitance matrix (diagonal for ground caps, Laplacian
  stamps for coupling caps), used by Backward-Euler transient analysis.

``G_UU`` is symmetric positive definite exactly when every node has a
resistive path to a pad or to a ground shunt.  :func:`build_mna` checks
that with one connected-components pass over ``G`` and rejects a grid
with a floating node, naming it: the DC and transient solvers factor
``G_UU`` as SPD (:func:`repro.linalg.spd.spd_factor`, symmetric-mode
SuperLU on a minimum-degree ordering), and that factorisation answers a
singular system silently instead of failing.

The :class:`MNASystem` captures the partitioned system once — including
the ``G_UU`` and ``G_UK`` blocks — so DC and transient solvers share the
assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.powergrid.netlist import GROUND, PowerGrid
from repro.powergrid.validation import floating_nodes
from repro.utils.validation import require


@dataclass
class MNASystem:
    """Partitioned nodal system of a power grid.

    Attributes
    ----------
    conductance:
        Full ``n×n`` conductance matrix ``G`` (resistors + shunts).
    capacitance:
        Full ``n×n`` capacitance matrix ``C``.
    unknown:
        Indices of nodes with unknown voltage.
    pads:
        Indices of voltage-source nodes (known voltage).
    pad_voltages:
        Voltages of ``pads`` in the same order.
    grid:
        The originating :class:`PowerGrid` (for source evaluation).
    """

    conductance: sp.csc_matrix
    capacitance: sp.csc_matrix
    unknown: np.ndarray
    pads: np.ndarray
    pad_voltages: np.ndarray
    grid: PowerGrid
    _g_uu: sp.csc_matrix = field(init=False, repr=False)
    _g_uk: sp.csc_matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = self.conductance[self.unknown, :]
        self._g_uu = rows[:, self.unknown].tocsc()
        self._g_uk = rows[:, self.pads].tocsc()

    @property
    def num_nodes(self) -> int:
        """Total grid nodes (known + unknown)."""
        return self.conductance.shape[0]

    def g_uu(self) -> sp.csc_matrix:
        """Conductance block over unknown nodes (the SPD solve matrix)."""
        return self._g_uu

    def g_uk_vk(self) -> np.ndarray:
        """Constant pad coupling term ``G_UK · v_K`` of the solve RHS."""
        if self.pads.size == 0:
            return np.zeros(self.unknown.shape[0])
        return np.asarray(self._g_uk @ self.pad_voltages).ravel()

    def c_uu(self) -> sp.csc_matrix:
        """Capacitance block over unknown nodes."""
        return self.capacitance[self.unknown, :][:, self.unknown].tocsc()

    def injected_currents(self, t=None) -> np.ndarray:
        """Per-node injected current vector (loads enter negatively).

        ``t=None`` uses the DC values; otherwise each source's waveform is
        evaluated at scalar time ``t``.
        """
        sources = self.grid.isources
        nodes = np.fromiter((s.node for s in sources), np.int64, len(sources))
        values = (s.dc if t is None else float(s.current_at(t)) for s in sources)
        drawn = np.fromiter(values, np.float64, len(sources))
        rhs = np.zeros(self.num_nodes)
        np.subtract.at(rhs, nodes, drawn)  # in source order, as one loop would
        return rhs

    def assemble_full_voltages(self, v_unknown: np.ndarray) -> np.ndarray:
        """Combine the unknown-node solution with pad voltages."""
        full = np.empty(self.num_nodes)
        full[self.unknown] = v_unknown
        full[self.pads] = self.pad_voltages
        return full


def _laplacian_stamps(n, a, b, values) -> sp.csc_matrix:
    """Assemble Laplacian stamps for two-terminal elements.

    Ground-referenced elements (endpoint ``GROUND``) stamp only the
    diagonal of the internal endpoint.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    internal = (a != GROUND) & (b != GROUND)
    grounded_mask = ~internal
    rows, cols, data = [], [], []
    if internal.any():
        ai, bi, vi = a[internal], b[internal], values[internal]
        rows.extend([ai, bi, ai, bi])
        cols.extend([bi, ai, ai, bi])
        data.extend([-vi, -vi, vi, vi])
    if grounded_mask.any():
        node = np.where(a[grounded_mask] == GROUND, b[grounded_mask], a[grounded_mask])
        rows.append(node)
        cols.append(node)
        data.append(values[grounded_mask])
    if not rows:
        return sp.csc_matrix((n, n))
    matrix = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()
    matrix.sum_duplicates()
    return matrix


def _reject_floating_nodes(grid: PowerGrid, conductance: sp.csc_matrix) -> None:
    """Raise naming the first node with no resistive path to a pad or shunt.

    Such a node's voltage is undefined (``G_UU`` is singular), whatever
    loads or capacitors it carries.
    """
    # G is symmetric, so its weak components are its components, found
    # without the undirected mode's G + Gᵀ
    count, labels = connected_components(conductance, connection="weak")
    floating = floating_nodes(grid, labels, count)
    if floating.size:
        raise ValueError(
            f"node {grid.name_of(int(floating[0]))!r} has no resistive path to "
            f"a voltage source or a ground shunt, so its voltage is undefined "
            f"({floating.size} floating node(s))"
        )


def build_mna(grid: PowerGrid) -> MNASystem:
    """Assemble the partitioned nodal system for ``grid``."""
    n = grid.num_nodes
    require(n > 0, "grid has no nodes")

    conductance = _laplacian_stamps(
        n, grid.res_a, grid.res_b, 1.0 / np.asarray(grid.res_ohms, dtype=np.float64)
        if grid.res_ohms
        else np.empty(0),
    )
    if grid.shunt_node:
        shunts = sp.coo_matrix(
            (
                np.asarray(grid.shunt_siemens, dtype=np.float64),
                (
                    np.asarray(grid.shunt_node, dtype=np.int64),
                    np.asarray(grid.shunt_node, dtype=np.int64),
                ),
            ),
            shape=(n, n),
        ).tocsc()
        conductance = (conductance + shunts).tocsc()

    capacitance = _laplacian_stamps(n, grid.cap_a, grid.cap_b, grid.cap_farads)

    pads = grid.pad_nodes()
    _reject_floating_nodes(grid, conductance)
    pinned = grid.pad_voltage_vector()
    pad_voltages = pinned[pads] if pads.size else np.empty(0)
    mask = np.ones(n, dtype=bool)
    mask[pads] = False
    unknown = np.flatnonzero(mask)
    return MNASystem(
        conductance=conductance,
        capacitance=capacitance,
        unknown=unknown,
        pads=pads,
        pad_voltages=pad_voltages,
        grid=grid,
    )
