"""Power-grid netlist data model.

A :class:`PowerGrid` is an RC network in the style of the IBM power-grid
benchmarks:

* **resistors** between grid nodes (metal wires and vias) or from a node to
  ground (shunts);
* **capacitors** from nodes to ground (decap / parasitic; node-to-node
  coupling caps are supported by the MNA assembly as well);
* **voltage sources** that pin pad nodes to the supply (VDD pads) or to 0 V
  (GND-net pads);
* **current sources** that model switching-logic load (DC value plus an
  optional transient waveform).

Nodes are referenced by integer index internally; string names (e.g.
``n1_20706300_8937900``) are kept in a bidirectional mapping so SPICE files
round-trip and the Fig. 1 reproduction can address named nodes.

*Port nodes* — the nodes attached to a voltage or current source — are the
nodes the reduction of Alg. 1 must preserve exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph
from repro.powergrid.waveforms import Waveform
from repro.utils.validation import require

GROUND = -1
"""Sentinel node index for the external ground/reference node."""


@dataclass
class VoltageSource:
    """Ideal voltage source pinning ``node`` to ``voltage`` volts vs ground."""

    node: int
    voltage: float
    name: str = ""


@dataclass
class CurrentSource:
    """Current load at ``node``: ``dc`` amperes drawn from the node to ground.

    During transient analysis ``waveform`` (if given) supersedes ``dc``.
    Negative values *inject* current — used for GND-net return currents.
    """

    node: int
    dc: float
    waveform: "Waveform | None" = None
    name: str = ""

    def current_at(self, t) -> np.ndarray:
        """Drawn current at time(s) ``t``."""
        if self.waveform is None:
            return np.full_like(np.asarray(t, dtype=np.float64), self.dc)
        return self.waveform.value(t)


@dataclass
class PowerGrid:
    """Mutable RC power-grid netlist (see module docstring)."""

    node_names: list = field(default_factory=list)
    _index: dict = field(default_factory=dict)
    res_a: list = field(default_factory=list)
    res_b: list = field(default_factory=list)
    res_ohms: list = field(default_factory=list)
    shunt_node: list = field(default_factory=list)
    shunt_siemens: list = field(default_factory=list)
    cap_a: list = field(default_factory=list)
    cap_b: list = field(default_factory=list)
    cap_farads: list = field(default_factory=list)
    vsources: list = field(default_factory=list)
    isources: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def node(self, name: str) -> int:
        """Return the index for ``name``, creating the node if needed."""
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.node_names)
            self.node_names.append(name)
            self._index[name] = idx
        return idx

    def index_of(self, name: str) -> int:
        """Index of an existing node (KeyError if absent)."""
        return self._index[name]

    def name_of(self, index: int) -> str:
        """Name of node ``index``."""
        return self.node_names[index]

    @property
    def num_nodes(self) -> int:
        """Number of grid nodes (ground excluded)."""
        return len(self.node_names)

    # ------------------------------------------------------------------
    # Element insertion
    # ------------------------------------------------------------------
    def add_resistor(self, a: int, b: int, ohms: float) -> None:
        """Resistor between nodes ``a`` and ``b`` (either may be GROUND)."""
        require(ohms > 0, "resistance must be positive")
        require(a != b, "resistor endpoints must differ")
        if b == GROUND or a == GROUND:
            node = a if b == GROUND else b
            self.shunt_node.append(node)
            self.shunt_siemens.append(1.0 / ohms)
        else:
            self.res_a.append(a)
            self.res_b.append(b)
            self.res_ohms.append(ohms)

    def add_resistors(self, a, b, ohms) -> None:
        """:meth:`add_resistor` for arrays of elements, in their order.

        The arguments broadcast against each other (``b = GROUND`` adds
        shunts); the stored values equal one call per element.
        """
        a, b, ohms = np.broadcast_arrays(
            np.asarray(a, dtype=np.int64),
            np.asarray(b, dtype=np.int64),
            np.asarray(ohms, dtype=np.float64),
        )
        require(bool(np.all(ohms > 0)), "resistance must be positive")
        require(not np.any(a == b), "resistor endpoints must differ")
        to_ground = (a == GROUND) | (b == GROUND)
        self.shunt_node.extend(np.where(b == GROUND, a, b)[to_ground].tolist())
        self.shunt_siemens.extend((1.0 / ohms[to_ground]).tolist())
        between = ~to_ground
        self.res_a.extend(a[between].tolist())
        self.res_b.extend(b[between].tolist())
        self.res_ohms.extend(ohms[between].tolist())

    def add_capacitors(self, a, farads) -> None:
        """:meth:`add_capacitor` to ground for arrays of elements, in their order."""
        a, farads = np.broadcast_arrays(
            np.asarray(a, dtype=np.int64), np.asarray(farads, dtype=np.float64)
        )
        require(bool(np.all(farads > 0)), "capacitance must be positive")
        require(not np.any(a == GROUND), "capacitor endpoints must differ")
        self.cap_a.extend(a.tolist())
        self.cap_b.extend([GROUND] * a.size)
        self.cap_farads.extend(farads.tolist())

    def add_capacitor(self, a: int, farads: float, b: int = GROUND) -> None:
        """Capacitor from ``a`` to ``b`` (default: ground)."""
        require(farads > 0, "capacitance must be positive")
        require(a != b, "capacitor endpoints must differ")
        self.cap_a.append(a)
        self.cap_b.append(b)
        self.cap_farads.append(farads)

    def _require_finite_source(self, node: int, value: float, what: str) -> None:
        label = self.node_names[node] if 0 <= node < self.num_nodes else node
        require(
            math.isfinite(value),
            f"{what} at node {label!r} must be a finite number, got {value!r}",
        )

    def add_vsource(self, node: int, volts: float, name: str = "") -> None:
        """Pin ``node`` to ``volts`` (a pad); ``volts`` must be finite."""
        require(node != GROUND, "cannot place a source on the ground node")
        self._require_finite_source(node, volts, "voltage source")
        self.vsources.append(VoltageSource(node=node, voltage=volts, name=name))

    def add_isource(
        self, node: int, amps: float, waveform: "Waveform | None" = None, name: str = ""
    ) -> None:
        """Current load drawing ``amps`` (finite) from ``node`` to ground."""
        require(node != GROUND, "cannot place a source on the ground node")
        self._require_finite_source(node, amps, "current source")
        self.isources.append(
            CurrentSource(node=node, dc=amps, waveform=waveform, name=name)
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def num_resistors(self) -> int:
        """Node-to-node resistors (shunts to ground excluded)."""
        return len(self.res_a)

    def port_nodes(self) -> np.ndarray:
        """Sorted unique nodes carrying a voltage or current source."""
        nodes = {vs.node for vs in self.vsources} | {cs.node for cs in self.isources}
        return np.asarray(sorted(nodes), dtype=np.int64)

    def pad_nodes(self) -> np.ndarray:
        """Sorted unique nodes pinned by voltage sources."""
        return np.asarray(sorted({vs.node for vs in self.vsources}), dtype=np.int64)

    def pad_voltage_vector(self) -> np.ndarray:
        """Pinned voltage for every node (NaN where not pinned)."""
        pinned = np.full(self.num_nodes, np.nan)
        for vs in self.vsources:
            pinned[vs.node] = vs.voltage
        return pinned

    def dc_load_vector(self) -> np.ndarray:
        """Per-node DC drawn current (amps, positive = load)."""
        load = np.zeros(self.num_nodes)
        for cs in self.isources:
            load[cs.node] += cs.dc
        return load

    def to_graph(self) -> Graph:
        """Resistor network as a conductance-weighted :class:`Graph`.

        Shunts, capacitors and sources are not part of the graph — this is
        the object Alg. 1 partitions, reduces and sparsifies.
        """
        heads = np.asarray(self.res_a, dtype=np.int64)
        tails = np.asarray(self.res_b, dtype=np.int64)
        weights = 1.0 / np.asarray(self.res_ohms, dtype=np.float64)
        return Graph(self.num_nodes, heads, tails, weights)

    def total_capacitance(self) -> float:
        """Sum of all capacitances (farads)."""
        return float(np.sum(self.cap_farads)) if self.cap_farads else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PowerGrid(nodes={self.num_nodes}, R={self.num_resistors}, "
            f"C={len(self.cap_a)}, V={len(self.vsources)}, I={len(self.isources)})"
        )
