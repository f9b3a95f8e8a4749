"""Step 5 of Alg. 1: stitch reduced blocks into one reduced power grid.

Inputs are the per-block artefacts (edges, shunts, lumped caps, merge
records, all in *original* node ids) plus the untouched cross-block edges
of the original grid.  The stitcher:

* resolves merge redirections (a node absorbed inside a block redirects
  every cross-block edge and source that referenced it);
* builds the compact reduced node set — every port survives by
  construction;
* rebuilds a :class:`~repro.powergrid.netlist.PowerGrid` with resistors
  (conductance → 1/R), ground shunts, lumped capacitors, and the original
  voltage/current sources re-addressed to reduced indices.
"""

from __future__ import annotations

import numpy as np

from repro.powergrid.netlist import GROUND, PowerGrid
from repro.reduction.pipeline import BlockReduction, ReducedGrid


def stitch_blocks(reducer, blocks: "list[BlockReduction]") -> ReducedGrid:
    """Assemble the reduced grid (called by :meth:`PGReducer.reduce`)."""
    pg = reducer.pg
    graph = reducer.graph
    labels = reducer.labels
    n_original = pg.num_nodes

    # ------------------------------------------------------------------
    # merge redirection: original id -> surviving original id
    redirect = np.arange(n_original, dtype=np.int64)
    for block in blocks:
        redirect[block.merged_away] = block.merge_target
    # merge chains cannot occur (targets are cluster representatives), but
    # apply twice defensively so any accidental chain resolves
    redirect = redirect[redirect]

    # ------------------------------------------------------------------
    # surviving node set: kept nodes of every block that were not merged away
    survives = np.zeros(n_original, dtype=bool)
    for block in blocks:
        survives[block.kept_nodes] = True
    for block in blocks:
        survives[block.merged_away] = False
    survivors = np.flatnonzero(survives)
    node_map = -np.ones(n_original, dtype=np.int64)
    node_map[survivors] = np.arange(survivors.size)

    reduced = PowerGrid()
    for name in map(pg.name_of, survivors.tolist()):
        reduced.node(name)

    def reduced_ids(originals: np.ndarray) -> np.ndarray:
        return node_map[redirect[originals]]

    # ------------------------------------------------------------------
    # block-internal (sparsified) resistors, then the cross-block edges,
    # which pass through unchanged (both endpoints are kept: any node
    # with a crossing edge is interface or port by construction)
    crossing = labels[graph.heads] != labels[graph.tails]
    heads = _concat([b.heads for b in blocks] + [graph.heads[crossing]], np.int64)
    tails = _concat([b.tails for b in blocks] + [graph.tails[crossing]], np.int64)
    siemens = _concat([b.conductances for b in blocks] + [graph.weights[crossing]])
    ra, rb = reduced_ids(heads), reduced_ids(tails)
    # graph weights are positive, so `siemens > 0` drops only block edges
    keep = (ra != rb) & (ra >= 0) & (rb >= 0) & (siemens > 0)
    reduced.add_resistors(ra[keep], rb[keep], 1.0 / siemens[keep])

    # ------------------------------------------------------------------
    # shunts and lumped capacitance
    targets = reduced_ids(_concat([b.kept_nodes for b in blocks], np.int64))
    shunts = _concat([b.shunts for b in blocks])
    keep = (shunts > 0) & (targets >= 0)
    reduced.add_resistors(targets[keep], GROUND, 1.0 / shunts[keep])
    farads = _concat([b.lumped_caps for b in blocks])
    keep = (farads > 0) & (targets >= 0)
    reduced.add_capacitors(targets[keep], farads[keep])

    # ------------------------------------------------------------------
    # sources (ports survive: merging never collapses two ports and the
    # representative of a port's cluster is the port itself)
    v_targets = reduced_ids(np.array([vs.node for vs in pg.vsources], dtype=np.int64))
    for vs, target in zip(pg.vsources, v_targets.tolist()):
        reduced.add_vsource(target, vs.voltage, name=vs.name)
    i_targets = reduced_ids(np.array([cs.node for cs in pg.isources], dtype=np.int64))
    for cs, target in zip(pg.isources, i_targets.tolist()):
        reduced.add_isource(target, cs.dc, waveform=cs.waveform, name=cs.name)

    return ReducedGrid(
        grid=reduced, node_map=node_map, redirect=redirect, timer=reducer.timer
    )


def _concat(parts, dtype=np.float64) -> np.ndarray:
    """The parts end to end, as one ``dtype`` array (empty when none)."""
    return np.concatenate([np.asarray(p, dtype=dtype) for p in parts] or [np.empty(0, dtype)])
