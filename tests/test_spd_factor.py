"""The SPD factorisation of the power-grid and reduction solves.

``spd_factor`` (symmetric-mode SuperLU on a minimum-degree ordering) is a
stated-tolerance change against the general pivoting LU the DC, transient
and Schur solves used before.  ``_reference_splu`` keeps that call as the
spec: every answer of the new path must match it within ``RTOL``
(max-norm, relative to the largest reference entry).  Floating nodes and
non-finite sources, which symmetric mode would answer silently, are
rejected when the grid is built.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.powergrid.dc as dc_module
import repro.powergrid.transient as transient_module
import repro.reduction.schur as schur_module
from repro.linalg import NotPositiveDefiniteError, spd_factor
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import PGConfig, synthetic_ibmpg_like
from repro.powergrid.mna import build_mna
from repro.powergrid.netlist import GROUND, PowerGrid
from repro.powergrid.spice import read_spice
from repro.powergrid.transient import transient_analysis
from repro.powergrid.waveforms import PulseWaveform
from repro.reduction.schur import schur_reduce

RTOL = 1e-12


def _reference_splu(matrix):
    """The general LU every SPD solve used before: COLAMD, partial pivoting."""
    return spla.splu(matrix)


def _rel_max_err(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    scale = float(np.abs(ref).max()) or 1.0
    return float(np.abs(new - ref).max()) / scale


def _ibmpg(seed):
    """Single-net grids, one and two metal layers, with pulse loads."""
    return synthetic_ibmpg_like(
        PGConfig(nx=20, ny=20, nets=("vdd",), transient=True, num_layers=1 + seed % 2),
        seed=seed,
    )


def _two_net():
    """VDD and GND meshes: loads draw from one and return into the other."""
    return synthetic_ibmpg_like(PGConfig(nx=16, ny=16, transient=True), seed=7)


def _shunt_grounded():
    """A mesh with no pad at all, held only by ground shunts."""
    rng = np.random.default_rng(5)
    pg = PowerGrid()
    side = 12
    nodes = [[pg.node(f"n{i}_{j}") for j in range(side)] for i in range(side)]
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                pg.add_resistor(nodes[i][j], nodes[i + 1][j], rng.uniform(0.5, 2.0))
            if j + 1 < side:
                pg.add_resistor(nodes[i][j], nodes[i][j + 1], rng.uniform(0.5, 2.0))
            pg.add_capacitor(nodes[i][j], 1e-13)
    for i, j in ((0, 0), (side - 1, side - 1), (3, 8)):
        pg.add_resistor(nodes[i][j], GROUND, 0.1)
    wave = PulseWaveform(low=0.0, high=2e-3, delay=0.0, rise=5e-11, width=2e-10,
                         fall=5e-11, period=2e-9)
    for i, j in ((5, 5), (2, 9), (10, 1)):
        pg.add_isource(nodes[i][j], 1e-3, waveform=wave)
    return pg


GRIDS = {
    **{f"ibmpg-seed{s}": (lambda s=s: _ibmpg(s)) for s in range(4)},
    "shunt-only": _shunt_grounded,
    "vdd+gnd": _two_net,
}


@pytest.fixture(params=sorted(GRIDS))
def grid(request):
    return GRIDS[request.param]()


@pytest.fixture
def reference_factor(monkeypatch):
    """Route the DC, transient and Schur solves through ``_reference_splu``."""

    def use_reference():
        for module in (dc_module, transient_module, schur_module):
            monkeypatch.setattr(module, "spd_factor", _reference_splu)

    return use_reference


class TestMatchesReferenceLU:
    def test_dc_voltages(self, grid, reference_factor):
        new = dc_analysis(grid).voltages
        reference_factor()
        ref = dc_analysis(grid).voltages
        assert np.all(np.isfinite(new))
        assert _rel_max_err(new, ref) <= RTOL

    def test_transient_waveforms(self, grid, reference_factor):
        new = transient_analysis(grid, step=1e-11, num_steps=300)
        reference_factor()
        ref = transient_analysis(grid, step=1e-11, num_steps=300)
        assert new.voltages.shape == ref.voltages.shape
        assert _rel_max_err(new.voltages, ref.voltages) <= RTOL

    def test_schur_complement_and_divider(self, grid, reference_factor):
        conductance = build_mna(grid).conductance
        keep = grid.port_nodes()
        new = schur_reduce(conductance, keep)
        reference_factor()
        ref = schur_reduce(conductance, keep)
        assert np.array_equal(new.eliminated, ref.eliminated)
        assert _rel_max_err(new.reduced, ref.reduced) <= RTOL
        assert _rel_max_err(new.divider, ref.divider) <= RTOL


class TestSpdFactor:
    @pytest.mark.parametrize(
        "dense",
        [
            [[0.0, 1.0], [1.0, 0.0]],  # zero diagonal: SuperLU must pivot
            [[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 3.0]],
        ],
    )
    def test_raises_if_superlu_pivots(self, dense):
        with pytest.raises(NotPositiveDefiniteError, match="pivoted"):
            spd_factor(sp.csc_matrix(np.array(dense)))

    def test_error_is_a_linalg_error(self):
        assert issubclass(NotPositiveDefiniteError, np.linalg.LinAlgError)


def _island_grid(rng, load_on_island):
    """Pad-held path plus a resistor island with no path to pad or ground."""
    pg = PowerGrid()
    main = [pg.node(f"m{k}") for k in range(6)]
    island = [pg.node(f"island{k}") for k in range(4)]
    for a, b in zip(main, main[1:]):
        pg.add_resistor(a, b, rng.uniform(0.1, 10.0))
    for a, b in zip(island, island[1:]):
        pg.add_resistor(a, b, rng.uniform(0.1, 10.0))
    pg.add_vsource(main[0], 1.8)
    pg.add_isource(main[3], 1e-3)
    if load_on_island:
        pg.add_isource(island[2], 1e-3)
    return pg


class TestFloatingNodes:
    @pytest.mark.parametrize("load_on_island", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_island_rejected_naming_its_first_node(self, seed, load_on_island):
        pg = _island_grid(np.random.default_rng(seed), load_on_island)
        with pytest.raises(ValueError, match="'island0'.*undefined"):
            build_mna(pg)
        with pytest.raises(ValueError, match="'island0'"):
            dc_analysis(pg)

    def test_island_with_a_shunt_is_accepted(self):
        pg = _island_grid(np.random.default_rng(0), load_on_island=True)
        pg.add_resistor(pg.index_of("island3"), GROUND, 2.0)
        volts = dc_analysis(pg).voltages
        assert np.all(np.isfinite(volts))
        island = [pg.index_of(f"island{k}") for k in range(4)]
        # the island's load pulls it below ground through its shunt
        assert np.all(volts[island] < 0)

    def test_unconnected_load_node_rejected(self):
        pg = PowerGrid()
        pad, load = pg.node("pad"), pg.node("load")
        pg.add_vsource(pad, 1.0)
        pg.add_isource(load, 1e-3)
        with pytest.raises(ValueError, match="'load'"):
            build_mna(pg)

    def test_capacitor_does_not_anchor_a_node(self):
        pg = PowerGrid()
        pad, node = pg.node("pad"), pg.node("node")
        pg.add_vsource(pad, 1.0)
        pg.add_capacitor(node, 1e-12)
        with pytest.raises(ValueError, match="'node'"):
            transient_analysis(pg, step=1e-11, num_steps=2)


class TestNonFiniteSources:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_vsource_rejected_naming_the_node(self, value):
        pg = PowerGrid()
        pad = pg.node("pad7")
        with pytest.raises(ValueError, match="voltage source at node 'pad7'"):
            pg.add_vsource(pad, value)
        assert pg.vsources == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_isource_rejected_naming_the_node(self, value):
        pg = PowerGrid()
        load = pg.node("load3")
        with pytest.raises(ValueError, match="current source at node 'load3'"):
            pg.add_isource(load, value)
        assert pg.isources == []

    @pytest.mark.parametrize(
        "card, message",
        [
            ("I1 n2 0 1e999", "current source at node 'n2'"),  # overflows to inf
            ("V2 n2 0 -1e400", "voltage source at node 'n2'"),
        ],
    )
    def test_spice_reader_rejects_them(self, tmp_path, card, message):
        path = tmp_path / "bad.sp"
        path.write_text(f"R1 n1 n2 1.0\nV1 n1 0 1.8\n{card}\n.end\n")
        with pytest.raises(ValueError, match=message):
            read_spice(path)
