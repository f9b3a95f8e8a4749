"""The one SPD factorisation every SuperLU solve goes through.

``spd_factor`` (symmetric-mode SuperLU, on a minimum-degree ordering or on
the caller's order) replaced the general pivoting LU that the DC,
transient and Schur solves and the exact and random-projection engines
used before.  ``_reference_splu`` keeps that call as the spec: every
answer of the new path must match it within ``RTOL`` (max-norm, relative
to the largest reference entry).  On badly scaled weights the exact
engine must sit no farther from the dense pseudo-inverse than it did on
one draw, and within the ``κ·u`` forward-error bound of an
extended-precision answer on three.
``cholesky()`` made the same symmetric-mode call itself and must give the
same bytes through ``spd_factor``.  Floating nodes and non-finite sources,
which symmetric mode would answer silently, are rejected when the grid is
built.  A source walk keeps every SuperLU call in ``repro/linalg/spd.py``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro
import repro.baselines.random_projection as rp_module
import repro.core.effective_resistance as exact_module
import repro.powergrid.dc as dc_module
import repro.powergrid.transient as transient_module
import repro.reduction.schur as schur_module
from repro.baselines.random_projection import RandomProjectionEffectiveResistance
from repro.cholesky.numeric import cholesky
from repro.cholesky.ordering import permute_symmetric
from repro.core.effective_resistance import ExactEffectiveResistance, dense_pinv_resistance
from repro.graphs.components import connected_components
from repro.graphs.laplacian import component_ground_nodes, grounded_laplacian
from repro.linalg import NotPositiveDefiniteError, spd_factor
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import PGConfig, synthetic_ibmpg_like
from repro.powergrid.mna import build_mna
from repro.powergrid.netlist import GROUND, PowerGrid
from repro.powergrid.spice import read_spice
from repro.powergrid.transient import transient_analysis
from repro.powergrid.waveforms import PulseWaveform
from repro.reduction.schur import schur_reduce
from tests.conftest import random_spd
from tests.test_effective_resistance import KERNEL_GRAPHS, _probe_pairs

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


def _exact(graph, pairs, factor=None, monkeypatch=None):
    """Exact-engine answers, on ``factor`` in place of ``spd_factor`` if given."""
    if factor is not None:
        monkeypatch.setattr(exact_module, "spd_factor", factor)
    return ExactEffectiveResistance(graph).query_pairs(pairs)


def _log_uniform_weights(graph, seed=0):
    """The same graph with weights spread log-uniformly over 1e-6..1e6."""
    rng = np.random.default_rng(seed)
    return graph.with_weights(np.exp(rng.uniform(np.log(1e-6), np.log(1e6), graph.num_edges)))


def _panel_pairs(graph):
    return np.concatenate([_probe_pairs(graph.num_nodes, seed=0), graph.edge_array()])


def _refined_resistance(graph, pairs):
    """Eq. 3 on the grounded Laplacian ``A`` by a dense solve refined with
    extended-precision residuals, and ``κ₂(A)``.

    The refined inverse is good to about ``κ·1e-19``, well inside the
    ``κ·u`` forward error a float64 factorisation may make.
    """
    labels, _ = connected_components(graph)
    matrix, _ = grounded_laplacian(
        graph, float(graph.weights.mean()), ground_nodes=component_ground_nodes(labels)
    )
    dense = matrix.toarray()
    lu = sla.lu_factor(dense)
    wide = dense.astype(np.longdouble)
    identity = np.eye(dense.shape[0], dtype=np.longdouble)
    inverse = sla.lu_solve(lu, np.eye(dense.shape[0])).astype(np.longdouble)
    for _ in range(2):
        inverse += sla.lu_solve(lu, (identity - wide @ inverse).astype(np.float64))
    ps, qs = pairs[:, 0], pairs[:, 1]
    out = (inverse[ps, ps] + inverse[qs, qs] - inverse[ps, qs] - inverse[qs, ps]).astype(np.float64)
    out[labels[ps] != labels[qs]] = np.inf
    out[ps == qs] = 0.0
    return out, float(np.linalg.cond(dense))


class TestExactEngineMatchesReferenceLU:
    """The exact engine factors its grounded Laplacian (SPD: one ground
    node per component, positive weights) through ``spd_factor``."""

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_kernel_graphs(self, name, monkeypatch):
        graph = KERNEL_GRAPHS[name]()
        pairs = _panel_pairs(graph)
        new = _exact(graph, pairs)
        ref = _exact(graph, pairs, _reference_splu, monkeypatch)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(new), finite)
        assert np.array_equal(new[~finite], ref[~finite])
        scale = np.where(ref[finite] > 0, ref[finite], 1.0)
        assert float((np.abs(new[finite] - ref[finite]) / scale).max()) <= RTOL

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_log_uniform_weights_no_farther_from_pinv(self, name, monkeypatch):
        # a 1e12 weight spread separates the two factorisations by up to
        # ~2e-7; on these weights the symmetric one is not the less accurate
        graph = _log_uniform_weights(KERNEL_GRAPHS[name]())
        pairs = _panel_pairs(graph)
        truth = dense_pinv_resistance(graph, pairs)
        finite = np.isfinite(truth)
        new = _exact(graph, pairs)
        ref = _exact(graph, pairs, _reference_splu, monkeypatch)
        assert np.array_equal(np.isfinite(new), finite)
        new_err = _rel_max_err(new[finite], truth[finite])
        ref_err = _rel_max_err(ref[finite], truth[finite])
        assert new_err <= ref_err

    @pytest.mark.parametrize("seed", [0, 3, 5])
    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_log_uniform_weights_within_forward_error_bound(self, name, seed):
        # the comparison above holds for the seed-0 weights, not for every
        # draw: at seed 3 the symmetric factorisation is 3.4x farther from
        # the pseudo-inverse on isolated-nodes, at seed 5 2.4x on
        # disconnected.  Neither elimination order is the more accurate on
        # every draw; what holds on all of them is the forward-error bound
        # κ₂(A)·u of a backward-stable solve
        graph = _log_uniform_weights(KERNEL_GRAPHS[name](), seed)
        pairs = _panel_pairs(graph)
        truth, kappa = _refined_resistance(graph, pairs)
        finite = np.isfinite(truth)
        new = _exact(graph, pairs)
        assert np.array_equal(np.isfinite(new), finite)
        assert _rel_max_err(new[finite], truth[finite]) <= kappa * np.finfo(np.float64).eps


def _reference_cholesky_lower(matrix, perm):
    """The SuperLU call and extraction ``cholesky()`` made by itself."""
    permuted = permute_symmetric(sp.csc_matrix(matrix), perm).tocsc()
    lu = spla.splu(
        permuted,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    assert np.array_equal(lu.perm_r, np.arange(matrix.shape[0]))
    lower = (lu.L @ sp.diags(np.sqrt(lu.U.diagonal()))).tocsc()
    lower.sort_indices()
    return lower


class TestCholeskyThroughSpdFactor:
    @pytest.mark.parametrize("ordering", ["natural", "rcm", "amd"])
    @pytest.mark.parametrize(
        "name", ["grid", "ba", "disconnected", "random-spd"]
    )
    def test_lower_byte_identical(self, name, ordering):
        if name == "random-spd":
            matrix = random_spd(150, 0.03, seed=4)
        else:
            matrix, _ = grounded_laplacian(KERNEL_GRAPHS[name](), 1.0)
        factor = cholesky(matrix, ordering=ordering)
        want = _reference_cholesky_lower(matrix, factor.perm)
        for attr in ("data", "indices", "indptr"):
            got, ref = getattr(factor.lower, attr), getattr(want, attr)
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_explicit_order_factors_the_permuted_matrix(self):
        matrix = random_spd(60, 0.08, seed=9)
        perm = np.random.default_rng(2).permutation(60)
        lu = spd_factor(matrix, perm)
        assert np.array_equal(lu.perm_c, np.arange(60))
        rhs = np.arange(60, dtype=np.float64)
        permuted = permute_symmetric(matrix, perm)
        assert np.allclose(permuted @ lu.solve(rhs), rhs, rtol=0, atol=1e-10)

    def test_explicit_order_that_pivots_raises(self):
        # the natural order meets the zero diagonal first; swapping the
        # two nodes does not help an indefinite matrix
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])
        for perm in ([0, 1], [1, 0]):
            with pytest.raises(NotPositiveDefiniteError, match="pivoted"):
                spd_factor(sp.csc_matrix(dense), np.array(perm))


class TestRandomProjectionSplu:
    @pytest.mark.parametrize("name", ["grid", "disconnected"])
    def test_matches_reference_lu_at_a_fixed_seed(self, name, monkeypatch):
        graph = KERNEL_GRAPHS[name]()
        params = dict(num_projections=24, solver="splu", seed=5)
        new = RandomProjectionEffectiveResistance(graph, **params).embedding
        monkeypatch.setattr(rp_module, "spd_factor", _reference_splu)
        ref = RandomProjectionEffectiveResistance(graph, **params).embedding
        assert _rel_max_err(new, ref) <= RTOL


_SUPERLU_CALLS = {"splu", "spilu", "spsolve", "factorized"}


def _superlu_calls(path: Path) -> "list[int]":
    """Line numbers of the SuperLU-backed scipy calls in one source file."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _SUPERLU_CALLS:
                lines.append(node.lineno)
    return lines


class TestOneSuperluCallSite:
    """Every sparse direct factorisation in the package is ``spd_factor``:
    the decision how to factor lives in one module."""

    def test_only_spd_module_calls_superlu(self):
        root = Path(repro.__file__).parent
        found = {
            path.relative_to(root.parent).as_posix(): lines
            for path in sorted(root.rglob("*.py"))
            if (lines := _superlu_calls(path))
        }
        assert list(found) == ["repro/linalg/spd.py"]
        assert len(found["repro/linalg/spd.py"]) == 1

    def test_walk_sees_attribute_and_bare_calls(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text(
            "import scipy.sparse.linalg as spla\n"
            "from scipy.sparse.linalg import splu\n"
            "a = spla.splu(m)\n"
            "b = splu(m)\n"
            "c = spla.spsolve(m, r)\n"
            "d = spla.spsolve_triangular(m, r)\n"
        )
        assert _superlu_calls(source) == [3, 4, 5]
