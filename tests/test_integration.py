"""End-to-end integration tests across module boundaries.

Each test exercises a realistic multi-module workflow: file round trips
through the reduction pipeline, estimators feeding the sparsifier,
cross-estimator agreement, and the full Table II protocol in miniature.
"""

import numpy as np
import pytest

from repro.apps.transient_flow import run_transient_flow
from repro.baselines.random_projection import RandomProjectionEffectiveResistance
from repro.core.effective_resistance import (
    CholInvEffectiveResistance,
    ExactEffectiveResistance,
)
from repro.core.engine import EngineConfig
from repro.graphs.generators import fe_mesh_2d
from repro.graphs.laplacian import laplacian
from repro.powergrid.dc import dc_analysis
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.powergrid.spice import read_spice, write_spice
from repro.reduction.pipeline import PGReducer, ReductionConfig
from repro.reduction.sparsify import spielman_srivastava_sparsify


def test_spice_file_reduction_workflow(tmp_path):
    """generate → write SPICE → read → reduce → write → read → DC compare."""
    grid = synthetic_ibmpg_like(nx=12, ny=12, pad_pitch=6, seed=0)
    source_path = tmp_path / "grid.sp"
    write_spice(grid, source_path)

    loaded = read_spice(source_path)
    original_dc = dc_analysis(loaded)

    reducer = PGReducer(loaded, ReductionConfig(seed=1))
    reduced = reducer.reduce()
    reduced_path = tmp_path / "reduced.sp"
    write_spice(reduced.grid, reduced_path)

    reloaded = read_spice(reduced_path)
    reduced_dc = dc_analysis(reloaded)

    # compare port voltages BY NAME through both file round trips
    for port in loaded.port_nodes():
        name = loaded.name_of(int(port))
        original_v = original_dc.voltage_of(name)
        reduced_v = reduced_dc.voltage_of(name)
        assert abs(original_v - reduced_v) < 5e-3  # volts


def test_estimators_agree_on_mesh():
    """All four ER estimators agree on a mesh within their error budgets."""
    graph = fe_mesh_2d(9, 9, seed=5).coalesce()
    pairs = graph.edge_array()
    exact = ExactEffectiveResistance(graph).query_pairs(pairs)
    cholinv = CholInvEffectiveResistance(graph, epsilon=1e-4, drop_tol=0.0).query_pairs(pairs)
    jl = RandomProjectionEffectiveResistance(
        graph, num_projections=4000, solver="splu", seed=0
    ).query_pairs(pairs)
    assert np.abs(cholinv / exact - 1).max() < 1e-2
    assert np.abs(jl / exact - 1).mean() < 5e-2


def test_alg3_scores_drive_sparsifier_as_well_as_exact():
    """Sparsifying with Alg. 3 resistances matches exact-score quality —
    the mechanism behind Table II's 'no loss of accuracy' claim."""
    from repro.graphs.generators import complete_graph

    graph = complete_graph(60)
    exact_scores = ExactEffectiveResistance(graph).all_edge_resistances()
    approx_scores = CholInvEffectiveResistance(
        graph, epsilon=1e-3, drop_tol=1e-3
    ).all_edge_resistances()

    lap = laplacian(graph).toarray()
    rng = np.random.default_rng(3)
    probes = rng.normal(size=(10, 60))
    probes -= probes.mean(axis=1, keepdims=True)

    def worst_distortion(scores, seed):
        result = spielman_srivastava_sparsify(
            graph, scores, sample_factor=10.0, seed=seed
        )
        lap_sparse = laplacian(result.graph).toarray()
        ratios = [
            (x @ lap_sparse @ x) / (x @ lap @ x) for x in probes
        ]
        return max(abs(r - 1.0) for r in ratios)

    exact_quality = np.mean([worst_distortion(exact_scores, s) for s in range(3)])
    approx_quality = np.mean([worst_distortion(approx_scores, s) for s in range(3)])
    assert approx_quality < exact_quality + 0.15


def test_transient_flow_all_methods_run_small():
    grid = synthetic_ibmpg_like(nx=10, ny=10, pad_pitch=5, transient=True, seed=2)
    for method in ("exact", "cholinv"):
        outcome = run_transient_flow(
            grid,
            ReductionConfig(engine=EngineConfig(method=method), seed=0),
            step=1e-11,
            num_steps=15,
        )
        assert outcome.rel_pct < 10.0


def test_reduction_then_second_reduction_is_stable():
    """Reducing an already-reduced grid should keep ports intact and not
    blow up errors — a sanity check for idempotent-ish behaviour."""
    grid = synthetic_ibmpg_like(nx=14, ny=14, pad_pitch=6, seed=3)
    original = dc_analysis(grid)
    first = PGReducer(grid, ReductionConfig(seed=1)).reduce()
    second = PGReducer(
        first.grid, ReductionConfig(seed=2)
    ).reduce()
    solution = dc_analysis(second.grid)

    ports = grid.port_nodes()
    first_idx = first.reduced_index_of(ports)
    second_idx = second.reduced_index_of(first_idx)
    errors = np.abs(original.voltages[ports] - solution.voltages[second_idx])
    assert errors.mean() / original.max_drop() < 0.1
