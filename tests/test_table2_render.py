"""Tests for Table II harness rendering and configuration plumbing."""

import numpy as np

from repro.bench.fig1 import Fig1Result
from repro.bench.table2 import Table2Row, _method_config, render_table2
from repro.core.engine import EngineConfig


def make_row(method: str, tred: float) -> Table2Row:
    return Table2Row(
        case="pgX",
        method=method,
        original_nodes=1000,
        original_edges=2000,
        time_original_analysis=1.0,
        reduced_nodes=300,
        reduced_edges=900,
        time_reduction=tred,
        time_reduced_analysis=0.2,
        err_mv=0.1,
        rel_pct=1.0,
    )


def test_render_includes_speedup_vs_exact():
    rows = [make_row("exact", 2.0), make_row("cholinv", 0.5)]
    rendered = render_table2(rows, "tr")
    assert "Acc. Eff. Res." in rendered
    assert "Alg. 3" in rendered
    assert "4.000" in rendered  # 2.0 / 0.5 speedup cell


def test_total_time_property():
    row = make_row("exact", 2.0)
    assert row.total_time == 2.2


def test_method_config_variants():
    exact = _method_config("exact", seed=1)
    assert exact.engine == EngineConfig(method="exact")
    rp = _method_config("random_projection", seed=1)
    assert rp.engine == EngineConfig(method="random_projection", c_jl=25.0)
    alg3 = _method_config("cholinv", seed=1)
    assert alg3.engine == EngineConfig()
    assert alg3.seed == 1


def test_fig1_csv_round_trip(tmp_path):
    times = np.linspace(0, 1e-9, 20)
    result = Fig1Result(
        times=times,
        vdd_node_name="nv",
        gnd_node_name="ng",
        vdd_original=1.8 - 0.01 * np.sin(times * 1e10),
        vdd_reduced=1.8 - 0.01 * np.sin(times * 1e10),
        gnd_original=0.01 * np.cos(times * 1e10),
        gnd_reduced=0.01 * np.cos(times * 1e10) + 1e-5,
    )
    path = tmp_path / "wave.csv"
    result.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (20, 5)
    assert np.allclose(data[:, 0], times)
    assert np.isclose(result.max_divergence(), 1e-5)
