"""The benchmark's own tests: smoke-size runs of every workload.

Each run must emit every metric ``BENCHMARK.json`` declares and every named
metric of its workload, each with its unit, and pass its checks; a
deliberately corrupted answer must trip them.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
from measure import HostReference  # noqa: E402
from workloads import DRIVER_METRICS, LAYER_UNITS, WORKLOADS  # noqa: E402

from repro.core.effective_resistance import CholInvEffectiveResistance  # noqa: E402
from repro.service import ResistanceService  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

ER_NAMED = {
    "setup_s": "s", "edge_er_s": "s", "batch_ms_p50": "ms", "refresh_s": "s",
    "err_edge_mean": "ratio", "err_edge_max": "ratio", "err_far_mean": "ratio",
    "peak_rss_mb": "MB", "failed_frac": "ratio",
}
NAMED = {
    "mesh-er": {**ER_NAMED, "request_ms_p50": "ms", "request_ms_p99": "ms"},
    "social-er": {**ER_NAMED, "sla_batch_ms_p50": "ms"},
    "pg-reduce": {
        "setup_s": "s", "reduce_s": "s", "dc_solve_ms": "ms", "incremental_s": "s",
        "dc_err_pct": "%", "peak_rss_mb": "MB", "failed_frac": "ratio",
    },
}
# a percentile needs ten samples beyond it, more than a smoke run makes
SMOKE_UNREPORTED = {"request_ms_p99"}


def smoke(workload, trace=False):
    return bench.run(workload, seed=3, seconds=1.0, trace=trace, smoke=True)


def test_tables_match_benchmark_json():
    assert LAYER_UNITS == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS) == set(NAMED)
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert set(end_to_end) == {"setup_s", "peak_rss_mb", *DRIVER_METRICS}
    for metric, stands_for in DRIVER_METRICS.items():
        for workload, name in stands_for.items():
            assert NAMED[workload][name] == end_to_end[metric]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, detail = smoke(workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"], detail["failures"] or detail["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = detail["named"]
    assert {name: m["unit"] for name, m in named.items()} == NAMED[workload]
    for name, metric in named.items():
        if name not in SMOKE_UNREPORTED:
            assert math.isfinite(metric["value"]), name


def test_host_reference_scales_a_sample_by_the_readings_around_it(monkeypatch):
    reference = HostReference()
    reference.readings[-1] = {"interpreted": 0.01, "native": 0.5, "both": 0.51}
    monkeypatch.setattr(
        reference, "read",
        lambda: reference.readings.append({"interpreted": 0.03, "native": 0.5, "both": 0.53}),
    )
    nominal = HostReference.NOMINAL_S["interpreted"]
    assert reference.scale(1.0, "interpreted") == pytest.approx(nominal / 0.02)


def _corrupt_first_answer(monkeypatch, change):
    plain = ResistanceService.query_pairs_with_report

    def corrupted(self, *args, **kwargs):
        values, report = plain(self, *args, **kwargs)
        values = values.copy()
        values[0] = change(values[0])
        return values, report

    monkeypatch.setattr(ResistanceService, "query_pairs_with_report", corrupted)


def test_wrong_edge_resistances_fail_the_accuracy_gate(monkeypatch):
    plain = CholInvEffectiveResistance.all_edge_resistances
    monkeypatch.setattr(
        CholInvEffectiveResistance, "all_edge_resistances",
        lambda self: 1.5 * plain(self),
    )
    result, detail = smoke("mesh-er")
    assert not result["correct"]
    assert not detail["checks"]["err_edge_mean<=0.01"]


def test_non_finite_batch_answer_counts_as_failed(monkeypatch):
    _corrupt_first_answer(monkeypatch, lambda v: np.nan)
    result, detail = smoke("social-er")
    assert not result["correct"] and result["failed"] > 0
    assert "non-finite" in detail["failures"][0]


def test_served_answer_that_disagrees_with_the_engine_counts_as_failed(monkeypatch):
    _corrupt_first_answer(monkeypatch, lambda v: v + 1.0)
    result, detail = smoke("mesh-er")
    assert not result["correct"] and result["failed"] > 0
    assert any("disagrees with the engine" in f for f in detail["failures"])


def test_reload_that_answers_differently_counts_as_failed(monkeypatch):
    plain = ResistanceService.from_saved

    def drifted(path, *args, **kwargs):
        service = plain(path, *args, **kwargs)
        service.engine.z_tilde.data *= 1.5
        return service

    monkeypatch.setattr(ResistanceService, "from_saved", staticmethod(drifted))
    result, detail = smoke("mesh-er")
    assert not result["correct"]
    assert any("bit-identically" in f for f in detail["failures"])
