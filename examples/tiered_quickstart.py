"""Tiered serving quickstart — one batch, three accuracy tolerances.

Stands up a :class:`repro.service.ResistanceService` on a heavy-tailed
graph, enables the landmark estimator tier next to the exact cholinv
engine (``service.enable_tiers()`` builds the tier off the *same*
factorisation and calibrates a routing profile against it), then asks
for the same batch of pairs at three SLAs:

* no SLA — bit-identical to a tier-less service, the router never runs;
* ``rel_tol=0.2`` / ``0.05`` / ``0.01`` — the router serves every pair
  whose certified-or-calibrated error bound meets the tolerance from the
  cheap landmark tier and escalates the rest to the exact path.

The printed tier split and measured errors show the trade directly:
looser tolerances route more pairs to the cheap tier, and the observed
max relative error stays within what was asked for.

Run:  PYTHONPATH=src python examples/tiered_quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import EngineConfig
from repro.graphs.generators import barabasi_albert_graph
from repro.service import ResistanceService


def main() -> None:
    graph = barabasi_albert_graph(3000, attachments=4, seed=0)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    # cache off so the three passes below measure engines, not the
    # result table
    service = ResistanceService(
        graph,
        config=EngineConfig(num_landmarks=64, seed=0),
        result_cache_size=0,
    )
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, graph.num_nodes, size=(2000, 2))

    t0 = time.perf_counter()
    exact = service.query_pairs(pairs)
    t_exact = time.perf_counter() - t0
    print(f"exact path: {pairs.shape[0]} pairs in {t_exact * 1e3:.1f}ms")

    t0 = time.perf_counter()
    # default calibration sample (4096 pairs): the router's tolerance
    # promise is only as good as the error tail the calibration saw
    profile = service.enable_tiers(tiers=("landmark",))
    t_tiers = time.perf_counter() - t0
    print(
        f"landmark tier built + calibrated in {t_tiers:.2f}s "
        f"(exact ≈ {profile.exact_seconds_per_pair * 1e6:.1f}µs/pair, "
        f"landmark ≈ "
        f"{profile.tiers['landmark'].seconds_per_pair * 1e6:.1f}µs/pair)"
    )

    # no SLA → the router is never consulted; answers stay bit-identical
    plain = service.query_pairs(pairs)
    print(f"no-SLA request bit-identical: {np.array_equal(plain, exact)}")

    scale = np.maximum(np.abs(exact), 1e-12)
    for rel_tol in (0.2, 0.05, 0.01):
        t0 = time.perf_counter()
        values, report = service.query_pairs_with_report(
            pairs, rel_tol=rel_tol
        )
        elapsed = time.perf_counter() - t0
        max_rel = float(np.max(np.abs(values - exact) / scale))
        split = ", ".join(
            f"{tier}={count}" for tier, count in sorted(report.tier_rows.items())
        )
        print(
            f"rel_tol={rel_tol}: {elapsed * 1e3:.1f}ms "
            f"({t_exact / elapsed:.1f}x vs exact), tier split [{split}], "
            f"max rel err {max_rel:.4f} (within tolerance: "
            f"{max_rel <= rel_tol})"
        )


if __name__ == "__main__":
    main()
