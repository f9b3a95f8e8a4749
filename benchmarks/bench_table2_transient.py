"""Table II (upper) — PG reduction + transient analysis.

Regenerates the paper's transient rows: for each synthetic ibmpg-like case
and each effective-resistance backend, reduce with Alg. 1, run the 1000
fixed-step Backward-Euler simulation on original and reduced grids, and
report Tred / Ttr / Err(mV) / Rel(%).

Claims that must hold:

* Alg. 3 reduction is markedly faster than exact-ER reduction
  (paper: 6.4X average), with **no loss of accuracy** (Rel matches the
  exact column);
* the random-projection backend is slower than Alg. 3 and *less accurate*
  (its ER errors corrupt merging/sampling probabilities).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, full_scale
from repro.bench.cases import TABLE2_CASES, quick_table2_names
from repro.bench.table2 import best_reduction_times, render_table2, run_table2_transient

_ROWS = []


def _case_names():
    return list(TABLE2_CASES) if full_scale() else quick_table2_names()


def _num_steps():
    return 1000 if full_scale() else 300


@pytest.mark.parametrize("name", _case_names())
def test_table2_transient_case(benchmark, name, bench_out_dir):
    case = TABLE2_CASES[name]

    def run():
        return run_table2_transient(case, num_steps=_num_steps())

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    _ROWS.extend(rows)

    by_method = {row.method: row for row in rows}
    exact = by_method["exact"]
    alg3 = by_method["cholinv"]
    rp = by_method["random_projection"]

    # accuracy: Alg. 3 must match the exact-ER reduction quality
    assert alg3.rel_pct < 6.0
    assert alg3.rel_pct < exact.rel_pct * 2.0 + 0.5
    # speed: Alg. 3 reduction must beat the exact-ER reduction.  One timed
    # reduction each is too noisy to order two methods tens of ms apart,
    # so compare best-of-3 reductions, the methods taking turns
    best = best_reduction_times(case, ("exact", "cholinv"), repeats=3)
    assert best["cholinv"] < best["exact"]
    # the RP backend must not be more accurate than Alg. 3 by any margin
    assert rp.rel_pct > 0.5 * alg3.rel_pct

    if len(_ROWS) == 3 * len(_case_names()):
        emit(bench_out_dir, "table2_transient", render_table2(_ROWS, "tr"))
