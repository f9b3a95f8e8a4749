"""The paper's core contribution.

* :mod:`repro.core.truncation` — the relative 1-norm pruning rule (Eq. 10);
* :mod:`repro.core.approx_inverse` — Alg. 2, the sparse approximate inverse
  of a Cholesky factor;
* :mod:`repro.core.engine` — the ``ResistanceEngine`` protocol, typed
  ``EngineConfig``, and the registry/factory every layer dispatches
  through;
* :mod:`repro.core.effective_resistance` — Alg. 3 plus exact effective
  resistances and the high-level query API;
* :mod:`repro.core.partitioned` — the sharded composite engine behind
  a ``max_shard_nodes`` cap: :class:`~repro.core.partitioned.ShardPlan`
  shard plans (one region per component, oversized components split
  into vertex-separator regions) and the Schur-complement cross-region
  query path;
* :mod:`repro.core.persistence` — save/load built Alg. 3 engines (warm
  starts);
* :mod:`repro.core.error_bounds` — Theorem 1 / Eq. (25)–(26) machinery and
  the sampled error estimation used in Table I.
"""

from repro.core.approx_inverse import (
    ApproxInverseStats,
    approximate_inverse,
    approximate_inverses,
)
from repro.core.effective_resistance import (
    CholInvEffectiveResistance,
    ExactEffectiveResistance,
    effective_resistances,
    spanning_edge_centrality,
)
from repro.core.engine import (
    EngineConfig,
    ResistanceEngine,
    build_engine,
    build_engines,
    register_engine,
    registered_engines,
)
from repro.core.error_bounds import (
    alpha_coefficient,
    column_error_report,
    estimate_query_errors,
    theorem1_bound,
)
from repro.core.partitioned import PartitionedEngine, ShardPlan, separator_plan
from repro.core.persistence import load_engine, save_engine
from repro.core.truncation import truncate_relative_1norm

__all__ = [
    "approximate_inverse",
    "approximate_inverses",
    "ApproxInverseStats",
    "truncate_relative_1norm",
    "ResistanceEngine",
    "EngineConfig",
    "register_engine",
    "registered_engines",
    "build_engine",
    "build_engines",
    "PartitionedEngine",
    "ShardPlan",
    "separator_plan",
    "save_engine",
    "load_engine",
    "CholInvEffectiveResistance",
    "ExactEffectiveResistance",
    "effective_resistances",
    "spanning_edge_centrality",
    "theorem1_bound",
    "column_error_report",
    "alpha_coefficient",
    "estimate_query_errors",
]
