"""repro — Effective resistances on large graphs via approximate inverse of
the Cholesky factor (reproduction of Liu & Yu, DATE 2023).

Quickstart
----------
>>> from repro import EngineConfig, build_engine, grid_2d
>>> graph = grid_2d(30, 30)
>>> engine = build_engine(graph, EngineConfig(epsilon=1e-3, drop_tol=1e-3))
>>> r = engine.query(0, 899)
>>> path = engine.save("engine.npz")          # persist the built factor
>>> from repro import load_engine
>>> restored = load_engine(path)              # warm-start, bit-identical

Every solver implements the :class:`~repro.core.engine.ResistanceEngine`
protocol and registers under a short name (``"cholinv"``, ``"exact"``,
``"random_projection"``, ``"naive"``); :func:`~repro.core.engine.build_engine`
is the one factory the convenience API, the service layer, the bench
harness and the CLI dispatch through.
``EngineConfig(max_shard_nodes=k)`` serves each connected component from
its own sub-engine and splits any component above ``k`` nodes into
vertex-separator-bounded regions, answering cross-region pairs exactly
through a dense Schur complement on the separator
(:class:`~repro.core.partitioned.PartitionedEngine`); a ``k`` no
component exceeds is plain per-component sharding.

Layers
------
* :mod:`repro.graphs` — graph container, Laplacians, generators, IO;
* :mod:`repro.cholesky` — sparse complete/incomplete Cholesky substrate;
* :mod:`repro.core` — the paper's Alg. 2 / Alg. 3 and error analysis, the
  engine protocol/registry (:mod:`repro.core.engine`), partitioned /
  component sharding (:mod:`repro.core.partitioned`) and engine persistence
  (:mod:`repro.core.persistence`);
* :mod:`repro.baselines` — WWW'15 random projection and the naive method
  (registered engines like everything else);
* :mod:`repro.powergrid` — power-grid netlists, MNA, DC and transient
  analysis;
* :mod:`repro.partition` — METIS-substitute graph partitioning;
* :mod:`repro.reduction` — Alg. 1 graph-sparsification-based PG reduction;
* :mod:`repro.apps` — transient / DC-incremental application flows
  (Table II);
* :mod:`repro.service` — the serving stack: planner/executor batch
  partitioning (:mod:`repro.service.planner`,
  :mod:`repro.service.executor`), the cached thread-safe
  :class:`~repro.service.ResistanceService`, and the micro-batching async
  front-end :class:`~repro.service.AsyncResistanceService`;
* :mod:`repro.bench` — harness regenerating every table and figure.
"""

from repro.baselines.naive import NaivePerQueryResistance
from repro.baselines.random_projection import RandomProjectionEffectiveResistance
from repro.cholesky.incomplete import ICholResult, ichol
from repro.cholesky.numeric import CholeskyFactor, cholesky
from repro.core.approx_inverse import ApproxInverseStats, approximate_inverse
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
    register_engine,
    registered_engines,
)
from repro.core.error_bounds import estimate_query_errors, theorem1_bound
from repro.core.partitioned import PartitionedEngine, ShardPlan
from repro.core.persistence import load_engine, save_engine
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    fe_mesh_2d,
    fe_mesh_3d,
    grid_2d,
    grid_3d,
    path_graph,
    random_geometric_graph,
    rmat_graph,
    star_graph,
    stochastic_block_model,
    watts_strogatz_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian, incidence_matrix, laplacian
from repro.service import (
    AsyncResistanceService,
    BatchReport,
    ResistanceService,
    SerialExecutor,
    ThreadedExecutor,
    make_executor,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "laplacian",
    "grounded_laplacian",
    "incidence_matrix",
    "cholesky",
    "CholeskyFactor",
    "ichol",
    "ICholResult",
    "approximate_inverse",
    "ApproxInverseStats",
    "ResistanceEngine",
    "EngineConfig",
    "register_engine",
    "registered_engines",
    "build_engine",
    "PartitionedEngine",
    "ShardPlan",
    "save_engine",
    "load_engine",
    "CholInvEffectiveResistance",
    "ExactEffectiveResistance",
    "RandomProjectionEffectiveResistance",
    "NaivePerQueryResistance",
    "effective_resistances",
    "spanning_edge_centrality",
    "ResistanceService",
    "AsyncResistanceService",
    "BatchReport",
    "SerialExecutor",
    "ThreadedExecutor",
    "make_executor",
    "estimate_query_errors",
    "theorem1_bound",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_2d",
    "grid_3d",
    "fe_mesh_2d",
    "fe_mesh_3d",
    "barabasi_albert_graph",
    "stochastic_block_model",
    "watts_strogatz_graph",
    "rmat_graph",
    "random_geometric_graph",
    "__version__",
]
