"""The ``ResistanceEngine`` protocol, engine registry and configuration.

Every effective-resistance solver in the repository — the paper's Alg. 3
(:class:`~repro.core.effective_resistance.CholInvEffectiveResistance`), the
exact direct-factorisation engine, the WWW'15 random-projection baseline,
the naive per-query strawman and the sharded composite — speaks
the same small interface defined here:

``query(p, q)``
    effective resistance between two nodes (``inf`` across components),
    bit-identical to ``query_pairs([(p, q)])[0]``;
``query_pairs(pairs)``
    vectorised batch of ``(m, 2)`` queries (an empty batch returns an
    empty float array);
``all_edge_resistances()``
    ``query_pairs`` over every edge of the served graph;
``n`` / ``component_labels`` / ``timer`` / ``graph``
    the served node count, connected-component labels, stage timings and
    the graph itself;
``rebuilt(graph, config)``
    the engine for an edited graph — a cold :func:`build_engine` unless
    the engine can reuse symbolic work the edit leaves valid (the Alg. 3
    engine keeps its fill-reducing permutation when the sparsity pattern
    is unchanged).

Engines register under a short name with :func:`register_engine`, declaring
which :class:`EngineConfig` fields they consume; :func:`build_engine` is the
single dispatch point the convenience API
(:func:`~repro.core.effective_resistance.effective_resistances`), the
serving layer (:class:`~repro.service.ResistanceService`), the bench
harness and the CLI all go through.  :func:`build_engines` builds one
engine per graph of a list, as a loop over :func:`build_engine` would,
sharing build work between the graphs where an engine can (the reduction
pipeline builds its per-block engines this way).  ``EngineConfig``
is the only way to pick and tune an engine: one frozen dataclass carries
every tunable, each engine picks out its own fields, and the whole thing
serialises to/from a plain dict for engine persistence
(:mod:`repro.core.persistence`).

Example
-------
>>> from repro.core.engine import EngineConfig, build_engine
>>> from repro.graphs.generators import grid_2d
>>> engine = build_engine(grid_2d(8, 8), EngineConfig(epsilon=1e-4))
>>> engine.query(0, 63) > 0
True
"""

from __future__ import annotations

import abc
import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, cast

import numpy as np
from numpy.typing import ArrayLike

from repro.cholesky.ordering import ORDERING_METHODS
from repro.core.approx_inverse import _MODES
from repro.graphs.graph import Graph
from repro.utils.timing import Timer
from repro.utils.validation import check_finite_nonnegative, check_positive, require


def as_pair_array(pairs: ArrayLike) -> np.ndarray:
    """Normalise a pair list / tuple / array into an ``(m, 2)`` int array.

    Empty inputs (``[]``, ``np.empty((0, 2))``, …) normalise to a
    ``(0, 2)`` array so batch code paths degrade to empty results instead
    of raising.
    """
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim == 1 and arr.shape[0] == 2:
        arr = arr.reshape(1, 2)
    require(arr.ndim == 2 and arr.shape[1] == 2, "pairs must be an (m, 2) array")
    return arr


def as_pair_columns(pairs: ArrayLike) -> "tuple[np.ndarray, np.ndarray]":
    """:func:`as_pair_array` split into ``(ps, qs)`` index arrays."""
    arr = as_pair_array(pairs)
    return arr[:, 0], arr[:, 1]


def validate_node_ids(ids: ArrayLike, num_nodes: int) -> None:
    """Raise ``ValueError`` naming the first id outside ``0 .. num_nodes-1``.

    The serving layer calls this at its boundary so a bad request fails
    with a clear message instead of an ``IndexError`` (or, worse, a
    silently wrapped negative index) deep inside an engine.
    """
    arr = np.asarray(ids, dtype=np.int64).ravel()
    if arr.size == 0:
        return
    bad = (arr < 0) | (arr >= num_nodes)
    if bad.any():
        first = int(arr[np.argmax(bad)])
        raise ValueError(
            f"node id {first} is out of range for a graph with "
            f"{num_nodes} nodes (valid ids: 0..{num_nodes - 1})"
        )


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineConfig:
    """Typed, frozen bundle of every engine tunable.

    One config type serves all engines: each registered engine declares the
    subset of fields it consumes (see :func:`register_engine`) and the
    factory forwards exactly those, so e.g. ``epsilon`` is simply inactive
    when ``method="exact"``.  Defaults match the individual engine
    constructors (which in turn follow the paper).

    Fields
    ------
    method:
        Registered engine name — ``"cholinv"`` (Alg. 3, default),
        ``"exact"``, ``"random_projection"`` or ``"naive"``.
    epsilon, drop_tol, ordering, mode, small_column_threshold:
        Alg. 3 knobs (see
        :class:`~repro.core.effective_resistance.CholInvEffectiveResistance`).
    ground_value:
        Grounding conductance used by every engine (default: mean edge
        weight of the served graph).
    num_projections, c_jl, solver, pcg_rtol:
        WWW'15 random-projection knobs.
    rtol:
        Per-query solve tolerance of the naive engine.
    seed:
        RNG seed for randomised engines.
    max_shard_nodes:
        The one sharding knob.  ``None`` (default) factors the whole graph
        at once.  An integer ``>= 2`` serves the graph through
        :class:`~repro.core.partitioned.PartitionedEngine`: every
        connected component is its own shard, and a component larger
        than the cap is split by recursive bisection into
        vertex-separator-bounded regions, with exact Schur-complement
        cross-region queries.  A cap no component exceeds is plain
        per-component sharding.
    build_workers:
        Threads used to *build* the engine (default 1 = serial).  For the
        Alg. 3 engine the level-parallel blocked kernel splits large
        levels into column chunks run concurrently; a sharded engine's
        constructor fans its shard builds out over this many threads.
        Every worker count produces bit-identical engines — the knob
        trades build wall-clock only.
    num_landmarks, landmark_strategy:
        Tiered-estimator knobs of the ``"landmark"`` engine
        (:class:`~repro.estimators.landmark.LandmarkEffectiveResistance`):
        how many landmark nodes to index and how to pick them
        (``"degree"`` — top weighted degree, default; ``"spread"`` — BFS
        farthest-point; ``"random"`` — seeded uniform sample).
    """

    method: str = "cholinv"
    epsilon: float = 1e-3
    drop_tol: float = 1e-3
    ordering: str = "amd"
    mode: str = "blocked"
    small_column_threshold: "float | None" = None
    ground_value: "float | None" = None
    num_projections: "int | None" = None
    c_jl: float = 100.0
    solver: str = "pcg"
    pcg_rtol: float = 1e-6
    rtol: float = 1e-10
    seed: "int | None" = None
    max_shard_nodes: "int | None" = None
    build_workers: int = 1
    num_landmarks: int = 32
    landmark_strategy: str = "degree"

    def __post_init__(self) -> None:
        check_finite_nonnegative(self.epsilon, "epsilon")
        check_finite_nonnegative(self.drop_tol, "drop_tol")
        # a NaN tolerance compares false everywhere: solvers would stop at
        # once and answer 0 instead of failing
        for name in ("rtol", "pcg_rtol", "c_jl"):
            check_positive(getattr(self, name), name)
        if self.small_column_threshold is not None:
            check_finite_nonnegative(self.small_column_threshold, "small_column_threshold")
        if self.ground_value is not None:
            check_positive(self.ground_value, "ground_value")
        if self.num_projections is not None:
            require(
                math.isfinite(self.num_projections) and self.num_projections >= 1,
                f"num_projections must be None or a finite number >= 1, "
                f"got {self.num_projections!r}",
            )
        for name in ("build_workers", "num_landmarks"):
            value = getattr(self, name)
            require(value >= 1, f"{name} must be >= 1, got {value}")
        # a misspelt name would otherwise surface only inside build_engine,
        # possibly after costly work (PGReducer partitions first)
        for name, allowed in (
            ("ordering", ORDERING_METHODS),
            ("mode", _MODES),
            ("solver", ("pcg", "splu")),
            ("landmark_strategy", ("degree", "spread", "random")),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"{name} must be one of {', '.join(map(repr, allowed))}, "
                    f"got {value!r}"
                )
        cap = self.max_shard_nodes
        require(
            cap is None
            or (isinstance(cap, int) and not isinstance(cap, bool) and cap >= 2),
            f"max_shard_nodes must be None or an integer >= 2, got {cap!r}",
        )

    def replace(self, **changes: Any) -> "EngineConfig":
        """Copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> "dict[str, Any]":
        """Plain-dict form (JSON-friendly) for persistence."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: "dict[str, Any]") -> "EngineConfig":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so configs
        saved by newer versions still load."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------
class ResistanceEngine(abc.ABC):
    """Abstract base class every effective-resistance engine implements.

    Subclasses must set ``graph``, ``n``, ``component_labels`` and
    ``timer`` during construction and implement :meth:`query_pairs`; the
    scalar :meth:`query` and :meth:`all_edge_resistances` have default
    implementations on top of it.  ``config`` is attached by
    :func:`build_engine` (``None`` on engines constructed directly).
    """

    graph: Graph
    n: int
    component_labels: np.ndarray
    timer: Timer
    config: "EngineConfig | None" = None
    # True on an engine that :meth:`rebuilt` built on its predecessor's
    # fill-reducing permutation instead of computing a fresh one
    reused_ordering: bool = False

    @abc.abstractmethod
    def query_pairs(self, pairs: ArrayLike) -> np.ndarray:
        """Effective resistances for an ``(m, 2)`` array of node pairs."""

    @classmethod
    def build_many(
        cls, graphs: "Sequence[Graph]", **params: Any
    ) -> "Sequence[ResistanceEngine]":
        """One engine per graph, as the constructor builds it.

        :func:`build_engines` calls this; an engine whose build can share
        work across independent graphs overrides it, and its engines must
        stay bit-identical to ``cls(graph, **params)``.
        """
        make: "Callable[..., ResistanceEngine]" = cls
        return [make(graph, **params) for graph in graphs]

    def rebuilt(self, graph: Graph, config: EngineConfig) -> "ResistanceEngine":
        """The engine ``config`` describes for ``graph``, an edit of this one's.

        The service's refresh path calls this instead of
        :func:`build_engine`, so an engine can carry symbolic work that
        the edit leaves valid over to its successor.  The result must be
        bit-identical to ``build_engine(graph, config)``; the default is
        exactly that cold build.
        """
        return build_engine(graph, config)

    def query(self, p: int, q: int) -> float:
        """Effective resistance between nodes ``p`` and ``q``.

        An engine may override this with a cheaper scalar path, but its
        answer must stay bit-identical to ``query_pairs([(p, q)])[0]``.
        """
        return float(self.query_pairs([(int(p), int(q))])[0])

    def all_edge_resistances(self) -> np.ndarray:
        """Effective resistance of every edge of the served graph."""
        return self.query_pairs(self.graph.edge_array())

    def save(self, path: "str | Path") -> Path:
        """Serialise the built engine to ``path`` (``.npz``).

        Only engines whose state is plain arrays support this — currently
        the Alg. 3 engine; see :mod:`repro.core.persistence`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support persistence; only the "
            f'"cholinv" (Alg. 3) engine serialises its factor to disk'
        )


# ----------------------------------------------------------------------
# registry + factory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _EngineSpec:
    cls: type
    params: "tuple[str, ...]"


_REGISTRY: "dict[str, _EngineSpec]" = {}
_registered_builtins = False


def register_engine(
    name: str, *, params: "tuple[str, ...]" = ()
) -> "Callable[[type], type]":
    """Class decorator registering an engine under ``name``.

    ``params`` names the :class:`EngineConfig` fields the engine's
    constructor accepts (beyond the graph); :func:`build_engine` forwards
    exactly those.  Re-registering a name overwrites it, so downstream
    code can swap in experimental engines.
    """
    config_fields = {f.name for f in dataclasses.fields(EngineConfig)}
    bad = sorted(set(params) - config_fields)
    require(not bad, f"params {bad} are not EngineConfig fields")

    def decorate(cls: type) -> type:
        _REGISTRY[name] = _EngineSpec(cls, tuple(params))
        cls.engine_name = name
        return cls

    return decorate


def _ensure_builtins_registered() -> None:
    """Import the modules whose classes self-register (idempotent)."""
    global _registered_builtins
    if _registered_builtins:
        return
    import repro.baselines.naive  # noqa: F401
    import repro.baselines.random_projection  # noqa: F401
    import repro.core.effective_resistance  # noqa: F401
    import repro.estimators  # noqa: F401

    _registered_builtins = True


def registered_engines() -> "tuple[str, ...]":
    """Sorted names of every registered engine."""
    _ensure_builtins_registered()
    return tuple(sorted(_REGISTRY))


def engine_params(name: str) -> "tuple[str, ...]":
    """The :class:`EngineConfig` fields the engine ``name`` consumes.

    This is the declared persistence/forwarding surface of an engine: the
    factory forwards exactly these fields, and for ``"cholinv"`` the
    persistence layer must save and restore every one of them (the
    ``config-persistence-drift`` lint rule and the round-trip regression
    test both key off this list).
    """
    _ensure_builtins_registered()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return spec.params


def _engine_spec(config: "EngineConfig | None") -> "tuple[EngineConfig, _EngineSpec]":
    """``config`` (default ``EngineConfig()``) and its registered engine."""
    if config is None:
        config = EngineConfig()
    elif not isinstance(config, EngineConfig):
        raise TypeError(
            f"config must be an EngineConfig, got {config!r}; pick an "
            f"engine with EngineConfig(method=...)"
        )
    _ensure_builtins_registered()
    spec = _REGISTRY.get(config.method)
    if spec is None:
        raise ValueError(
            f"unknown method {config.method!r}; registered engines: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return config, spec


def build_engine(
    graph: Graph, config: "EngineConfig | None" = None
) -> ResistanceEngine:
    """Build the engine a config describes — the registry's single factory.

    ``config`` defaults to ``EngineConfig()`` (Alg. 3 with the paper's
    settings).  A ``max_shard_nodes`` cap wraps the chosen method in a
    :class:`~repro.core.partitioned.PartitionedEngine`.
    """
    config, spec = _engine_spec(config)
    if config.max_shard_nodes is not None:
        from repro.core.partitioned import PartitionedEngine

        engine: ResistanceEngine = PartitionedEngine(graph, config)
    else:
        engine = spec.cls(graph, **{p: getattr(config, p) for p in spec.params})
    engine.config = config
    return engine


def build_engines(
    graphs: "Sequence[Graph]", config: "EngineConfig | None" = None
) -> "list[ResistanceEngine]":
    """``[build_engine(g, config) for g in graphs]``, sharing build work.

    The engines are bit-identical to that loop.  An unsharded Alg. 3
    config grounds, orders and factors every graph on its own, then runs
    one Alg. 2 level sweep over all the factors
    (:meth:`CholInvEffectiveResistance.build_many
    <repro.core.effective_resistance.CholInvEffectiveResistance.build_many>`);
    every other engine, and every sharded config, builds one graph after
    another.
    """
    config, spec = _engine_spec(config)
    if config.max_shard_nodes is not None:
        return [build_engine(graph, config) for graph in graphs]
    engine_cls = cast("type[ResistanceEngine]", spec.cls)
    engines = list(
        engine_cls.build_many(graphs, **{p: getattr(config, p) for p in spec.params})
    )
    for engine in engines:
        engine.config = config
    return engines
