"""Engine persistence — save a built Alg. 3 engine, warm-start from disk.

Building a ``cholinv`` engine is the expensive part of serving effective
resistances (incomplete Cholesky + Alg. 2); the queries themselves only
need the approximate inverse ``Z̃`` and a few index arrays.  This module
serialises exactly that state to a single ``.npz`` so service workers can
warm-start without refactoring (ROADMAP: "persist/serialize built
engines"):

* ``Z̃`` in CSC form (``data`` / ``indices`` / ``indptr`` / shape);
* the fill-reducing permutation and the cached column square norms
  (restoring both makes :meth:`query_pairs` *bit-identical* to the saved
  engine — nothing is recomputed);
* the connected-component labels (cross-component queries answer ``inf``
  without any factor);
* the served graph's edge arrays (so ``all_edge_resistances`` and service
  refreshes work on the restored engine);
* the :class:`~repro.core.engine.EngineConfig` as JSON (so a refresh after
  a graph edit rebuilds with the saved settings).

Partitioned engines (:class:`~repro.core.partitioned.PartitionedEngine`,
i.e. a config with a ``max_shard_nodes`` cap) persist too (format
v2): the file carries the :class:`~repro.core.partitioned.ShardPlan`
arrays, every separator Schur system and every region factor under
per-shard key prefixes (singleton regions have no factor).  Region halo
graphs and the region config are not stored: they are a deterministic
function of the graph, the plan and the engine config, so the loader
reconstructs them.  Reload is bit-identical.  A half-built archive from
a v4 ``lazy_shards`` engine lacks some pieces; the loader builds them,
with the same answers as the engine that wrote the archive.

Archives before v5 spelled the sharding choice as ``shard_strategy``
(before v4 also a ``sharded`` flag), ``separator`` and ``lazy_shards``;
:func:`_saved_config` maps them onto the single ``max_shard_nodes`` knob
when they load.

Entry points: :func:`save_engine` / :func:`load_engine`, surfaced as
``engine.save(path)``, ``ResistanceService.from_saved(path)`` and the CLI's
``--save-engine`` / ``--load-engine`` options.  ``load_engine(path,
mmap=True)`` memory-maps the large arrays instead of reading them: many
service workers on one host then share the physical pages of one saved
factor (the ``.npz`` is an uncompressed zip, so each member's array data
sits at a fixed file offset that ``np.memmap`` can map read-only).
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.approx_inverse import ApproxInverseStats
from repro.core.engine import EngineConfig
from repro.graphs.graph import Graph
from repro.utils.validation import require

# v1: monolithic cholinv only; v2 adds kind="partitioned" (plan + separator
# systems + per-shard region factors); v3 adds kind="landmark" (projection
# tables of the tiered landmark estimator); v4 folds the config's "sharded"
# flag into shard_strategy="none" and drops the region config member; v5
# folds shard_strategy / separator / lazy_shards into max_shard_nodes and
# drops the plan_strategy member.  v1 files have no "kind" member and load
# as cholinv.
FORMAT_VERSION = 5


def _npz_path(path: "str | Path") -> Path:
    """``np.savez`` appends ``.npz`` silently; make that explicit."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_engine(engine, path: "str | Path") -> Path:
    """Serialise a built engine to ``path`` (returns the path).

    :class:`~repro.core.effective_resistance.CholInvEffectiveResistance`
    persists directly (its post-build state is plain arrays),
    :class:`~repro.core.partitioned.PartitionedEngine` persists whenever
    its region engines are ``cholinv`` (plan + separator systems + region
    factors), and
    :class:`~repro.estimators.landmark.LandmarkEffectiveResistance`
    persists its projection tables (``kind="landmark"`` — the internal
    cholinv base engine is not stored, the tables answer every query).
    The ``exact`` and ``random_projection`` engines hold live
    factorisation objects (SuperLU) that cannot be serialised portably —
    rebuild those instead.
    """
    from repro.core.effective_resistance import CholInvEffectiveResistance
    from repro.core.partitioned import PartitionedEngine
    from repro.estimators.landmark import LandmarkEffectiveResistance

    if isinstance(engine, PartitionedEngine):
        return _save_partitioned(engine, path)
    if isinstance(engine, LandmarkEffectiveResistance):
        base = engine.base_config
        landmark_config = EngineConfig(
            method="landmark",
            num_landmarks=int(engine.num_landmarks),
            landmark_strategy=engine.landmark_strategy,
            seed=None if engine.seed is None else int(engine.seed),
            epsilon=base.epsilon,
            drop_tol=base.drop_tol,
            ordering=base.ordering,
            mode=base.mode,
            small_column_threshold=base.small_column_threshold,
            ground_value=base.ground_value,
            build_workers=base.build_workers,
        )
        return _save_landmark(engine, landmark_config, path)
    if not isinstance(engine, CholInvEffectiveResistance):
        raise NotImplementedError(
            f"{type(engine).__name__} does not support persistence; only the "
            f'"cholinv" (Alg. 3) engine serialises its factor to disk'
        )
    # the config carries the *requested* ground value (None = recompute
    # from the graph) so a refresh after warm-start regrounds exactly like
    # a cold service would; the resolved value is stored separately below
    requested = engine.requested_ground_value
    config = EngineConfig(
        method="cholinv",
        epsilon=engine.epsilon,
        drop_tol=engine.drop_tol,
        ordering=engine.ordering,
        mode=engine.mode,
        small_column_threshold=engine.small_column_threshold,
        ground_value=None if requested is None else float(requested),
        build_workers=int(engine.build_workers),
    )
    z = engine.z_tilde.tocsc()
    path = _npz_path(path)
    np.savez(
        path,
        format_version=np.int64(FORMAT_VERSION),
        kind=np.asarray("cholinv"),
        config_json=np.asarray(json.dumps(config.to_dict())),
        num_nodes=np.int64(engine.graph.num_nodes),
        graph_heads=engine.graph.heads,
        graph_tails=engine.graph.tails,
        graph_weights=engine.graph.weights,
        z_data=z.data,
        z_indices=z.indices,
        z_indptr=z.indptr,
        z_shape=np.asarray(z.shape, dtype=np.int64),
        ground_value=np.float64(engine.ground_value),
        perm=engine.perm,
        column_sq_norms=engine._column_sq_norms,
        component_labels=engine.component_labels,
        stats_nnz=np.int64(engine.stats.nnz),
        stats_n=np.int64(engine.stats.n),
        stats_columns_truncated=np.int64(engine.stats.columns_truncated),
        stats_columns_kept_whole=np.int64(engine.stats.columns_kept_whole),
    )
    return path


def _save_landmark(engine, config: EngineConfig, path: "str | Path") -> Path:
    """Serialise a landmark estimator: projection tables + graph + config.

    The tables (``u`` / ``resid_sq`` / ``dist_sq`` / ``landmarks``) are the
    whole query surface — ``O(n·k)`` floats — so a warm-started worker
    answers bounded queries without ever refactoring; a service that needs
    the exact tier too rebuilds it from the saved base-engine settings in
    the config.
    """
    path = _npz_path(path)
    np.savez(
        path,
        format_version=np.int64(FORMAT_VERSION),
        kind=np.asarray("landmark"),
        config_json=np.asarray(json.dumps(config.to_dict())),
        num_nodes=np.int64(engine.graph.num_nodes),
        graph_heads=engine.graph.heads,
        graph_tails=engine.graph.tails,
        graph_weights=engine.graph.weights,
        component_labels=engine.component_labels,
        ground_value=np.float64(engine.ground_value),
        u=engine._u,
        resid_sq=engine._resid_sq,
        dist_sq=engine._dist_sq,
        landmarks=engine.landmarks,
    )
    return path


def _save_partitioned(engine, path: "str | Path") -> Path:
    """Serialise a partitioned engine: plan + Schur systems + region factors.

    ``built_shards`` lists every region with an engine (all but the
    singletons) and ``system_components`` every split component.  Region
    engines must be ``cholinv`` (the only sub-engine with array state).
    """
    from repro.core.effective_resistance import CholInvEffectiveResistance

    if engine.config.method != "cholinv":
        raise NotImplementedError(
            f'sharded "{engine.config.method}" engines do not support '
            f'persistence; only "cholinv" (Alg. 3) region factors '
            f"serialise to disk"
        )
    plan = engine.plan
    arrays: "dict[str, np.ndarray]" = {
        "format_version": np.int64(FORMAT_VERSION),
        "kind": np.asarray("partitioned"),
        "config_json": np.asarray(json.dumps(engine.config.to_dict())),
        "num_nodes": np.int64(engine.graph.num_nodes),
        "graph_heads": engine.graph.heads,
        "graph_tails": engine.graph.tails,
        "graph_weights": engine.graph.weights,
        "component_labels": engine.component_labels,
        "plan_num_shards": np.int64(plan.num_shards),
        "plan_num_components": np.int64(plan.num_components),
        "plan_shard_of": plan.shard_of,
        "plan_separator": plan.separator,
    }
    built = [s for s, sub in enumerate(engine._engines) if sub is not None]
    arrays["built_shards"] = np.asarray(built, dtype=np.int64)
    for shard in built:
        sub = engine._engines[shard]
        if not isinstance(sub, CholInvEffectiveResistance):
            raise NotImplementedError(
                f"shard {shard} is a {type(sub).__name__}, which does not "
                f'support persistence; only "cholinv" region factors '
                f"serialise to disk"
            )
        z = sub.z_tilde.tocsc()
        prefix = f"shard{shard}_"
        arrays[prefix + "z_data"] = z.data
        arrays[prefix + "z_indices"] = z.indices
        arrays[prefix + "z_indptr"] = z.indptr
        arrays[prefix + "z_shape"] = np.asarray(z.shape, dtype=np.int64)
        arrays[prefix + "ground_value"] = np.float64(sub.ground_value)
        arrays[prefix + "perm"] = sub.perm
        arrays[prefix + "column_sq_norms"] = sub._column_sq_norms
        arrays[prefix + "stats_nnz"] = np.int64(sub.stats.nnz)
        arrays[prefix + "stats_n"] = np.int64(sub.stats.n)
        arrays[prefix + "stats_columns_truncated"] = np.int64(
            sub.stats.columns_truncated
        )
        arrays[prefix + "stats_columns_kept_whole"] = np.int64(
            sub.stats.columns_kept_whole
        )
    systems = sorted(engine._systems)
    arrays["system_components"] = np.asarray(systems, dtype=np.int64)
    for component in systems:
        arrays[f"sys{component}_schur"] = engine._systems[component].schur
    path = _npz_path(path)
    np.savez(path, **arrays)
    return path


def _mmap_npz_arrays(path: Path) -> "dict[str, np.ndarray]":
    """Read an uncompressed ``.npz``, memory-mapping every 1-D+ member.

    ``np.savez`` stores members without compression, so each embedded
    ``.npy`` payload lives at ``local header + npy header`` bytes into the
    archive — a fixed offset ``np.memmap`` can map read-only.  Scalars
    (0-d arrays like the format version or the config JSON) are read
    normally; a compressed member (not produced by :func:`save_engine`,
    but legal zip) falls back to an in-memory read.
    """
    arrays: "dict[str, np.ndarray]" = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-4]
            if info.compress_type != zipfile.ZIP_STORED:
                with archive.open(info) as member:
                    arrays[name] = np.lib.format.read_array(
                        member, allow_pickle=False
                    )
                continue
            # data offset = local file header (30 bytes) + name + extra
            raw.seek(info.header_offset)
            local_header = raw.read(30)
            require(
                local_header[:4] == b"PK\x03\x04",
                f"corrupt zip member {info.filename!r} in {path}",
            )
            name_len = int.from_bytes(local_header[26:28], "little")
            extra_len = int.from_bytes(local_header[28:30], "little")
            raw.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(raw)
            read_header = {
                (1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0,
            }.get(version)
            require(
                read_header is not None,
                f"unsupported .npy header version {version} in {path}",
            )
            shape, fortran_order, dtype = read_header(raw)
            if len(shape) == 0 or dtype.hasobject:
                raw.seek(info.header_offset + 30 + name_len + extra_len)
                arrays[name] = np.lib.format.read_array(raw, allow_pickle=False)
                continue
            arrays[name] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=raw.tell(),
                shape=shape,
                order="F" if fortran_order else "C",
            )
    return arrays


def load_engine(path: "str | Path", mmap: bool = False):
    """Rehydrate an engine saved by :func:`save_engine`.

    The returned engine is a real
    :class:`~repro.core.effective_resistance.CholInvEffectiveResistance`
    (or, for a saved partitioned engine, a
    :class:`~repro.core.partitioned.PartitionedEngine` built from its saved
    pieces) whose ``query_pairs`` output is bit-identical to the
    saved one; its ``config`` attribute carries the settings it was built
    with so :class:`~repro.service.ResistanceService` can refresh it after
    graph edits.  With ``mmap=True`` the large arrays (``Z̃``
    data/indices, norms, permutation, graph edges) stay on disk as
    read-only memory maps, so many workers on one host share one copy of
    the pages.

    Every persisted factor is checked against its graph's node count
    ``n`` — ``perm`` an integer permutation of ``range(n)``, ``z_shape``
    ``(n, n)``, ``column_sq_norms`` and ``component_labels`` of length
    ``n`` — and so are the shard and component ids a partitioned archive
    lists; a failed check raises ``ValueError`` naming the member.
    """
    path = _npz_path(path)
    require(path.exists(), f"no saved engine at {path}")
    if mmap:
        return _engine_from_any(_mmap_npz_arrays(path))
    with np.load(path, allow_pickle=False) as data:
        return _engine_from_any(data)


def _engine_from_any(data):
    from repro.core.effective_resistance import CholInvEffectiveResistance

    version = int(data["format_version"])
    require(
        version <= FORMAT_VERSION,
        f"saved engine format v{version} is newer than supported "
        f"v{FORMAT_VERSION}",
    )
    kind = str(data["kind"]) if "kind" in data else "cholinv"  # v1: no kind
    config = _saved_config(data, version)
    if kind == "partitioned":
        return _partitioned_from_arrays(data, config)
    if kind == "landmark":
        return _landmark_from_arrays(data, config)
    require(kind == "cholinv", f"unknown saved engine kind {kind!r}")
    return _engine_from_arrays(data, config, CholInvEffectiveResistance)


def _saved_config(data, version: int) -> EngineConfig:
    """The archive's :class:`EngineConfig`, in the current form.

    Before v5 a config named its sharding as ``shard_strategy``, and
    before v4 also as a ``sharded`` flag: ``sharded: false`` with the old
    ``"component"`` default was an unsharded engine.  The strategy maps
    onto ``max_shard_nodes``: ``"none"`` is ``None``, ``"component"`` is
    the graph's node count (a cap no component exceeds) and
    ``"separator"`` keeps its stored cap, or ``max(512, ceil(n / 4))``
    over the whole graph if it stored none.  The stored ``separator``
    and ``lazy_shards`` are ignored: a loaded engine answers from its
    saved plan, so only a refresh plans again.  The old automatic cap
    was ``max(512, ceil(size / 4))`` per component, so a refresh of a
    multi-component archive without a stored cap may plan coarser
    regions (and answer differently) than the old code would have.
    """
    fields = json.loads(str(data["config_json"]))
    if version <= 4:
        strategy = fields.get("shard_strategy", "component")
        if version <= 3 and not fields.get("sharded", False) and strategy == "component":
            strategy = "none"
        n = int(data["num_nodes"])
        caps = {
            "none": None,
            "component": max(2, n),
            "separator": fields.get("max_shard_nodes") or max(512, -(-n // 4)),
        }
        require(strategy in caps, f"unknown saved shard_strategy {strategy!r}")
        fields["max_shard_nodes"] = caps[strategy]
    return EngineConfig.from_dict(fields)


def _landmark_from_arrays(data, config: EngineConfig):
    from repro.estimators.landmark import LandmarkEffectiveResistance

    graph = Graph(
        int(data["num_nodes"]),
        data["graph_heads"],
        data["graph_tails"],
        data["graph_weights"],
    )
    return LandmarkEffectiveResistance.from_state(
        graph=graph,
        config=config,
        u=data["u"],
        resid_sq=data["resid_sq"],
        dist_sq=data["dist_sq"],
        landmarks=data["landmarks"],
        component_labels=data["component_labels"],
        ground_value=float(data["ground_value"]),
    )


def _check_member(ok: bool, member: str, problem: str) -> None:
    require(ok, f"corrupt saved engine: archive member {member!r} {problem}")


def _check_factor_members(data, n: int, prefix: str = "") -> None:
    """Verify that a persisted Alg. 3 factor fits an ``n``-node graph.

    A refresh factors the edited graph on the persisted ``perm`` (see
    :meth:`~repro.core.effective_resistance.CholInvEffectiveResistance.rebuilt`),
    so a damaged permutation must fail here, at load, with the member
    named — not as wrong answers after the next edit.
    """
    shape = tuple(int(s) for s in np.asarray(data[prefix + "z_shape"]).ravel())
    _check_member(
        shape == (n, n), prefix + "z_shape", f"is {shape}, expected ({n}, {n})"
    )
    perm = np.asarray(data[prefix + "perm"])
    _check_member(
        perm.dtype.kind in "iu"
        and np.array_equal(np.sort(perm), np.arange(n)),
        prefix + "perm",
        f"is not an integer permutation of range({n})",
    )
    norms = np.asarray(data[prefix + "column_sq_norms"])
    _check_member(
        norms.shape == (n,),
        prefix + "column_sq_norms",
        f"has shape {norms.shape}, expected ({n},)",
    )
    _check_csc_members(data, n, prefix)


def _check_csc_members(data, n: int, prefix: str) -> None:
    """Verify that ``z_indptr`` / ``z_indices`` / ``z_data`` form a
    canonical ``n × n`` CSC matrix with finite values.

    The query kernel (:func:`~repro.linalg.sparse_utils.column_pair_dots`)
    reads these arrays without bounds checks and sizes its product
    buffer on a finite ``Z̃``, so damage must fail here, with the member
    named.
    """
    indptr = np.asarray(data[prefix + "z_indptr"])
    indices = np.asarray(data[prefix + "z_indices"])
    values = np.asarray(data[prefix + "z_data"])
    nnz = indices.shape[0] if indices.ndim == 1 else -1
    _check_member(
        indptr.dtype.kind in "iu"
        and indptr.shape == (n + 1,)
        and int(indptr[0]) == 0
        and int(indptr[-1]) == nnz
        and bool(np.all(indptr[1:] >= indptr[:-1])),
        prefix + "z_indptr",
        f"does not rise from 0 to len(z_indices) in {n + 1} steps",
    )
    _check_member(
        indices.dtype.kind in "iu"
        and (nnz == 0 or (int(indices.min()) >= 0 and int(indices.max()) < n)),
        prefix + "z_indices",
        f"holds a row id outside range({n})",
    )
    # rows must rise strictly inside each column; a column start may drop
    column_start = np.zeros(nnz + 1, dtype=bool)
    column_start[indptr] = True
    _check_member(
        bool(np.all((indices[1:] > indices[:-1]) | column_start[1:nnz])),
        prefix + "z_indices",
        "is not strictly increasing within a column",
    )
    _check_member(
        values.dtype.kind == "f"
        and values.shape == (nnz,)
        and bool(np.all(np.isfinite(values))),
        prefix + "z_data",
        f"is not {nnz} finite floating-point values",
    )


def _engine_from_arrays(data, config: EngineConfig, engine_cls):
    graph = Graph(
        int(data["num_nodes"]),
        data["graph_heads"],
        data["graph_tails"],
        data["graph_weights"],
    )
    n = graph.num_nodes
    _check_factor_members(data, n)
    labels = np.asarray(data["component_labels"])
    _check_member(
        labels.shape == (n,),
        "component_labels",
        f"has shape {labels.shape}, expected ({n},)",
    )
    z_tilde = sp.csc_matrix(
        (data["z_data"], data["z_indices"], data["z_indptr"]),
        shape=tuple(int(s) for s in data["z_shape"]),
    )
    stats = ApproxInverseStats(
        nnz=int(data["stats_nnz"]),
        n=int(data["stats_n"]),
        columns_truncated=int(data["stats_columns_truncated"]),
        columns_kept_whole=int(data["stats_columns_kept_whole"]),
    )
    return engine_cls.from_state(
        graph=graph,
        config=config,
        z_tilde=z_tilde,
        perm=data["perm"],
        column_sq_norms=data["column_sq_norms"],
        component_labels=data["component_labels"],
        stats=stats,
        ground_value=float(data["ground_value"]),
    )


def _partitioned_from_arrays(data, config: EngineConfig):
    """Rebuild a partitioned engine from its plan and its saved pieces.

    The plan is restored verbatim (no re-partitioning — the saved region
    layout is authoritative), region halo graphs are reconstructed
    deterministically from graph + plan, and each saved region factor is
    rehydrated through ``CholInvEffectiveResistance.from_state`` exactly
    like a monolithic save, with the region config the engine derives
    from ``config`` (a pre-v4 ``shard_config_json`` member is ignored).
    Regions and Schur systems absent from the file (a half-built v4
    ``lazy_shards`` archive, or a re-save of one) are built at load.
    """
    from repro.core.partitioned import PartitionedEngine, SavedParts, ShardPlan

    graph = Graph(
        int(data["num_nodes"]),
        data["graph_heads"],
        data["graph_tails"],
        data["graph_weights"],
    )
    plan = ShardPlan(
        num_shards=int(data["plan_num_shards"]),
        shard_of=np.asarray(data["plan_shard_of"], dtype=np.int64),
        component_labels=np.asarray(data["component_labels"], dtype=np.int64),
        num_components=int(data["plan_num_components"]),
        separator=np.asarray(data["plan_separator"], dtype=np.int64),
    )
    plan.validate(graph)
    # a singleton region (an isolated node) has no engine to save
    isolated = np.bincount(plan.component_labels)[plan.component_labels] == 1
    built = _saved_ids(
        data,
        "built_shards",
        np.setdiff1d(np.arange(plan.num_shards), plan.shard_of[isolated]),
        "non-singleton shard",
    )
    components = _saved_ids(
        data, "system_components", plan.split_components, "split component"
    )
    return PartitionedEngine(  # repro: ignore[registry-purity] — the restore path: build_engine cannot take the saved plan and pieces
        graph,
        config,
        plan=plan,
        saved=SavedParts(
            regions={
                shard: _region_loader(data, f"shard{shard}_") for shard in built
            },
            schurs={
                component: np.asarray(
                    data[f"sys{component}_schur"], dtype=np.float64
                )
                for component in components
            },
        ),
    )


def _saved_ids(data, member: str, allowed: np.ndarray, what: str) -> "list[int]":
    """The ids listed in ``member``, checked to be distinct ``allowed`` ones."""
    ids = np.asarray(data[member])
    _check_member(
        ids.ndim == 1 and ids.dtype.kind in "iu",
        member,
        "is not a 1-D integer array",
    )
    listed = ids.tolist()
    _check_member(
        len(set(listed)) == len(listed), member, f"repeats an id: {listed}"
    )
    stray = sorted(set(listed) - set(allowed.tolist()))
    _check_member(
        not stray,
        member,
        f"lists {stray}, which {'is' if len(stray) == 1 else 'are'} not a "
        f"{what} of the saved plan",
    )
    return listed


def _region_loader(data, prefix: str):
    """Loader for one saved region factor, given its halo graph."""
    from repro.core.effective_resistance import CholInvEffectiveResistance
    from repro.graphs.components import connected_components

    def load(halo: Graph, config: EngineConfig):
        _check_factor_members(data, halo.num_nodes, prefix)
        labels, _ = connected_components(halo)
        z_tilde = sp.csc_matrix(
            (
                data[prefix + "z_data"],
                data[prefix + "z_indices"],
                data[prefix + "z_indptr"],
            ),
            shape=tuple(int(s) for s in data[prefix + "z_shape"]),
        )
        stats = ApproxInverseStats(
            nnz=int(data[prefix + "stats_nnz"]),
            n=int(data[prefix + "stats_n"]),
            columns_truncated=int(data[prefix + "stats_columns_truncated"]),
            columns_kept_whole=int(data[prefix + "stats_columns_kept_whole"]),
        )
        return CholInvEffectiveResistance.from_state(
            graph=halo,
            config=config,
            z_tilde=z_tilde,
            perm=data[prefix + "perm"],
            column_sq_norms=data[prefix + "column_sq_norms"],
            component_labels=labels,
            stats=stats,
            ground_value=float(data[prefix + "ground_value"]),
        )

    return load
