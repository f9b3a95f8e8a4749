"""Round-trip regression test for config↔persistence drift.

The executable twin of the ``config-persistence-drift`` lint rule: build
a cholinv engine whose config sets a *non-default* value for every field
the engine registers, save it, load it, and compare field by field.  If
someone adds a registered param without teaching ``save_engine`` /
``from_state`` about it, the loaded config silently falls back to the
default — exactly the bug this test (and the rule) exists to catch.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.engine import (
    EngineConfig,
    build_engine,
    engine_params,
    registered_engines,
)
from repro.core.persistence import load_engine, save_engine
from repro.graphs.generators import fe_mesh_2d

# one deliberately non-default value per cholinv-registered field; the
# assertion below forces this dict to track the registration exactly
NON_DEFAULTS = {
    "epsilon": 2e-4,
    "drop_tol": 5e-4,
    "ordering": "natural",
    "mode": "reference",
    "small_column_threshold": 7.5,
    "ground_value": 1.25,
    "build_workers": 2,
}


@pytest.fixture(scope="module")
def mesh():
    return fe_mesh_2d(6, 6, seed=3)


def test_non_defaults_cover_registration_exactly():
    # adding a param to @register_engine("cholinv", ...) must force an
    # update here (and, transitively, in save_engine/from_state)
    assert set(NON_DEFAULTS) == set(engine_params("cholinv"))


def test_every_non_default_differs_from_the_default():
    defaults = EngineConfig()
    for name, value in NON_DEFAULTS.items():
        assert value != getattr(defaults, name), name


def test_cholinv_config_round_trips_field_by_field(mesh, tmp_path):
    config = EngineConfig(method="cholinv", **NON_DEFAULTS)
    engine = build_engine(mesh, config)
    restored = load_engine(save_engine(engine, tmp_path / "engine.npz"))
    assert restored.config is not None
    for field in ("method", *engine_params("cholinv")):
        assert getattr(restored.config, field) == getattr(config, field), (
            f"config field {field!r} did not survive save/load"
        )


def test_round_tripped_engine_answers_identically(mesh, tmp_path):
    engine = build_engine(mesh, EngineConfig(method="cholinv", **NON_DEFAULTS))
    restored = load_engine(save_engine(engine, tmp_path / "engine.npz"))
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, mesh.num_nodes, size=(32, 2))
    np.testing.assert_array_equal(
        engine.query_pairs(pairs), restored.query_pairs(pairs)
    )


def test_archive_with_removed_config_keys_loads_identically(mesh, tmp_path):
    # archives saved before the tier-ladder and walk/tree-tier fields were
    # removed still carry them in config_json; from_dict ignores unknown keys
    engine = build_engine(mesh, EngineConfig(method="cholinv", **NON_DEFAULTS))
    path = save_engine(engine, tmp_path / "engine.npz")
    data = dict(np.load(path, allow_pickle=False))
    fields = json.loads(str(data["config_json"]))
    fields.update(
        tiers=["landmark", "cholinv"], tier_rel_tol=0.05,
        num_walks=512, walk_length=32, num_trees=200,
    )
    data["config_json"] = np.asarray(json.dumps(fields))
    old = tmp_path / "old.npz"
    np.savez(old, **data)
    restored = load_engine(old)
    assert restored.config == engine.config
    pairs = np.random.default_rng(11).integers(0, mesh.num_nodes, size=(32, 2))
    assert engine.query_pairs(pairs).tobytes() == restored.query_pairs(pairs).tobytes()


def test_config_fields_are_a_superset_of_every_registration():
    # no engine may register a param EngineConfig doesn't carry (enforced
    # at registration time too; this pins it for all shipped engines)
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    for name in registered_engines():
        missing = set(engine_params(name)) - fields
        assert not missing, f"{name} registers unknown fields {sorted(missing)}"


def test_non_persistable_engines_say_so(mesh, tmp_path):
    for name in registered_engines():
        if name in ("cholinv", "landmark"):
            continue  # these persist; covered by the round-trip tests
        engine = build_engine(mesh, EngineConfig(method=name, seed=0))
        with pytest.raises(NotImplementedError):
            engine.save(tmp_path / f"{name}.npz")


# ----------------------------------------------------------------------
# landmark engine: the second persisted kind, same drill
# ----------------------------------------------------------------------

LANDMARK_NON_DEFAULTS = {
    "num_landmarks": 5,
    "landmark_strategy": "random",
    "seed": 7,
    "epsilon": 2e-4,
    "drop_tol": 5e-4,
    "ordering": "natural",
    "mode": "reference",
    "small_column_threshold": 7.5,
    "ground_value": 1.25,
    "build_workers": 2,
}


def test_landmark_non_defaults_cover_registration_exactly():
    assert set(LANDMARK_NON_DEFAULTS) == set(engine_params("landmark"))


def test_landmark_non_defaults_differ_from_defaults():
    defaults = EngineConfig()
    for name, value in LANDMARK_NON_DEFAULTS.items():
        assert value != getattr(defaults, name), name


def test_landmark_config_round_trips_field_by_field(mesh, tmp_path):
    config = EngineConfig(method="landmark", **LANDMARK_NON_DEFAULTS)
    engine = build_engine(mesh, config)
    restored = load_engine(save_engine(engine, tmp_path / "landmark.npz"))
    assert restored.config is not None
    for field in ("method", *engine_params("landmark")):
        assert getattr(restored.config, field) == getattr(config, field), (
            f"config field {field!r} did not survive save/load"
        )


def test_landmark_round_trip_answers_identically(mesh, tmp_path):
    engine = build_engine(
        mesh, EngineConfig(method="landmark", **LANDMARK_NON_DEFAULTS)
    )
    restored = load_engine(save_engine(engine, tmp_path / "landmark.npz"))
    rng = np.random.default_rng(12)
    pairs = rng.integers(0, mesh.num_nodes, size=(32, 2))
    values, halves = engine.query_pairs_with_bounds(pairs)
    restored_values, restored_halves = restored.query_pairs_with_bounds(pairs)
    np.testing.assert_array_equal(values, restored_values)
    np.testing.assert_array_equal(halves, restored_halves)
