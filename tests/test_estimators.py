"""Tests for the tiered-accuracy estimator engines (repro.estimators).

Covers the three subsystem guarantees:

* **determinism** — every stochastic estimator draws all randomness from
  its config seed through ``np.random.default_rng``, so same-seed builds
  answer bit-identically (and the local-walk estimator is additionally
  batch-order independent, its RNG being keyed per pair);
* **bound containment** — the landmark tier's certified interval contains
  the cholinv-grade reference it is calibrated against;
* **cut floor** — Monte-Carlo answers never fall below the singleton-cut
  lower bound.

Escalation across tiers is the service router's job; its guarantees are
tested in ``tests/test_router.py``.
"""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, build_engine
from repro.estimators import (
    LandmarkEffectiveResistance,
    LocalWalkEffectiveResistance,
)
from repro.estimators.landmark import select_landmarks
from repro.graphs.generators import fe_mesh_2d


@pytest.fixture(scope="module")
def mesh():
    return fe_mesh_2d(8, 9, seed=2)


@pytest.fixture(scope="module")
def reference(mesh):
    """The cholinv-grade engine the tiers promise to agree with."""
    return build_engine(mesh, EngineConfig())


# ----------------------------------------------------------------------
# determinism: same seed → bit-identical answers, per stochastic tier
# ----------------------------------------------------------------------

STOCHASTIC_CONFIGS = {
    "local_walk": EngineConfig(
        method="local_walk", num_walks=64, walk_length=16, seed=9
    ),
    "spanning_tree": EngineConfig(method="spanning_tree", num_trees=40, seed=9),
    "landmark-random": EngineConfig(
        method="landmark", num_landmarks=6, landmark_strategy="random", seed=9
    ),
}


@pytest.mark.parametrize("name", sorted(STOCHASTIC_CONFIGS))
def test_same_seed_is_bit_identical(mesh, name):
    config = STOCHASTIC_CONFIGS[name]
    rng = np.random.default_rng(4)
    if name == "spanning_tree":
        pairs = mesh.edge_array()[:40]
    else:
        pairs = rng.integers(0, mesh.num_nodes, size=(40, 2))
    first = build_engine(mesh, config)
    second = build_engine(mesh, config)
    values_a, halves_a = first.query_pairs_with_bounds(pairs)
    values_b, halves_b = second.query_pairs_with_bounds(pairs)
    np.testing.assert_array_equal(values_a, values_b)
    np.testing.assert_array_equal(halves_a, halves_b)


@pytest.mark.parametrize("name", sorted(STOCHASTIC_CONFIGS))
def test_different_seed_changes_something(mesh, name):
    config = STOCHASTIC_CONFIGS[name]
    reseeded = config.replace(seed=10)
    if name == "spanning_tree":
        pairs = mesh.edge_array()[:60]
    else:
        pairs = np.random.default_rng(4).integers(
            0, mesh.num_nodes, size=(60, 2)
        )
    a = build_engine(mesh, config).query_pairs(pairs)
    b = build_engine(mesh, reseeded).query_pairs(pairs)
    assert not np.array_equal(a, b)


def test_local_walk_is_batch_order_independent(mesh):
    """The walk RNG is keyed per (seed, lo, hi), so a pair's answer does
    not depend on where in a batch it appears or what accompanies it."""
    engine = build_engine(
        mesh, EngineConfig(method="local_walk", num_walks=32,
                           walk_length=12, seed=3)
    )
    pairs = np.array([(0, 5), (2, 9), (11, 40), (5, 0)])
    batched = engine.query_pairs(pairs)
    # reversed order, plus noise pairs interleaved
    shuffled = engine.query_pairs(
        np.array([(11, 40), (1, 2), (9, 2), (0, 5), (3, 4)])
    )
    assert batched[2] == shuffled[0]
    assert batched[1] == shuffled[2]  # and symmetric: (2,9) == (9,2)
    assert batched[0] == shuffled[3]
    assert batched[0] == batched[3]  # (0,5) == (5,0) inside one batch


# ----------------------------------------------------------------------
# landmark tier: certified containment of the cholinv-grade reference
# ----------------------------------------------------------------------

def test_landmark_bounds_contain_reference(mesh, reference):
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, mesh.num_nodes, size=(300, 2))
    truth = reference.query_pairs(pairs)
    for k in (4, 12, 32):
        engine = LandmarkEffectiveResistance.from_base_engine(
            reference, num_landmarks=k
        )
        values, halves = engine.query_pairs_with_bounds(pairs)
        assert np.all(truth >= values - halves - 1e-12)
        assert np.all(truth <= values + halves + 1e-12)
        finite = np.isfinite(values)
        off_diagonal = finite & (pairs[:, 0] != pairs[:, 1])
        assert np.all(values[off_diagonal] > 0)


def test_landmark_full_rank_is_near_exact(reference):
    """With every node a landmark the projection spans all of Z̃, so the
    estimate collapses onto the reference and the interval onto a point."""
    engine = LandmarkEffectiveResistance.from_base_engine(
        reference, num_landmarks=reference.n
    )
    pairs = np.random.default_rng(5).integers(0, reference.n, size=(100, 2))
    values, halves = engine.query_pairs_with_bounds(pairs)
    truth = reference.query_pairs(pairs)
    finite = np.isfinite(truth)
    np.testing.assert_allclose(values[finite], truth[finite],
                               rtol=1e-8, atol=1e-10)
    scale = np.maximum(np.abs(truth[finite]), 1e-12)
    assert np.max(halves[finite] / scale) < 1e-6


def test_landmark_strategies_and_clamping(mesh):
    n = mesh.num_nodes
    for strategy in ("degree", "random", "spread"):
        picked = select_landmarks(mesh, 5, strategy, seed=0)
        assert picked.shape == (5,)
        assert np.unique(picked).size == 5
    # count clamps to n instead of failing
    assert select_landmarks(mesh, 10 * n, "degree", seed=0).shape == (n,)


def test_landmark_query_chunking_matches_unchunked(mesh, reference, monkeypatch):
    engine = LandmarkEffectiveResistance.from_base_engine(
        reference, num_landmarks=8
    )
    pairs = np.random.default_rng(6).integers(0, mesh.num_nodes, size=(50, 2))
    whole = engine.query_pairs_with_bounds(pairs)
    monkeypatch.setattr("repro.estimators.landmark._QUERY_CHUNK", 7)
    chunked = engine.query_pairs_with_bounds(pairs)
    np.testing.assert_array_equal(whole[0], chunked[0])
    np.testing.assert_array_equal(whole[1], chunked[1])


# ----------------------------------------------------------------------
# local-walk tier: statistical sanity on an analytic case
# ----------------------------------------------------------------------

def test_local_walk_on_path_graph_is_roughly_right():
    from repro.graphs.graph import Graph

    path = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    engine = LocalWalkEffectiveResistance(
        path, num_walks=2048, walk_length=256, seed=0
    )
    values, halves = engine.query_pairs_with_bounds([(0, 1), (1, 4)])
    # unit resistors in series: R(0,1) = 1, R(1,4) = 3
    assert values[0] == pytest.approx(1.0, rel=0.25)
    assert values[1] == pytest.approx(3.0, rel=0.25)
    assert np.all(halves > 0) and np.all(np.isfinite(halves))


def test_local_walk_respects_cut_floor(mesh):
    engine = build_engine(
        mesh, EngineConfig(method="local_walk", num_walks=8,
                           walk_length=4, seed=1)
    )
    from repro.estimators.base import resistance_floor, weighted_degrees

    pairs = np.random.default_rng(2).integers(0, mesh.num_nodes, size=(80, 2))
    values = engine.query_pairs(pairs)
    wdeg = weighted_degrees(mesh)
    floor = resistance_floor(wdeg, pairs[:, 0], pairs[:, 1])
    active = pairs[:, 0] != pairs[:, 1]
    assert np.all(values[active] >= floor[active] - 1e-15)
