"""Tests for the tiered-accuracy estimator engines (repro.estimators).

Covers the two subsystem guarantees:

* **determinism** — a seeded landmark pick draws all randomness from the
  config seed through ``np.random.default_rng``, so same-seed builds
  answer bit-identically;
* **bound containment** — the landmark tier's certified interval contains
  the cholinv-grade reference it is calibrated against.

The shared helpers of ``repro.estimators.base`` (weighted degrees and the
trivial-pair split every bounded tier starts from) are checked directly.

Escalation across tiers is the service router's job; its guarantees are
tested in ``tests/test_router.py``.
"""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, build_engine
from repro.estimators import LandmarkEffectiveResistance
from repro.estimators.base import split_trivial, weighted_degrees
from repro.estimators.landmark import select_landmarks
from repro.graphs.components import connected_components
from repro.graphs.generators import fe_mesh_2d
from repro.graphs.graph import Graph
from repro.graphs.laplacian import laplacian


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
    "landmark-random": EngineConfig(
        method="landmark", num_landmarks=6, landmark_strategy="random", seed=9
    ),
}


@pytest.mark.parametrize("name", sorted(STOCHASTIC_CONFIGS))
def test_same_seed_is_bit_identical(mesh, name):
    config = STOCHASTIC_CONFIGS[name]
    pairs = np.random.default_rng(4).integers(0, mesh.num_nodes, size=(40, 2))
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
    pairs = np.random.default_rng(4).integers(0, mesh.num_nodes, size=(60, 2))
    a = build_engine(mesh, config).query_pairs(pairs)
    b = build_engine(mesh, reseeded).query_pairs(pairs)
    assert not np.array_equal(a, b)


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
# shared helpers: weighted degrees and the trivial-pair split
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def two_triangles():
    """Two weighted triangles plus an isolated node (3 components)."""
    return Graph.from_edges(7, [
        (0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5),
        (3, 4, 3.0), (4, 5, 1.0), (3, 5, 4.0),
    ])


def test_weighted_degrees_is_the_laplacian_diagonal(mesh):
    np.testing.assert_allclose(
        weighted_degrees(mesh), laplacian(mesh).diagonal(), rtol=1e-14
    )


def test_weighted_degrees_sums_parallel_edges_and_zeroes_isolated_nodes():
    graph = Graph.from_edges(4, [(0, 1, 1.5), (1, 0, 2.5), (1, 2, 1.0)])
    np.testing.assert_array_equal(
        weighted_degrees(graph), [4.0, 5.0, 1.0, 0.0]
    )


def test_split_trivial_answers_the_diagonal_with_zero(two_triangles):
    labels, _ = connected_components(two_triangles)
    ps, qs, values, halves, active = split_trivial(
        labels, [(2, 2), (6, 6), (0, 1)]
    )
    np.testing.assert_array_equal(ps, [2, 6, 0])
    np.testing.assert_array_equal(qs, [2, 6, 1])
    np.testing.assert_array_equal(values, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(halves, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(active, [False, False, True])


def test_split_trivial_answers_cross_component_pairs_with_inf(two_triangles):
    labels, count = connected_components(two_triangles)
    assert count == 3
    _, _, values, halves, active = split_trivial(
        labels, [(0, 3), (5, 1), (2, 6), (4, 5)]
    )
    assert np.all(np.isinf(values[:3]))
    assert values[3] == 0.0
    np.testing.assert_array_equal(halves, np.zeros(4))
    np.testing.assert_array_equal(active, [False, False, False, True])


def test_split_trivial_leaves_only_active_rows_to_the_estimator(
    mesh, reference
):
    labels = reference.component_labels
    pairs = np.random.default_rng(8).integers(0, mesh.num_nodes, size=(200, 2))
    pairs[::7, 1] = pairs[::7, 0]
    ps, qs, values, halves, active = split_trivial(labels, pairs)
    np.testing.assert_array_equal(active, ps != qs)
    # the trivial rows already carry the exact answers
    truth = reference.query_pairs(pairs)
    np.testing.assert_array_equal(values[~active], truth[~active])
    assert not np.any(halves)


def test_split_trivial_empty_batch(mesh, reference):
    ps, qs, values, halves, active = split_trivial(
        reference.component_labels, np.empty((0, 2), dtype=np.int64)
    )
    for column in (ps, qs, values, halves, active):
        assert column.shape == (0,)
