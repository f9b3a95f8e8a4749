"""Tests for SLA routing (repro.service.router + service wiring).

The four router-semantics guarantees:

* a request with no SLA is served bit-identically to a service without
  tiers (the router is never consulted);
* tolerance violations escalate — pairs a tier cannot keep within
  ``rel_tol`` flow through the normal exact path;
* mixed-SLA traffic splits per tier: the async front-end groups requests
  by SLA, and each batch's report records who served what;
* cached exact results short-circuit — a warm result table answers before
  any tier runs, and tier answers never enter that cache.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import EngineConfig, build_engine
from repro.estimators.landmark import LandmarkEffectiveResistance
from repro.graphs.generators import fe_mesh_2d, grid_2d
from repro.service import (
    SLA,
    AsyncResistanceService,
    CalibrationProfile,
    QueryRouter,
    ResistanceService,
    TierCalibration,
    calibrate,
)


@pytest.fixture(scope="module")
def mesh():
    return fe_mesh_2d(9, 10, seed=4)


@pytest.fixture(scope="module")
def pairs(mesh):
    rng = np.random.default_rng(0)
    return rng.integers(0, mesh.num_nodes, size=(250, 2))


@pytest.fixture
def service(mesh):
    return ResistanceService(mesh, config=EngineConfig(num_landmarks=24, seed=0))


# ----------------------------------------------------------------------
# SLA / calibration plumbing
# ----------------------------------------------------------------------

def test_sla_validation():
    assert SLA().is_default
    assert not SLA(rel_tol=0.1).is_default
    with pytest.raises(ValueError):
        SLA(rel_tol=0.0)
    with pytest.raises(ValueError):
        SLA(latency_budget=-1.0)


def test_threshold_inverts_the_error_curve():
    calibration = TierCalibration(
        tier="landmark",
        scores=np.array([0.01, 0.1, 0.5]),
        prefix_max_error=np.array([0.001, 0.02, 0.5]),
        seconds_per_pair=1e-6,
    )
    # margin 0.8: target 0.04 admits the first two scores
    assert calibration.threshold_for(0.05, min_support=1) == pytest.approx(0.1)
    # nothing on the curve is good enough for a 5e-4 tolerance
    assert calibration.threshold_for(5e-4, min_support=1) is None
    assert calibration.threshold_for(10.0, min_support=1) == pytest.approx(0.5)
    # default support requirement refuses a three-point curve outright:
    # a threshold read off a handful of samples says nothing about the tail
    assert calibration.threshold_for(10.0) is None


def test_calibration_profile_round_trips_through_json(service, tmp_path):
    profile = service.enable_tiers(tiers=("landmark",), calibration_pairs=256)
    assert "landmark" in profile.tiers and profile.num_samples > 0
    path = profile.save(tmp_path / "engine.npz.calibration.json")
    loaded = CalibrationProfile.load(path)
    assert loaded.to_dict() == profile.to_dict()
    original = profile.tiers["landmark"]
    restored = loaded.tiers["landmark"]
    np.testing.assert_array_equal(original.scores, restored.scores)
    np.testing.assert_array_equal(
        original.prefix_max_error, restored.prefix_max_error
    )


def test_default_sidecar_path():
    assert str(CalibrationProfile.default_path("/x/engine.npz")).endswith(
        "engine.npz.calibration.json"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"tiers": {}}', "missing key 'exact_seconds_per_pair'"),
        ('{"exact_seconds_per_pair": 1e-6, "num_samples": 4}', "missing key 'tiers'"),
        (
            '{"tiers": {"landmark": {"tier": "landmark"}}, '
            '"exact_seconds_per_pair": 1e-6, "num_samples": 4}',
            "missing key 'scores'",
        ),
        ('{"tiers": 5, "exact_seconds_per_pair": 1e-6, "num_samples": 4}', "malformed"),
        ("not json", "Expecting value: line 1 column 1"),
        ("[1, 2]", "malformed"),
    ],
)
def test_malformed_calibration_file_names_the_file_and_the_fault(
    tmp_path, text, message
):
    path = tmp_path / "engine.npz.calibration.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        CalibrationProfile.load(path)
    assert str(info.value).startswith(f"calibration file {path}: ")
    assert message in str(info.value)


# ----------------------------------------------------------------------
# router semantics
# ----------------------------------------------------------------------

def test_no_sla_is_bit_identical_to_exact(service, mesh, pairs):
    plain = ResistanceService(mesh, config=EngineConfig(num_landmarks=24, seed=0))
    baseline = plain.query_pairs(pairs)
    service.enable_tiers(tiers=("landmark",), calibration_pairs=256)
    np.testing.assert_array_equal(service.query_pairs(pairs), baseline)
    # and the report shows no tier accounting at all on the plain path
    _, report = service.query_pairs_with_report(pairs)
    assert report.tier_rows == {}
    assert all(t.tier == "exact" for t in report.subbatch_timings)


def test_sla_within_tolerance_and_violations_escalate(mesh, pairs):
    # few landmarks → wide intervals → plenty of escalation at 1%
    service = ResistanceService(
        mesh, config=EngineConfig(num_landmarks=4, seed=0),
        result_cache_size=0,
    )
    truth = service.query_pairs(pairs)
    service.enable_tiers(tiers=("landmark",), calibration_pairs=256)
    rel_tol = 0.01
    values, report = service.query_pairs_with_report(pairs, rel_tol=rel_tol)
    finite = np.isfinite(truth) & (truth > 0)
    rel = np.abs(values[finite] - truth[finite]) / truth[finite]
    assert rel.max() <= rel_tol
    assert report.tier_rows.get("exact", 0) > 0          # violations escalated
    assert report.tier_rows.get("landmark", 0) > 0       # easy pairs kept
    tiers_seen = {t.tier for t in report.subbatch_timings}
    assert {"landmark", "exact"} <= tiers_seen
    assert report.unique_misses == sum(report.tier_rows.values())


def test_sla_without_tiers_raises(service, pairs):
    with pytest.raises(ValueError, match="enable_tiers"):
        service.query_pairs(pairs, rel_tol=0.1)


# ----------------------------------------------------------------------
# tier ladders: shared factor, coarse first tier, exact escalation
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid():
    return grid_2d(6, 6, seed=0)


@pytest.fixture(scope="module")
def grid_pairs(grid):
    # edge pairs, then random pairs (some with p == q)
    rng = np.random.default_rng(1)
    non_edges = rng.integers(0, grid.num_nodes, size=(20, 2))
    return np.concatenate([grid.edge_array()[:20], non_edges])


@pytest.fixture(scope="module")
def landmark_service(grid):
    # no result cache: exact answers of one test never pre-answer another
    service = ResistanceService(
        grid,
        config=EngineConfig(num_landmarks=4, seed=0),
        result_cache_size=0,
    )
    service.enable_tiers(tiers=("landmark",))
    return service


def _max_rel_error(values, truth):
    finite = np.isfinite(truth) & (truth > 0)
    return np.max(np.abs(values[finite] - truth[finite]) / truth[finite])


def _certify_only(name):
    """A calibration too short to vouch for anything: the router keeps
    exactly the rows the tier's own bound certifies."""
    return TierCalibration(
        tier=name,
        scores=np.array([0.0, 1.0]),
        prefix_max_error=np.array([0.0, 1.0]),
        seconds_per_pair=1e-9,
    )


def test_landmark_tier_shares_the_served_factor(grid):
    service = ResistanceService(grid, config=EngineConfig(num_landmarks=4, seed=0))
    service.enable_tiers(tiers=("landmark",))
    tier = service._router.engines["landmark"]
    assert isinstance(tier, LandmarkEffectiveResistance)
    assert tier.base_engine is service.engine


def test_coarse_tier_serves_first_within_tolerance(grid, grid_pairs):
    engine = build_engine(grid, EngineConfig())
    coarse = LandmarkEffectiveResistance.from_base_engine(engine, num_landmarks=4)
    fine = LandmarkEffectiveResistance.from_base_engine(
        engine, num_landmarks=grid.num_nodes
    )
    seen = []
    fine_bounds = fine.query_pairs_with_bounds

    def recording(pairs):
        seen.append(np.array(pairs))
        return fine_bounds(pairs)

    fine.query_pairs_with_bounds = recording
    profile = CalibrationProfile(
        tiers={"coarse": _certify_only("coarse"), "fine": _certify_only("fine")},
        exact_seconds_per_pair=1e-6,
        num_samples=2,
    )
    router = QueryRouter(
        profile, {"coarse": coarse, "fine": fine}, order=("coarse", "fine")
    )
    rel_tol = 0.2
    result = router.serve(grid_pairs, SLA(rel_tol=rel_tol))
    values, halves = coarse.query_pairs_with_bounds(grid_pairs)
    certified = halves <= rel_tol * np.maximum(np.abs(values), 1e-300)
    kept = int(np.count_nonzero(certified))
    assert 0 < kept < grid_pairs.shape[0]
    # the first tier keeps exactly what it certifies, bit for bit ...
    assert result.values[certified].tobytes() == values[certified].tobytes()
    # ... and only the rest reaches the (full-rank, near-exact) second tier
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], grid_pairs[~certified])
    assert result.tier_rows == {"coarse": kept, "fine": grid_pairs.shape[0] - kept}
    assert result.served.all()
    truth = engine.query_pairs(grid_pairs)
    assert _max_rel_error(result.values, truth) <= rel_tol


def test_tight_tolerance_matches_the_exact_engine(landmark_service, grid_pairs):
    values, report = landmark_service.query_pairs_with_report(
        grid_pairs, rel_tol=1e-9
    )
    truth = landmark_service.engine.query_pairs(grid_pairs)
    finite = np.isfinite(truth)
    np.testing.assert_allclose(values[finite], truth[finite], rtol=2e-9)
    assert report.tier_rows.get("exact", 0) > 0  # uncertifiable pairs escalated


def test_profile_missing_a_requested_tier_is_rejected(grid):
    # a profile calibrated for other tiers (e.g. a sidecar saved with a
    # different ladder) used to install a router with an empty ladder, so
    # every SLA pair silently escalated
    service = ResistanceService(grid, config=EngineConfig(num_landmarks=4, seed=0))
    fresh = service.enable_tiers(tiers=("landmark",), calibration_pairs=128)
    service._router = None
    stale = CalibrationProfile(
        tiers={"spanning_tree": dataclasses.replace(
            fresh.tiers["landmark"], tier="spanning_tree"
        )},
        exact_seconds_per_pair=fresh.exact_seconds_per_pair,
        num_samples=fresh.num_samples,
    )
    with pytest.raises(
        ValueError, match="does not cover tier.*'landmark'.*'spanning_tree'"
    ):
        service.enable_tiers(tiers=("landmark",), profile=stale)
    assert service._router is None
    # the fresh profile still installs
    service.enable_tiers(tiers=("landmark",), profile=fresh)
    assert service._router.order == ("landmark",)


def test_profile_covering_more_tiers_installs_only_the_requested(grid):
    service = ResistanceService(grid, config=EngineConfig(num_landmarks=4, seed=0))
    fresh = service.enable_tiers(tiers=("landmark",), calibration_pairs=128)
    service._router = None
    wider = CalibrationProfile(
        tiers={
            **fresh.tiers,
            "other": dataclasses.replace(fresh.tiers["landmark"], tier="other"),
        },
        exact_seconds_per_pair=fresh.exact_seconds_per_pair,
        num_samples=fresh.num_samples,
    )
    assert service.enable_tiers(tiers=("landmark",), profile=wider) is wider
    assert service._router.order == ("landmark",)
    assert set(service._router.engines) == {"landmark"}


@pytest.mark.parametrize("name", ["local_walk", "spanning_tree", "bogus"])
def test_unregistered_tier_is_rejected(grid, name):
    # local_walk and spanning_tree were tiers once; they are no engines now
    service = ResistanceService(grid, config=EngineConfig(num_landmarks=4, seed=0))
    with pytest.raises(ValueError, match=f"unknown method '{name}'"):
        service.enable_tiers(tiers=(name,))
    assert service._router is None


def test_empty_tier_ladder_is_rejected(grid):
    service = ResistanceService(grid, config=EngineConfig(num_landmarks=4, seed=0))
    with pytest.raises(ValueError, match="need at least one tier"):
        service.enable_tiers(tiers=())
    assert service._router is None


def test_served_engine_is_not_a_tier(grid):
    service = ResistanceService(grid, config=EngineConfig(num_landmarks=4, seed=0))
    with pytest.raises(ValueError, match="'cholinv' is the service's exact engine"):
        service.enable_tiers(tiers=("cholinv",))
    assert service._router is None


def test_tier_without_error_bounds_is_rejected(grid):
    service = ResistanceService(grid, config=EngineConfig(num_landmarks=4, seed=0))
    with pytest.raises(ValueError, match="'exact' reports no error bounds"):
        service.enable_tiers(tiers=("landmark", "exact"))
    assert service._router is None


@pytest.mark.parametrize("sharding", ["component", "separator"])
def test_sharded_service_rejects_tiers_naming_the_cap(grid, sharding):
    # the tier would be a sharded composite without error bounds; the
    # message must point at the sharding, not at the tier
    cap = grid.num_nodes if sharding == "component" else grid.num_nodes // 4
    service = ResistanceService(grid, config=EngineConfig(max_shard_nodes=cap))
    with pytest.raises(ValueError, match=f"max_shard_nodes={cap};"):
        service.enable_tiers(tiers=("landmark",))
    assert service._router is None


def test_refresh_drops_the_router(service, mesh, pairs):
    service.enable_tiers(tiers=("landmark",), calibration_pairs=128)
    service.query_pairs(pairs, rel_tol=0.25)
    far = mesh.num_nodes - 1
    service.refresh_after_edge_update(edges=[(0, far)], weights=[1.0])
    with pytest.raises(ValueError, match="enable_tiers"):
        service.query_pairs(pairs, rel_tol=0.25)
    # re-enabling against the rebuilt engine works
    service.enable_tiers(tiers=("landmark",), calibration_pairs=128)
    assert service.query_pairs(pairs, rel_tol=0.25).shape == (pairs.shape[0],)


def test_cached_exact_results_short_circuit(service, pairs):
    service.enable_tiers(tiers=("landmark",), calibration_pairs=256)
    exact = service.query_pairs(pairs)            # warms the result table
    values, report = service.query_pairs_with_report(pairs, rel_tol=0.25)
    # every non-trivial pair came from the cache: nothing routed, nothing
    # escalated, and the answers are the cached exact ones bit-for-bit
    np.testing.assert_array_equal(values, exact)
    assert report.unique_misses == 0
    assert report.cache_hit_rows > 0
    assert report.tier_rows.get("landmark", 0) == 0


def test_tier_answers_never_enter_the_exact_cache(mesh, pairs):
    service = ResistanceService(mesh, config=EngineConfig(num_landmarks=24, seed=0))
    reference = ResistanceService(
        mesh, config=EngineConfig(num_landmarks=24, seed=0)
    ).query_pairs(pairs)
    service.enable_tiers(tiers=("landmark",), calibration_pairs=256)
    _, report = service.query_pairs_with_report(pairs, rel_tol=0.5)
    assert report.tier_rows.get("landmark", 0) > 0  # something was approximate
    # a later plain request must see exact answers, not cached approximations
    np.testing.assert_array_equal(service.query_pairs(pairs), reference)


def test_latency_budget_downgrades_exact_requests(mesh, pairs):
    engine = build_engine(mesh, EngineConfig())
    landmark = LandmarkEffectiveResistance.from_base_engine(
        engine, num_landmarks=24
    )
    # handcrafted profile so the budget decision is deterministic: exact
    # is "slow" (1 s/pair), the landmark tier is "fast"
    profile = CalibrationProfile(
        tiers={
            "landmark": TierCalibration(
                tier="landmark",
                scores=np.array([0.0, 1.0]),
                prefix_max_error=np.array([0.0, 0.1]),
                seconds_per_pair=1e-9,
            )
        },
        exact_seconds_per_pair=1.0,
        num_samples=2,
    )
    router = QueryRouter(profile, {"landmark": landmark})
    batch = pairs[:64]
    # budget too small for exact → the most accurate fitting tier serves all
    tight = router.serve(batch, SLA(latency_budget=0.5))
    assert bool(tight.served.all())
    assert tight.tier_rows == {"landmark": batch.shape[0]}
    # generous budget → exact fits → everything escalates untouched
    loose = router.serve(batch, SLA(latency_budget=1e6))
    assert not loose.served.any() and loose.tier_rows == {}
    # impossible budget → nothing fits → exact is the honest fallback
    hopeless = QueryRouter(
        CalibrationProfile(
            tiers=dict(profile.tiers),
            exact_seconds_per_pair=1.0,
            num_samples=2,
        ),
        {"landmark": landmark},
    )
    hopeless.profile.tiers["landmark"].seconds_per_pair = 1e6
    assert not hopeless.serve(batch, SLA(latency_budget=1e-3)).served.any()


def test_latency_budget_vetoes_slow_tiers_under_rel_tol(mesh, pairs):
    engine = build_engine(mesh, EngineConfig())
    landmark = LandmarkEffectiveResistance.from_base_engine(
        engine, num_landmarks=24
    )
    slow = TierCalibration(
        tier="landmark",
        scores=np.array([0.0, 1.0]),
        prefix_max_error=np.array([0.0, 0.0]),
        seconds_per_pair=1e6,       # would accept everything, but too slow
    )
    profile = CalibrationProfile(
        tiers={"landmark": slow}, exact_seconds_per_pair=1.0, num_samples=2
    )
    router = QueryRouter(profile, {"landmark": landmark})
    result = router.serve(pairs[:32], SLA(rel_tol=0.5, latency_budget=1e-3))
    assert not result.served.any()  # the tier was vetoed, all escalate


def test_calibrate_measures_every_tier(mesh):
    engine = build_engine(mesh, EngineConfig())
    tiers = {
        "landmark": LandmarkEffectiveResistance.from_base_engine(
            engine, num_landmarks=12
        )
    }
    profile = calibrate(engine, tiers, num_pairs=128, seed=1)
    calibration = profile.tiers["landmark"]
    assert calibration.scores.shape == calibration.prefix_max_error.shape
    assert np.all(np.diff(calibration.scores) >= 0)           # sorted
    assert np.all(np.diff(calibration.prefix_max_error) >= 0)  # prefix max
    assert profile.exact_seconds_per_pair > 0
    assert calibration.seconds_per_pair > 0


# ----------------------------------------------------------------------
# async front-end: mixed-SLA batches split per tier
# ----------------------------------------------------------------------

def test_async_mixed_sla_batches_split_per_tier(mesh, pairs):
    # cache disabled so the no-SLA batch cannot pre-answer the SLA ones
    service = ResistanceService(
        mesh, config=EngineConfig(num_landmarks=24, seed=0),
        result_cache_size=0,
    )
    baseline = ResistanceService(
        mesh, config=EngineConfig(num_landmarks=24, seed=0)
    ).query_pairs(pairs)
    service.enable_tiers(tiers=("landmark",), calibration_pairs=256)
    with AsyncResistanceService(service, batch_window=0.05) as front:
        exact_future = front.submit(pairs)
        loose_a = front.submit(pairs, rel_tol=0.5)
        loose_b = front.submit(pairs[:50], rel_tol=0.5)
        tight = front.submit(pairs, rel_tol=1e-9)
        exact_values = exact_future.result()
        loose_a.result(), loose_b.result(), tight.result()
        # 3 distinct SLAs → 3 engine batches, though 4 requests were queued
        assert front.stats.batches == 3
        assert front.stats.requests == 4
        reports = list(front.reports)
    np.testing.assert_array_equal(exact_values, baseline)
    no_sla = [r for r in reports if not r.tier_rows]
    routed = [r for r in reports if r.tier_rows]
    assert len(no_sla) == 1 and len(routed) == 2
    assert any(r.tier_rows.get("landmark", 0) > 0 for r in routed)
