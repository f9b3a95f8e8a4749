"""SLA-aware query routing across tiered-accuracy estimator engines.

A request may carry an :class:`SLA` — a relative error tolerance and/or a
latency budget.  The :class:`QueryRouter` owns a ladder of cheap bounded
engines (:mod:`repro.estimators`) plus a measured
:class:`CalibrationProfile`, and decides per pair which tier may serve it:

* **certified acceptance** — a bounded tier's half-width over its estimate
  (the *routing score*) is directly below ``rel_tol``;
* **calibrated acceptance** — the profile stores, per tier, the observed
  error against the exact engine as a function of the routing score on a
  calibration sample; :meth:`TierCalibration.threshold_for` inverts that
  (largest score whose prefix-max observed error stays under a safety
  margin of the tolerance), which routinely accepts far more pairs than
  the certified bound alone — the certified interval is loose exactly
  where the estimate is still good.  This acceptance is *empirical*:
  it bounds the error seen on the calibration sample, and pairs from a
  heavier error tail than the sample can exceed ``rel_tol`` — size the
  calibration sample like the traffic it has to vouch for;
* **latency veto** — with a ``latency_budget``, tiers whose measured
  per-pair cost cannot fit the remaining budget are skipped, and an
  exact-only request that cannot fit the budget downgrades to the most
  accurate tier that does.

Whatever no tier may keep **escalates**: the router reports those pairs
unserved and the service answers them through its normal exact path (and
only those answers enter the exact result cache).  A request with no SLA
never reaches the router at all — that path stays bit-identical to the
pre-router service.

The profile serialises to JSON next to a persisted engine
(:meth:`CalibrationProfile.default_path`), so a warm-started worker
routes with the same measured thresholds that were calibrated when the
engine was saved.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.engine import ResistanceEngine, as_pair_columns
from repro.estimators.base import BoundedResistanceEngine
from repro.utils.validation import require

_TINY = 1e-12
#: stay this fraction below the requested tolerance when inverting the
#: calibration curve — the sample is finite, so leave headroom
CALIBRATION_MARGIN = 0.8
#: never read a threshold off fewer calibration points than this — a
#: handful of samples says nothing about the error tail beyond them
MIN_CALIBRATION_SUPPORT = 32


@dataclass(frozen=True)
class SLA:
    """Per-request service-level agreement.

    ``rel_tol`` — maximum acceptable relative error versus the exact
    engine (``None`` = exact answers required).  ``latency_budget`` —
    target wall-clock seconds for the whole batch (``None`` = no limit).
    A default-constructed ``SLA()`` means "exact, no budget", which the
    service serves on its unchanged legacy path.
    """

    rel_tol: "float | None" = None
    latency_budget: "float | None" = None

    def __post_init__(self) -> None:
        require(
            self.rel_tol is None or self.rel_tol > 0.0,
            f"rel_tol must be None or > 0, got {self.rel_tol}",
        )
        require(
            self.latency_budget is None or self.latency_budget > 0.0,
            f"latency_budget must be None or > 0, got {self.latency_budget}",
        )

    @property
    def is_default(self) -> bool:
        return self.rel_tol is None and self.latency_budget is None


@dataclass
class TierCalibration:
    """Measured cost/error behaviour of one tier on a calibration sample.

    ``scores`` is the tier's routing score (half-width / |estimate|) on
    each calibration pair, sorted ascending; ``prefix_max_error`` is the
    running maximum of the observed relative error against the exact
    engine in that order.  Together they answer: *if I accept every pair
    scoring below ``tau``, what is the worst error I observed?*
    """

    tier: str
    scores: np.ndarray
    prefix_max_error: np.ndarray
    seconds_per_pair: float

    def threshold_for(
        self,
        rel_tol: float,
        margin: float = CALIBRATION_MARGIN,
        min_support: int = MIN_CALIBRATION_SUPPORT,
    ) -> "float | None":
        """Largest routing score whose observed error stays within
        ``margin * rel_tol`` on the calibration sample (``None`` if the
        tier never met the tolerance).

        The returned threshold is an *empirical* guarantee: it bounds the
        error observed on the calibration sample, not the error of every
        future pair — error tails heavier than the sample can exceed the
        tolerance.  ``min_support`` refuses thresholds backed by fewer
        calibration points than that, and a larger calibration sample is
        the lever that actually tightens the tail.
        """
        ok = self.prefix_max_error <= margin * rel_tol
        if not bool(ok.any()):
            return None
        index = int(np.max(np.flatnonzero(ok)))
        if index + 1 < min_support:
            return None
        return float(self.scores[index])

    def to_dict(self) -> "dict[str, Any]":
        return {
            "tier": self.tier,
            "scores": [float(s) for s in self.scores],
            "prefix_max_error": [float(e) for e in self.prefix_max_error],
            "seconds_per_pair": float(self.seconds_per_pair),
        }

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "TierCalibration":
        return cls(
            tier=str(data["tier"]),
            scores=np.asarray(data["scores"], dtype=np.float64),
            prefix_max_error=np.asarray(
                data["prefix_max_error"], dtype=np.float64
            ),
            seconds_per_pair=float(data["seconds_per_pair"]),
        )


@dataclass
class CalibrationProfile:
    """Per-engine measured costs and error curves, JSON-serialisable."""

    tiers: "dict[str, TierCalibration]" = field(default_factory=dict)
    exact_seconds_per_pair: float = 0.0
    num_samples: int = 0

    def to_dict(self) -> "dict[str, Any]":
        return {
            "format_version": 1,
            "exact_seconds_per_pair": float(self.exact_seconds_per_pair),
            "num_samples": int(self.num_samples),
            "tiers": {name: cal.to_dict() for name, cal in self.tiers.items()},
        }

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "CalibrationProfile":
        """Inverse of :meth:`to_dict`.

        A profile without one of the keys :meth:`to_dict` writes, or with
        a value of the wrong type, raises ``ValueError`` naming the key or
        the bad value.
        """
        try:
            return cls(
                tiers={
                    name: TierCalibration.from_dict(cal)
                    for name, cal in dict(data["tiers"]).items()
                },
                exact_seconds_per_pair=float(data["exact_seconds_per_pair"]),
                num_samples=int(data["num_samples"]),
            )
        except KeyError as exc:
            raise ValueError(f"calibration profile is missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"calibration profile is malformed: {exc}") from None

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "CalibrationProfile":
        """Read a profile :meth:`save` wrote; a file that is not JSON or
        not a profile raises ``ValueError`` naming the file."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except ValueError as exc:  # JSONDecodeError is a ValueError
            raise ValueError(f"calibration file {path}: {exc}") from None

    @staticmethod
    def default_path(engine_path: "str | Path") -> Path:
        """Sidecar location next to a persisted engine ``.npz``."""
        engine_path = Path(engine_path)
        return engine_path.with_name(engine_path.name + ".calibration.json")


def calibrate(
    exact_engine: ResistanceEngine,
    tier_engines: "Mapping[str, BoundedResistanceEngine]",
    num_pairs: int = 4096,
    seed: int = 0,
) -> CalibrationProfile:
    """Measure per-tier cost and score→error curves against the exact engine.

    Samples random same-component node pairs, answers them on the exact
    engine (timed) and on every tier (timed, with bounds), and records
    each tier's routing-score-ordered error curve.  Deterministic for a
    given engine/seed.

    The sample size is the accuracy lever of calibrated routing: the
    inverted curve only bounds errors *observed* on these pairs, so a
    sample too small to exhibit the tier's error tail yields thresholds
    that over-accept (see :meth:`TierCalibration.threshold_for`).  The
    default oversamples on purpose; calibration costs one exact batch.
    """
    require(num_pairs >= 1, "num_pairs must be >= 1")
    n = exact_engine.n
    labels = exact_engine.component_labels
    rng = np.random.default_rng(seed)
    # oversample: rejected rows (diagonal / cross-component) carry no
    # routing signal
    draw = rng.integers(0, n, size=(4 * num_pairs, 2))
    keep = (draw[:, 0] != draw[:, 1]) & (
        labels[draw[:, 0]] == labels[draw[:, 1]]
    )
    pairs = draw[keep][:num_pairs]
    require(
        pairs.shape[0] >= 1,
        "calibration found no non-trivial pairs to sample "
        "(graph too small or fully disconnected)",
    )
    start = time.perf_counter()
    reference = exact_engine.query_pairs(pairs)
    exact_seconds = (time.perf_counter() - start) / pairs.shape[0]
    scale = np.maximum(np.abs(reference), _TINY)
    profile = CalibrationProfile(
        exact_seconds_per_pair=exact_seconds, num_samples=int(pairs.shape[0])
    )
    for name, engine in tier_engines.items():
        start = time.perf_counter()
        values, halves = engine.query_pairs_with_bounds(pairs)
        tier_seconds = (time.perf_counter() - start) / pairs.shape[0]
        score = halves / np.maximum(np.abs(values), _TINY)
        error = np.abs(values - reference) / scale
        order = np.argsort(score, kind="stable")
        profile.tiers[name] = TierCalibration(
            tier=name,
            scores=score[order],
            prefix_max_error=np.maximum.accumulate(error[order]),
            seconds_per_pair=tier_seconds,
        )
    return profile


@dataclass
class RoutingResult:
    """Outcome of one :meth:`QueryRouter.serve` call."""

    values: np.ndarray
    half_widths: np.ndarray
    served: np.ndarray                    # bool: answered by some tier
    tier_rows: "dict[str, int]" = field(default_factory=dict)
    tier_seconds: "dict[str, float]" = field(default_factory=dict)

    @property
    def escalated(self) -> int:
        """Pairs no tier could keep — the service's exact path owns them."""
        return int(np.count_nonzero(~self.served))


class QueryRouter:
    """Routes pair batches across calibrated tiers to meet an SLA.

    Parameters
    ----------
    profile:
        Measured per-tier cost/error curves (see :func:`calibrate`).
    engines:
        Bounded tier engines by name; entries without a calibration in
        the profile are ignored (they cannot be routed safely).
    order:
        Ladder order, cheapest first; defaults to ``engines`` order.
    """

    def __init__(
        self,
        profile: CalibrationProfile,
        engines: "Mapping[str, BoundedResistanceEngine]",
        order: "tuple[str, ...] | None" = None,
    ):
        self.profile = profile
        self.engines = {
            name: engine
            for name, engine in engines.items()
            if name in profile.tiers
        }
        ladder = tuple(order) if order is not None else tuple(self.engines)
        self.order = tuple(name for name in ladder if name in self.engines)

    def serve(self, pairs: np.ndarray, sla: SLA) -> RoutingResult:
        """Answer what the tiers may keep under ``sla``; escalate the rest.

        Structural rows (diagonal / cross-component) score 0 on every
        bounded tier and are kept exactly; with no usable tier the whole
        batch escalates.
        """
        ps, qs = as_pair_columns(pairs)
        count = ps.shape[0]
        result = RoutingResult(
            values=np.zeros(count),
            half_widths=np.zeros(count),
            served=np.zeros(count, dtype=bool),
        )
        if count == 0:
            return result
        if sla.rel_tol is None:
            return self._serve_exact_or_downgrade(pairs, sla, result)
        remaining = np.arange(count)
        budget = sla.latency_budget
        spent = 0.0
        for name in self.order:
            if remaining.size == 0:
                break
            calibration = self.profile.tiers[name]
            if budget is not None and (
                spent + calibration.seconds_per_pair * remaining.size > budget
            ):
                continue  # this tier alone would blow the budget
            threshold = calibration.threshold_for(sla.rel_tol)
            cut = (
                sla.rel_tol
                if threshold is None
                else max(threshold, sla.rel_tol)
            )
            start = time.perf_counter()
            values, halves = self.engines[name].query_pairs_with_bounds(
                np.column_stack((ps[remaining], qs[remaining]))
            )
            elapsed = time.perf_counter() - start
            spent += elapsed
            score = halves / np.maximum(np.abs(values), _TINY)
            accept = score <= cut
            kept = remaining[accept]
            result.values[kept] = values[accept]
            result.half_widths[kept] = halves[accept]
            result.served[kept] = True
            result.tier_rows[name] = int(np.count_nonzero(accept))
            result.tier_seconds[name] = elapsed
            remaining = remaining[~accept]
        return result

    def _serve_exact_or_downgrade(
        self, pairs: np.ndarray, sla: SLA, result: RoutingResult
    ) -> RoutingResult:
        """Exact requested: escalate everything unless the latency budget
        cannot fit the exact path, in which case the most accurate tier
        that fits serves the whole batch (best effort)."""
        budget = sla.latency_budget
        count = result.values.shape[0]
        if budget is None:
            return result
        if self.profile.exact_seconds_per_pair * count <= budget:
            return result
        for name in reversed(self.order):
            calibration = self.profile.tiers[name]
            if calibration.seconds_per_pair * count > budget:
                continue
            start = time.perf_counter()
            values, halves = self.engines[name].query_pairs_with_bounds(pairs)
            elapsed = time.perf_counter() - start
            result.values[:] = values
            result.half_widths[:] = halves
            result.served[:] = True
            result.tier_rows[name] = count
            result.tier_seconds[name] = elapsed
            return result
        return result  # nothing fits; exact is the honest fallback
