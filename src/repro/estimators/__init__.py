"""Tiered-accuracy effective-resistance estimators.

The engines in :mod:`repro.core` are exact-grade: every answer costs a
factor solve (``exact``) or a sparse column product over the approximate
inverse (``cholinv``).  This package adds the cheap-but-bounded tiers the
ROADMAP's "tiered accuracy serving" item calls for — each one a regular
:class:`~repro.core.engine.ResistanceEngine` registered with the engine
registry, plus a per-pair *error bound* so the service's router can
decide whether the cheap answer is good enough:

* :class:`~repro.estimators.landmark.LandmarkEffectiveResistance`
  (``"landmark"``) — index ``k`` landmark nodes, project every ``Z̃``
  column onto the landmark subspace once, then answer any pair from two
  ``k``-vectors with a certified interval (triangle inequalities in the
  embedding, Improved Algorithms for ER Computation / PAPERS.md);
* :class:`~repro.estimators.local_walk.LocalWalkEffectiveResistance`
  (``"local_walk"``) — seeded bidirectional lazy random walks with
  variance-based confidence intervals; no factorisation at all, so it
  serves single pairs on graphs nothing else has been built for
  (Efficient Estimation of Pairwise ER / PAPERS.md).

The shared bounds protocol lives in :mod:`repro.estimators.base`; the
SLA-aware router that drives these tiers inside a service — and
escalates what they cannot certify to the service's exact engine — is
:class:`~repro.service.router.QueryRouter`.
"""

from repro.estimators.base import BoundedResistanceEngine
from repro.estimators.landmark import LandmarkEffectiveResistance
from repro.estimators.local_walk import LocalWalkEffectiveResistance

__all__ = [
    "BoundedResistanceEngine",
    "LandmarkEffectiveResistance",
    "LocalWalkEffectiveResistance",
]
