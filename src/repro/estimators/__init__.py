"""Tiered-accuracy effective-resistance estimators.

The engines in :mod:`repro.core` are exact-grade: every answer costs a
factor solve (``exact``) or a sparse column product over the approximate
inverse (``cholinv``).  This package adds the cheap-but-bounded tier: a regular
:class:`~repro.core.engine.ResistanceEngine` registered with the engine
registry, plus a per-pair *error bound* so the service's router can
decide whether the cheap answer is good enough.

:class:`~repro.estimators.landmark.LandmarkEffectiveResistance`
(``"landmark"``) indexes ``k`` landmark nodes, projects every ``Z̃``
column onto the landmark subspace once, then answers any pair from two
``k``-vectors with a certified interval (triangle inequalities in the
embedding, Improved Algorithms for ER Computation / PAPERS.md).  It
shares the factorisation the served cholinv engine already paid for.

The shared bounds protocol lives in :mod:`repro.estimators.base`; the
SLA-aware router that drives the tier inside a service — and escalates
what it cannot certify to the service's exact engine — is
:class:`~repro.service.router.QueryRouter`.
"""

from repro.estimators.base import BoundedResistanceEngine
from repro.estimators.landmark import LandmarkEffectiveResistance

__all__ = [
    "BoundedResistanceEngine",
    "LandmarkEffectiveResistance",
]
