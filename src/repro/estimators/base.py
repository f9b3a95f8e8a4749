"""Shared protocol and helpers for the bounded estimator tiers.

Every estimator in this package answers a pair batch together with a
per-pair **absolute half-width**: the caller is promised the exact-grade
answer lies within ``[value - half, value + half]`` (a certified interval
for the landmark projection).  ``query_pairs`` stays the plain protocol
method — estimators are drop-in engines — while the service's router uses
:meth:`BoundedResistanceEngine.query_pairs_with_bounds` to decide which
answers are good enough for a requested tolerance.

Trivial pairs are resolved here once: ``p == q`` answers 0 and
cross-component pairs answer ``inf``, both with half-width 0 (they are
exact).
"""

from __future__ import annotations

import abc

import numpy as np
from numpy.typing import ArrayLike

from repro.core.engine import ResistanceEngine, as_pair_columns
from repro.graphs.graph import Graph


class BoundedResistanceEngine(ResistanceEngine):
    """A :class:`ResistanceEngine` whose answers carry error bounds."""

    @abc.abstractmethod
    def query_pairs_with_bounds(
        self, pairs: ArrayLike
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(values, half_widths)`` for an ``(m, 2)`` array of node pairs.

        ``half_widths`` are absolute: the exact-grade answer for row ``i``
        lies in ``values[i] ± half_widths[i]`` (with the estimator's own
        confidence semantics).  Trivial rows (``p == q``, cross-component)
        report half-width 0.
        """

    def query_pairs(self, pairs: ArrayLike) -> np.ndarray:
        """Point estimates only (the plain engine protocol)."""
        values, _ = self.query_pairs_with_bounds(pairs)
        return values


def weighted_degrees(graph: Graph) -> np.ndarray:
    """Weighted degree of every node (sum of incident conductances)."""
    degrees = np.zeros(graph.num_nodes)
    np.add.at(degrees, graph.heads, graph.weights)
    np.add.at(degrees, graph.tails, graph.weights)
    return degrees


def split_trivial(
    component_labels: np.ndarray, pairs: ArrayLike
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Normalise a batch and resolve its structural slices.

    Returns ``(ps, qs, values, half_widths, active)``: ``values`` carries
    0.0 on the diagonal and ``inf`` across components (half-width 0 for
    both), ``active`` marks the rows the estimator still has to answer.
    """
    ps, qs = as_pair_columns(pairs)
    values = np.zeros(ps.shape[0])
    half_widths = np.zeros(ps.shape[0])
    same_node = ps == qs
    cross = component_labels[ps] != component_labels[qs]
    values[cross] = np.inf
    active = ~(same_node | cross)
    return ps, qs, values, half_widths, active
