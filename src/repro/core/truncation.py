"""Relative 1-norm truncation — Eq. (10) of the paper.

Given a computed column ``z*`` the algorithm finds the **largest** ``k`` such
that zeroing the ``k`` smallest-magnitude entries keeps the dropped 1-norm
mass within ``ε`` of the column's total::

    ‖trunc_k(z*) − z*‖₁ / ‖z*‖₁ ≤ ε

Because the dropped mass of ``trunc_k`` is the prefix sum of the sorted
magnitudes, one sort plus one cumulative sum answers the search exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.utils.validation import check_finite_nonnegative

_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


def truncation_keep_mask(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Boolean mask of entries kept by the Eq. (10) rule.

    Parameters
    ----------
    values:
        Column values (any sign; the rule uses absolute values).
    epsilon:
        Relative 1-norm budget ``ε ≥ 0``.

    Returns
    -------
    numpy.ndarray
        Boolean mask, ``True`` for entries that survive.  With ``ε = 0``
        only exact zeros are dropped.
    """
    check_finite_nonnegative(epsilon, "epsilon")
    magnitudes = np.abs(np.asarray(values, dtype=np.float64))
    total = magnitudes.sum()
    if total == 0.0:
        return np.zeros(values.shape[0], dtype=bool)
    order = np.argsort(magnitudes, kind="stable")
    dropped_mass = np.cumsum(magnitudes[order])
    budget = truncation_budgets(epsilon, np.array([total]))[0]
    k = int(np.searchsorted(dropped_mass, budget, side="right"))
    mask = np.ones(values.shape[0], dtype=bool)
    mask[order[:k]] = False
    return mask


def truncation_budgets(epsilon: float, totals: np.ndarray) -> np.ndarray:
    """``ε·total`` for each column 1-norm in ``totals``, never above the
    exact product.

    Rounding to nearest puts the product within half an ulp of the exact
    value: a relative 2⁻⁵³ among normal numbers, but below 2⁻¹⁰²² half a
    subnormal step can be most of the product — ``0.375 · 1e-323``
    rounds *up* to ``5e-324``, which would let half the column's mass
    drop.  A subnormal product that rounded up steps down one ulp
    instead.  A real factor has no such columns, so the exact check
    costs nothing there.
    """
    budgets = epsilon * totals
    for i in np.flatnonzero((budgets > 0.0) & (budgets <= _SMALLEST_NORMAL)):
        if Fraction(budgets[i]) > Fraction(epsilon) * Fraction(totals[i]):
            budgets[i] = np.nextafter(budgets[i], 0.0)
    return budgets


def truncate_relative_1norm(
    indices: np.ndarray, values: np.ndarray, epsilon: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Apply Eq. (10) to a sparse column given as (indices, values).

    Returns the surviving (indices, values), preserving the input order.
    """
    mask = truncation_keep_mask(values, epsilon)
    return indices[mask], values[mask]


def dropped_fraction(values: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of 1-norm mass removed by ``mask`` — test/diagnostic helper."""
    magnitudes = np.abs(np.asarray(values, dtype=np.float64))
    total = magnitudes.sum()
    if total == 0.0:
        return 0.0
    return float(magnitudes[~mask].sum() / total)
