"""Relative 1-norm truncation — Eq. (10) of the paper.

Given a computed column ``z*`` the algorithm finds the **largest** ``k`` such
that zeroing the ``k`` smallest-magnitude entries keeps the dropped 1-norm
mass within ``ε`` of the column's total::

    ‖trunc_k(z*) − z*‖₁ / ‖z*‖₁ ≤ ε

Because the dropped mass of ``trunc_k`` is the prefix sum of the sorted
magnitudes, one sort plus one cumulative sum answers the search exactly.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_finite_nonnegative


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
    k = int(np.searchsorted(dropped_mass, epsilon * total, side="right"))
    mask = np.ones(values.shape[0], dtype=bool)
    mask[order[:k]] = False
    return mask


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
