"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive(value: float, name: str) -> None:
    """Raise if ``value`` is NaN, infinite, zero or negative."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def check_finite_nonnegative(value: float, name: str) -> None:
    """Raise if ``value`` is NaN, infinite or negative.

    A bare ``value < 0`` test lets NaN through (every comparison with NaN
    is false), and a NaN or infinite tolerance silently drops entries it
    should keep.
    """
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def check_square_sparse(matrix, name: str = "matrix") -> None:
    """Raise if ``matrix`` is not a square scipy sparse matrix."""
    if not sp.issparse(matrix):
        raise TypeError(f"{name} must be a scipy sparse matrix, got {type(matrix)!r}")
    rows, cols = matrix.shape
    if rows != cols:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")


def check_symmetric(matrix, name: str = "matrix", tol: float = 1e-10) -> None:
    """Raise if a sparse ``matrix`` is not numerically symmetric."""
    check_square_sparse(matrix, name)
    diff = matrix - matrix.T
    if diff.nnz and np.abs(diff.data).max() > tol * max(1.0, np.abs(matrix.data).max()):
        raise ValueError(f"{name} is not symmetric within tolerance {tol}")
