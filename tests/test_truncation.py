"""Tests for the Eq. (10) relative 1-norm truncation rule."""

import numpy as np
import pytest

from repro.core.truncation import (
    dropped_fraction,
    truncate_relative_1norm,
    truncation_budgets,
    truncation_keep_mask,
)


class TestKeepMask:
    def test_eps_zero_keeps_everything_nonzero(self):
        values = np.array([0.5, -0.1, 0.0, 2.0])
        mask = truncation_keep_mask(values, 0.0)
        assert np.array_equal(mask, [True, True, False, True])

    def test_eps_one_drops_everything(self):
        values = np.array([1.0, 2.0, 3.0])
        mask = truncation_keep_mask(values, 1.0)
        assert not mask.any()

    def test_dropped_mass_within_budget(self):
        rng = np.random.default_rng(0)
        for eps in (1e-3, 1e-2, 0.1, 0.5):
            values = rng.exponential(size=200)
            mask = truncation_keep_mask(values, eps)
            assert dropped_fraction(values, mask) <= eps + 1e-12

    def test_maximality(self):
        """k is the LARGEST admissible count: dropping the next smallest
        kept entry must exceed the budget."""
        rng = np.random.default_rng(1)
        values = rng.exponential(size=100)
        eps = 0.05
        mask = truncation_keep_mask(values, eps)
        if mask.any():
            total = np.abs(values).sum()
            dropped = np.abs(values[~mask]).sum()
            smallest_kept = np.abs(values[mask]).min()
            assert dropped + smallest_kept > eps * total

    def test_negative_eps_raises(self):
        with pytest.raises(ValueError):
            truncation_keep_mask(np.array([1.0]), -0.1)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_eps_raises(self, epsilon):
        # a NaN or infinite budget used to drop every entry of the column
        with pytest.raises(
            ValueError, match=f"epsilon must be a finite number >= 0, got {epsilon}"
        ):
            truncation_keep_mask(np.array([1.0, 0.5, 0.01]), epsilon)

    def test_all_zero_column(self):
        mask = truncation_keep_mask(np.zeros(4), 0.1)
        assert not mask.any()

    def test_uses_absolute_values(self):
        values = np.array([-10.0, 0.001, -0.001])
        mask = truncation_keep_mask(values, 0.01)
        assert mask[0]
        assert not mask[1] and not mask[2]

    def test_subnormal_budget_never_rounds_up(self):
        # 0.375 · 1e-323 rounds up to 5e-324, which would drop half the mass
        values = np.array([5e-324, 5e-324])
        mask = truncation_keep_mask(values, 0.375)
        assert mask.all()
        assert dropped_fraction(values, mask) <= 0.375
        # an exact subnormal budget still drops what it covers
        assert truncation_keep_mask(values, 0.5).tolist() == [False, True]


class TestBudgets:
    def test_subnormal_products_round_down(self):
        totals = np.array([1e-323, 1e-323, 1.5e-323, 1.0, 0.0])
        budgets = truncation_budgets(0.375, totals.copy())
        assert budgets.tolist() == [0.0, 0.0, 5e-324, 0.375, 0.0]
        exact = truncation_budgets(0.5, totals.copy())
        assert exact.tolist() == [5e-324, 5e-324, 5e-324, 0.5, 0.0]

    def test_normal_products_unchanged(self):
        rng = np.random.default_rng(2)
        totals = rng.exponential(size=1000) * 10.0 ** rng.integers(-290, 290, size=1000)
        for epsilon in (0.0, 1e-3, 0.3):
            assert np.array_equal(truncation_budgets(epsilon, totals), epsilon * totals)


class TestTruncateColumn:
    def test_returns_consistent_pair(self):
        indices = np.array([3, 7, 9, 12])
        values = np.array([5.0, 0.01, 4.0, 0.02])
        idx, vals = truncate_relative_1norm(indices, values, 0.02)
        assert np.array_equal(idx, [3, 9])
        assert np.allclose(vals, [5.0, 4.0])

    def test_preserves_order(self):
        indices = np.arange(10)
        values = np.linspace(1, 10, 10)
        idx, vals = truncate_relative_1norm(indices, values, 0.05)
        assert np.all(np.diff(idx) > 0)
