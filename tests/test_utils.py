"""Tests for shared utilities (timing, rng, validation, sparse helpers)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg.sparse_utils import column_slices, drop_small, nnz_per_column
from repro.utils.rng import ensure_rng, spawn
from repro.utils.timing import Timer, timed
from repro.utils.validation import (
    check_positive,
    check_square_sparse,
    check_symmetric,
    require,
)


class TestTimer:
    def test_sections_accumulate(self):
        timer = Timer()
        with timer.section("a"):
            pass
        with timer.section("a"):
            pass
        with timer.section("b"):
            pass
        assert set(timer.times) == {"a", "b"}
        assert timer.total == pytest.approx(timer["a"] + timer["b"])

    def test_report_contains_names(self):
        timer = Timer()
        with timer.section("stage"):
            pass
        assert "stage" in timer.report()
        assert "total" in timer.report()

    def test_empty_report(self):
        assert "no timings" in Timer().report()

    def test_timed_context(self):
        with timed() as elapsed:
            x = sum(range(100))
        assert elapsed() >= 0.0
        assert x == 4950


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_spawn_independent(self):
        children = spawn(ensure_rng(1), 3)
        assert len(children) == 3
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_check_positive(self):
        check_positive(1.0, "x")
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="x must be a finite number > 0"):
                check_positive(bad, "x")

    def test_check_square_sparse(self):
        check_square_sparse(sp.identity(3))
        with pytest.raises(TypeError):
            check_square_sparse(np.eye(3))
        with pytest.raises(ValueError):
            check_square_sparse(sp.csr_matrix((2, 3)))

    def test_check_symmetric(self):
        check_symmetric(sp.identity(4))
        lop = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            check_symmetric(lop)


class TestSparseUtils:
    def test_nnz_per_column(self):
        matrix = sp.csc_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]))
        assert np.array_equal(nnz_per_column(matrix), [2, 1])

    def test_column_slices(self):
        matrix = sp.csc_matrix(np.array([[1.0, 0.0], [3.0, 2.0]]))
        rows, vals = column_slices(matrix, 0)
        assert np.array_equal(rows, [0, 1])
        assert np.allclose(vals, [1.0, 3.0])

    def test_drop_small(self):
        matrix = sp.csc_matrix(np.array([[1.0, 1e-8], [0.0, 2.0]]))
        cleaned = drop_small(matrix, 1e-6)
        assert cleaned.nnz == 2
