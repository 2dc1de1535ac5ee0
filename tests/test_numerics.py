import numpy as np
import pytest

from gcgs.numerics import (EvaluationError, as_matrix, as_vector,
                           finite_diff_grad, golden_section_min, make_rng)


class TestValidation:
    def test_as_vector_accepts_lists(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64
        assert v.shape == (3,)

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.ones((2, 2)))

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])

    def test_as_matrix_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.inf]])

    def test_as_matrix_rejects_vector(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones(3))


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7).standard_normal(5)
        b = make_rng(7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(5)
        b = make_rng(2).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            make_rng(-1)


class TestGoldenSection:
    def test_interior_minimum(self):
        x = golden_section_min(lambda a: (a - 0.3) ** 2)
        assert abs(x - 0.3) < 1e-9

    def test_left_boundary(self):
        # increasing function: minimum at 0, returned exactly
        assert golden_section_min(lambda a: a) == 0.0

    def test_right_boundary(self):
        assert golden_section_min(lambda a: -a) == 1.0

    def test_beats_the_evaluated_grid(self):
        phi = lambda a: np.cos(7 * a) + 0.5 * a
        x = golden_section_min(phi)
        grid = np.linspace(0, 1, 1001)
        assert phi(x) <= min(phi(g) for g in grid) + 1e-6

    def test_nonfinite_raises(self):
        with pytest.raises(EvaluationError):
            golden_section_min(lambda a: np.nan)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda a: a, tol=0.0)

    def test_returns_python_float(self):
        assert type(golden_section_min(lambda a: (a - 0.5) ** 2)) is float


class TestFiniteDiff:
    def test_matches_polynomial_gradient(self):
        def func(x):
            return x[0] ** 3 + 2.0 * x[0] * x[1] + x[1] ** 2

        x = np.array([0.7, -0.4])
        grad = finite_diff_grad(func, x)
        exact = np.array([3 * 0.7 ** 2 + 2 * -0.4, 2 * 0.7 + 2 * -0.4])
        assert np.allclose(grad, exact, atol=1e-7)

    def test_input_not_mutated(self):
        x = np.array([1.0, 2.0])
        keep = x.copy()
        finite_diff_grad(lambda v: float(v @ v), x)
        assert np.array_equal(x, keep)
