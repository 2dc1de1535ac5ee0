"""Tests for the shared numerical utilities.

Also home of :func:`finite_diff_grad`, the central-difference oracle
against which the other test modules check every analytic gradient.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gcgs
from gcgs import elasticnet as en
from gcgs import transport as tr
from gcgs.numerics import (EvaluationError, as_matrix, as_vector,
                           convex_min_unit, golden_section_min, make_rng)
from gcgs.solver import SolverConfig


def finite_diff_grad(func, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``func`` at ``x``.

    ``func`` maps an array of the same shape as ``x`` to a scalar; ``x``
    may be a vector or a matrix and is not modified.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.array(x, dtype=np.float64, copy=True)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + h
        f_plus = func(x)
        xf[i] = orig - h
        f_minus = func(x)
        xf[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise EvaluationError(f"non-finite value in finite difference at index {i}")
        flat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


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

    def test_cli_import_leaves_numpy_random_unloaded(self):
        """Importing ``gcgs.cli`` loads no ``numpy.random``, which brings
        ``secrets``, ``hashlib`` and OpenSSL (peak resident memory of the
        import 36.5 MB with it and 30.4 MB without, Python 3.11.7 and
        numpy 2.4.6), and the first ``make_rng`` call, which loads it,
        draws the stream it always drew."""
        code = textwrap.dedent("""
            import sys
            import gcgs.cli
            assert "numpy.random" not in sys.modules
            from gcgs.numerics import make_rng
            print(make_rng(0).random(3).tolist(),
                  make_rng(2**64 - 1).integers(0, 1000, 3).tolist())
        """)
        src = os.path.dirname(os.path.dirname(gcgs.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[0] == (
            "[0.014067035665647709, 0.2577672456246177, 0.47156538101528966]"
            " [460, 592, 492]")


_COST, _HIST, _ZEROS = np.zeros((2, 2)), np.full(2, 0.5), np.zeros(2)


def _ot_problem():
    return tr.TransportProblem(_COST, _HIST, _HIST, lambda_ent=0.5)


# Every scalar argument taken from outside the program, by kind, with a
# call that puts the value in its place; extra values are rows that
# passed or raised another error before the rule covered them.
_ARGUMENTS = [
    ("make_rng", "seed", "seed", make_rng, (-0.5, "3")),
    ("SolverConfig", "max_iter", "count", lambda v: SolverConfig(max_iter=v), ()),
    ("SolverConfig", "gap_tol", "nonnegative", lambda v: SolverConfig(gap_tol=v), ()),
    ("SolverConfig", "residual_tol", "nonnegative",
     lambda v: SolverConfig(residual_tol=v), ()),
    ("TransportProblem", "lambda_ent", "positive",
     lambda v: tr.TransportProblem(_COST, _HIST, _HIST, lambda_ent=v), ()),
    ("TransportProblem", "lambda_lap", "nonnegative",
     lambda v: tr.TransportProblem(_COST, _HIST, _HIST, 0.5, lambda_lap=v), ()),
    ("ot_split", "sinkhorn_tol", "positive",
     lambda v: tr.ot_split(_ot_problem(), sinkhorn_tol=v), ()),
    ("ot_split", "sinkhorn_max_iter", "count",
     lambda v: tr.ot_split(_ot_problem(), sinkhorn_max_iter=v), ()),
    ("sinkhorn", "lambda_ent", "positive",
     lambda v: tr.sinkhorn(_COST, _HIST, _HIST, v), ()),
    ("sinkhorn", "tol", "positive",
     lambda v: tr.sinkhorn(_COST, _HIST, _HIST, 0.5, tol=v), ()),
    ("sinkhorn", "max_iter", "count",
     lambda v: tr.sinkhorn(_COST, _HIST, _HIST, 0.5, max_iter=v), ()),
    ("uniform_histogram", "n", "count", tr.uniform_histogram, ()),
    ("knn_laplacian", "k", "count", lambda v: tr.knn_laplacian(np.eye(3), v), ()),
    ("make_cluster_data", "ns", "count", lambda v: tr.make_cluster_data(v, 3), ()),
    ("make_cluster_data", "nt", "count", lambda v: tr.make_cluster_data(3, v), ()),
    ("make_cluster_data", "n_clusters", "count",
     lambda v: tr.make_cluster_data(3, 3, n_clusters=v), ()),
    ("make_cluster_data", "noise", "nonnegative",
     lambda v: tr.make_cluster_data(3, 3, noise=v), ()),
    ("make_cluster_data", "seed", "seed",
     lambda v: tr.make_cluster_data(3, 3, seed=v), (0.7,)),
    ("ElasticNetProblem", "lam", "positive",
     lambda v: en.ElasticNetProblem(np.eye(2), _ZEROS, lam=v), ()),
    ("ElasticNetProblem", "tau", "positive",
     lambda v: en.ElasticNetProblem(np.eye(2), _ZEROS, tau=v), ()),
    ("project_l1", "tau", "positive", lambda v: en.project_l1(_ZEROS, v), ()),
    ("l1_lmo", "tau", "positive", lambda v: en.l1_lmo(_ZEROS, v), ()),
    ("make_toy_classification", "N", "count",
     lambda v: en.make_toy_classification(v, 5, 2), (20.5,)),
    ("make_toy_classification", "d", "count",
     lambda v: en.make_toy_classification(20, v, 1), ()),
    ("make_toy_classification", "T", "count",
     lambda v: en.make_toy_classification(20, 5, v), ()),
    ("make_toy_classification", "seed", "seed",
     lambda v: en.make_toy_classification(20, 5, 2, seed=v), ()),
]

# An int beyond the float range: ``float()`` of it overflows.
_HUGE = 10**400
# An int beyond Python's 4300-digit limit, past which ``repr`` raises.
_GIANT = 10**5000
_LABELS = {_HUGE: "10**400", _GIANT: "10**5000", 2**63: "2**63"}

# the rule of each kind, and the values that break it: NaN, both
# infinities, an out-of-range value, a bool and, for integers, 1.5
_RULES = {
    "positive": ("finite and positive", (-1.0, 0.0, _HUGE, _GIANT)),
    "nonnegative": ("finite and nonnegative", (-1e-3, _HUGE, _GIANT)),
    "count": ("an integer in [1, 2**63)", (0, 2**63, 1.5, _GIANT)),
    "seed": ("an integer in [0, 2**64)", (-1, 2**64, 1.5, _GIANT)),
}


def _bad_arguments():
    for entry, name, kind, call, extra in _ARGUMENTS:
        rule, out_of_range = _RULES[kind]
        for value in (np.nan, np.inf, -np.inf, True) + out_of_range + extra:
            label = _LABELS.get(value) or repr(value)
            yield pytest.param(call, name, rule, value,
                               id=f"{entry}-{name}-{label}")


@pytest.mark.parametrize("call,name,rule,value", list(_bad_arguments()))
def test_bad_argument_raises_naming_it(call, name, rule, value):
    with pytest.raises(ValueError, match=f"^{name} must be {re.escape(rule)}, got "):
        call(value)


@pytest.mark.parametrize("value,shown", [(_GIANT, "an int of 16610 bits"),
                                          (-_GIANT, "a negative int of 16610 bits")],
                         ids=["10**5000", "-10**5000"])
def test_an_int_too_long_for_repr_shows_its_bit_length(value, shown):
    with pytest.raises(ValueError, match=f"^tau must be finite and positive, got {shown}$"):
        en.project_l1(_ZEROS, value)


def test_scalar_rules_are_written_in_numerics_only():
    """No other module states the rule for a scalar argument itself: a
    ``ValueError`` message there saying "must be finite" or "must be an
    integer" would be a second copy of a check in ``gcgs.numerics``."""
    found = []
    for path in sorted(pathlib.Path(gcgs.__file__).parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"):
                continue
            text = "".join(part.value for part in ast.walk(node.exc)
                           if isinstance(part, ast.Constant)
                           and isinstance(part.value, str))
            if "must be finite" in text or "must be an integer" in text:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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

    def test_returns_python_float(self):
        assert type(golden_section_min(lambda a: (a - 0.5) ** 2)) is float


class TestConvexMinUnit:
    def test_interior_minimum_of_quadratic(self):
        # one Newton step lands on the root, the next slope is exactly 0
        assert convex_min_unit(lambda a: (2.0 * (a - 0.3), 2.0)) == pytest.approx(
            0.3, abs=1e-12)

    def test_endpoints_returned_exactly(self):
        assert convex_min_unit(lambda a: (1.0 + a, 1.0)) == 0.0
        assert convex_min_unit(lambda a: (a - 2.0, 1.0)) == 1.0
        # a zero slope at an end also stops there, as golden section does
        assert convex_min_unit(lambda a: (a, 1.0)) == 0.0
        assert convex_min_unit(lambda a: (a - 1.0, 1.0)) == 1.0

    def test_infinite_endpoint_slopes(self):
        # phi(a) = a log a + (1 - a) log(1 - a) - 3a: slope log(a / (1 - a)) - 3
        # is -inf at 0 and +inf at 1; the minimizer is the logistic of 3
        def dphi(a):
            a = np.float64(a)
            with np.errstate(divide="ignore"):
                return (float(np.log(a) - np.log1p(-a)) - 3.0,
                        float(1.0 / a + 1.0 / (1.0 - a)))

        a = convex_min_unit(dphi)
        assert a == pytest.approx(1.0 / (1.0 + np.exp(-3.0)), abs=1e-12)

    def test_steep_log_slope_near_zero(self):
        # the curvature at 0 is 1e300, so the first Newton step is ~1e-298;
        # the search must still reach the minimizer at 0.5
        def dphi(a):
            y = 1e-300 + a
            return float(np.log(y / 0.5)), float(1.0 / y)

        assert convex_min_unit(dphi) == pytest.approx(0.5, abs=1e-12)

    def test_kinked_slope(self):
        # piecewise-linear slope with a kink at the root: 10 (a - 0.2) on the
        # left, (a - 0.2) on the right
        def dphi(a):
            return (10.0 if a < 0.2 else 1.0) * (a - 0.2), (10.0 if a < 0.2 else 1.0)

        assert convex_min_unit(dphi) == pytest.approx(0.2, abs=1e-12)

    def test_smooth_convex_minimum(self):
        # phi(a) = exp(3a) - 6a is minimized at log(2) / 3
        a = convex_min_unit(lambda a: (3.0 * np.exp(3.0 * a) - 6.0,
                                       9.0 * np.exp(3.0 * a)))
        assert abs(a - np.log(2.0) / 3.0) <= 1e-12

    def test_nonfinite_slopes_raise(self):
        with pytest.raises(EvaluationError):
            convex_min_unit(lambda a: (np.nan, 1.0))
        with pytest.raises(EvaluationError):
            convex_min_unit(lambda a: (-1.0 if a == 0.0 else 1.0 if a == 1.0
                                       else np.inf, 1.0))

    def test_returns_python_float(self):
        assert type(convex_min_unit(lambda a: (np.float64(a - 0.5), 1.0))) is float
        assert type(convex_min_unit(lambda a: (np.float64(a - 0.5), 1.0),
                                    np.float64(0.25))) is float

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_any_start_inside_gives_the_same_minimizer(self, data):
        # the families above, with drawn parameters and known minimizers;
        # roots may also lie outside [0, 1], where both searches return
        # the endpoint. Each search ends within the 1e-12 tolerance of
        # the minimizer (a converged one 5e-13 past it), so two searches
        # that close in from opposite sides can be 1e-12 apart
        num = dict(allow_nan=False, allow_infinity=False)
        root = data.draw(st.floats(-0.5, 1.5, **num), label="root")
        family = data.draw(st.sampled_from(
            ["quadratic", "exponential", "steep log", "kinked"]), label="family")
        if family == "quadratic":
            c = 10.0 ** data.draw(st.floats(-3.0, 3.0, **num), label="log10 c")
            dphi = lambda a: (c * (a - root), c)
        elif family == "exponential":
            # phi(a) = exp(k a) - k exp(k root) a
            k = data.draw(st.floats(0.1, 10.0, **num), label="k")
            dphi = lambda a: (k * (np.exp(k * a) - np.exp(k * root)),
                              k * k * np.exp(k * a))
        elif family == "steep log":
            # phi'(a) = log((floor + a) / target): curvature 1 / floor at 0
            floor = 10.0 ** data.draw(st.floats(-300.0, -1.0, **num), label="log10 floor")
            target = abs(root) + 1e-3
            dphi = lambda a: (float(np.log((floor + a) / target)), 1.0 / (floor + a))
            root = target - floor
        else:
            left = 10.0 ** data.draw(st.floats(-2.0, 2.0, **num), label="log10 left")
            dphi = lambda a: ((left if a < root else 1.0) * (a - root),
                              left if a < root else 1.0)
        start = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          label="start")
        minimizer = min(max(root, 0.0), 1.0)
        for found in (convex_min_unit(dphi), convex_min_unit(dphi, start)):
            assert abs(found - minimizer) <= 1e-12

    @pytest.mark.parametrize("start", [None, 0.0, 1.0, -0.5, 1.5, np.nan, np.inf])
    def test_start_outside_the_open_unit_interval_is_ignored(self, start):
        def record(points):
            return lambda a: points.append(a) or (3.0 * np.exp(3.0 * a) - 6.0,
                                                  9.0 * np.exp(3.0 * a))

        plain, started = [], []
        assert convex_min_unit(record(started), start) == convex_min_unit(record(plain))
        assert started == plain

    def test_start_inside_is_the_first_point_after_the_endpoints(self):
        # phi(a) = exp(3a) - 6a, minimized at log(2) / 3
        points = []
        dphi = lambda a: points.append(a) or (3.0 * np.exp(3.0 * a) - 6.0,
                                              9.0 * np.exp(3.0 * a))
        a = convex_min_unit(dphi, 0.25)
        assert points[:3] == [0.0, 1.0, 0.25]
        assert abs(a - np.log(2.0) / 3.0) <= 1e-12
        # a start at the root stops there
        points.clear()
        assert convex_min_unit(lambda a: points.append(a) or (2.0 * (a - 0.375), 2.0),
                               0.375) == 0.375
        assert points == [0.0, 1.0, 0.375]


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
