# -*- coding: utf-8 -*-
"""
Shared numerical utilities: validated array and scalar arguments,
deterministic random number generation and 1-D minimization over
[0, 1], by golden-section search on values or by safeguarded Newton on
the derivative of a convex function.
"""

import math
import numbers

import numpy as np

# Inverse golden ratio, contraction factor of the section search.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Golden-section target bracket width and evaluation cap.
_GOLDEN_TOL = 1e-10
_GOLDEN_MAX_EVALS = 200

# Safeguarded Newton: bracket width at which it stops, and its step cap.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100


class EvaluationError(RuntimeError):
    """A function evaluation produced a non-finite value."""


def _as_array(data, ndim, kind):
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{kind} contains non-finite entries")
    return a


def as_vector(data) -> np.ndarray:
    """Return ``data`` as a 1-D float64 array, rejecting NaN/Inf entries."""
    return _as_array(data, 1, "vector")


def as_matrix(data) -> np.ndarray:
    """Return ``data`` as a 2-D float64 array, rejecting NaN/Inf entries."""
    return _as_array(data, 2, "matrix")


def _check(name, value, rule, ok, kind=numbers.Real):
    # a value of type float is a Real and not a bool, so it skips the
    # isinstance tests, which are slow for an abstract base class
    valid = (type(value) is float and kind is numbers.Real
             or not isinstance(value, bool) and isinstance(value, kind))
    if not (valid and ok(value)):
        raise ValueError(f"{name} must be {rule}, got {_shown(value)}")
    return value


def _shown(value):
    """``repr(value)``; an int too long for ``repr``, which raises
    beyond Python's digit limit, shows its bit length instead."""
    try:
        return repr(value)
    except ValueError:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} int of {value.bit_length()} bits"


def _finite(v):
    """``v`` has a finite float value. A Python int beyond the float
    range has none: its conversion overflows, and comparing it with
    ``math.inf`` would let it pass."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _positive(v):
    return v > 0.0 and _finite(v)


def _nonnegative(v):
    return v >= 0.0 and _finite(v)


def check_positive(name, value):
    """Return ``value``, a real number in (0, inf) with a finite float
    value; NaN and bools fail."""
    return _check(name, value, "finite and positive", _positive)


def check_nonnegative(name, value):
    """Return ``value``, a real number in [0, inf) with a finite float
    value; NaN and bools fail."""
    return _check(name, value, "finite and nonnegative", _nonnegative)


def check_count(name, n):
    """Return ``n``, an integer in [1, 2**63), numpy's index range; a
    bool is not one."""
    return _check(name, n, "an integer in [1, 2**63)", lambda v: 1 <= v < 2**63,
                  numbers.Integral)


def make_rng(seed: int) -> "np.random.Generator":
    """Deterministic counter-based generator (Philox) for a seed in [0, 2**64).

    The stream depends on the seed alone, so draws are reproducible
    across runs and platforms.
    """
    _check("seed", seed, "an integer in [0, 2**64)", lambda v: 0 <= v < 2**64,
           numbers.Integral)
    return np.random.Generator(np.random.Philox(int(seed)))


def golden_section_min(phi) -> float:
    """Minimize a unimodal function ``phi`` over [0, 1] by golden-section search.

    The bracket shrinks to width 1e-10, so for unimodal ``phi`` the
    result is within 1e-10 of a minimizer; ``phi`` is evaluated at most
    200 times. Returns the best evaluated point among the interior
    search and the two endpoints, so boundary minima (0 or 1) are
    returned exactly.
    """
    def ev(a):
        val = phi(a)
        if not np.isfinite(val):
            raise EvaluationError(f"phi({a!r}) is not finite: {val!r}")
        return val

    lo, hi = 0.0, 1.0
    f_lo, f_hi = ev(lo), ev(hi)
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = ev(x1), ev(x2)
    n_evals = 4
    while hi - lo > _GOLDEN_TOL and n_evals < _GOLDEN_MAX_EVALS:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = ev(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = ev(x2)
        n_evals += 1

    candidates = [(f_lo, 0.0), (f_hi, 1.0), (f1, x1), (f2, x2)]
    best_val, best_x = min(candidates, key=lambda t: t[0])
    return best_x


def convex_min_unit(dphi, start=None) -> float:
    """Minimize a convex function over [0, 1] from its first two derivatives.

    ``dphi(a)`` returns ``(phi'(a), phi''(a))``. Returns 0 when
    ``phi'(0) >= 0`` and 1 when ``phi'(1) <= 0``; endpoint slopes may be
    infinite. Otherwise Newton steps on ``phi'`` run inside a bracket
    ``[lo, hi]`` with ``phi'(lo) < 0 < phi'(hi)``, shrunk on the sign of
    every new slope; a Newton point outside the bracket, or a curvature
    that is not finite and positive, is replaced by the bisection point.
    The search starts at 0, or at ``start`` when that lies inside
    (0, 1): the start's slope then shrinks the bracket before the first
    Newton step. Any other ``start``, NaN included, is ignored. A start
    near the root spares the steps that a steep slope at 0 takes to
    leave it; the result moves only within the tolerance. A Newton step
    below 5e-13 is lengthened by 5e-13, so a converged search ends with
    a bracket across the root. Stops at ``phi' = 0`` or at a bracket
    width of 1e-12 (at most 100 steps). A NaN endpoint slope, or a
    non-finite one inside (0, 1), raises :class:`EvaluationError`.
    """
    def ev(a):
        slope, curv = dphi(a)
        if math.isnan(slope) or (0.0 < a < 1.0 and not math.isfinite(slope)):
            raise EvaluationError(f"phi'({a!r}) is not finite: {slope!r}")
        return slope, curv

    slope, curv = ev(0.0)
    if slope >= 0.0:
        return 0.0
    if ev(1.0)[0] <= 0.0:
        return 1.0
    lo, hi, a = 0.0, 1.0, 0.0
    first = float(start) if start is not None and 0.0 < start < 1.0 else None
    for _ in range(_NEWTON_MAX_ITER):
        if first is not None:
            a, first = first, None
        else:
            step = slope / curv if 0.0 < curv < math.inf else math.nan
            if abs(step) <= 0.5 * _NEWTON_TOL:
                # a converged Newton step overshoots by half the tolerance,
                # so the next slope closes the bracket if the root is there
                step += math.copysign(0.5 * _NEWTON_TOL, step)
            a = a - step if lo < a - step < hi else 0.5 * (lo + hi)
        slope, curv = ev(a)
        if slope == 0.0:
            break
        if slope < 0.0:
            lo = a
        else:
            hi = a
        if hi - lo <= _NEWTON_TOL:
            break
    return float(a)
