# -*- coding: utf-8 -*-
"""
Shared numerical utilities: validated array construction, deterministic
random number generation, derivative-free 1-D minimization and
finite-difference gradient checks.
"""

import math

import numpy as np

# Inverse golden ratio, contraction factor of the section search.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class EvaluationError(RuntimeError):
    """A function evaluation produced a non-finite value."""


def as_vector(data) -> np.ndarray:
    """Return ``data`` as a 1-D float64 array, rejecting NaN/Inf entries."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def as_matrix(data) -> np.ndarray:
    """Return ``data`` as a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic counter-based generator (Philox) for a 64-bit seed.

    The stream depends on the seed alone, so draws are reproducible
    across runs and platforms.
    """
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    return np.random.Generator(np.random.Philox(int(seed)))


def golden_section_min(phi, tol: float = 1e-10, max_evals: int = 200) -> float:
    """Minimize a unimodal function ``phi`` over [0, 1] by golden-section search.

    Parameters
    ----------
    phi : callable
        Real function of a scalar in [0, 1].
    tol : float
        Target width of the bracketing interval; the returned point is
        within ``tol`` of a minimizer for unimodal ``phi``.
    max_evals : int
        Hard cap on function evaluations.

    Returns
    -------
    float
        The best evaluated point among the interior search and the two
        endpoints, so boundary minima (0 or 1) are returned exactly.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

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
    while hi - lo > tol and n_evals < max_evals:
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


def finite_diff_grad(func, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``func`` at ``x``.

    ``func`` maps an array of the same shape as ``x`` to a scalar; ``x``
    may be a vector or a matrix. Used as the independent oracle against
    which every analytic gradient in the package is checked.
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
