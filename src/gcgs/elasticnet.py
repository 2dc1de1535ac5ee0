# -*- coding: utf-8 -*-
"""
L1-ball-constrained elastic-net learning.

The problem is  min_{||x||_1 <= tau}  L(y, Zx) + lambda * x^T x  with a
differentiable loss L (squared, logistic, or squared hinge). The split
keeps the ridge term exact: the per-iteration subproblem
min_s <grad_f, s> + lambda s^T s over the ball is a Euclidean
projection of the scaled negative gradient. Baselines: classic
conditional gradient on the full linearization, spectral projected
gradient with a nonmonotone line search, and plain projected gradient.
All solvers stop on the fixed-point residual
||P(x - grad F(x)) - x||_inf of the projection operator.
"""

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (as_matrix, as_vector, check_count, check_positive,
                       convex_min_unit, make_rng)
from .solver import (ProjectedGradient, SolveResult, SolverConfig,
                     SpectralProjectedGradient, SplitObjective, cg_adapter,
                     iterate_cache, solve)

LOSSES = ("squared", "logistic", "squared_hinge")


@functools.lru_cache(maxsize=16)
def _ranks(n):
    """1, 2, ..., n as a read-only float64 array: the projection's ranks."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


def _logistic(z):
    """1 / (1 + exp(-z)); 0 without a warning where exp(-z) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


@dataclass
class ElasticNetProblem:
    """Design matrix, targets and the (lambda, tau) regularization pair."""

    Z: np.ndarray
    y: np.ndarray
    loss: str = "squared"
    lam: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        self.Z = as_matrix(self.Z)
        self.y = as_vector(self.y)
        if self.Z.shape[0] != self.y.size:
            raise ValueError("Z and y row counts differ")
        if self.Z.shape[1] == 0:
            raise ValueError("Z has no feature column")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.loss in ("logistic", "squared_hinge"):
            if not np.all(np.isin(self.y, (-1.0, 1.0))):
                raise ValueError(f"{self.loss} loss needs labels in {{-1,+1}}")
        check_positive("lam", self.lam)
        check_positive("tau", self.tau)


def loss_eval(problem: ElasticNetProblem, x: np.ndarray, Zx=None) -> float:
    """Value of the data-fitting term at x; ``Zx`` is ``Z @ x`` if held."""
    t = problem.Z @ x if Zx is None else Zx
    if problem.loss == "squared":
        r = t - problem.y
        return 0.5 * float(r @ r)
    if problem.loss == "logistic":
        # log(1 + exp(-y t)) summed, overflow-safe
        return float(np.logaddexp(0.0, -problem.y * t).sum())
    u = np.maximum(0.0, 1.0 - problem.y * t)
    return float(u @ u)


def loss_grad(problem: ElasticNetProblem, x: np.ndarray, Zx=None) -> np.ndarray:
    """Gradient of the data-fitting term at x; ``Zx`` is ``Z @ x`` if held."""
    t = problem.Z @ x if Zx is None else Zx
    if problem.loss == "squared":
        return problem.Z.T @ (t - problem.y)
    if problem.loss == "logistic":
        return problem.Z.T @ (-problem.y * _logistic(-problem.y * t))
    u = np.maximum(0.0, 1.0 - problem.y * t)
    return problem.Z.T @ (-2.0 * problem.y * u)


def objective(problem: ElasticNetProblem, x: np.ndarray) -> float:
    return loss_eval(problem, x) + problem.lam * float(x @ x)


def objective_grad(problem: ElasticNetProblem, x: np.ndarray) -> np.ndarray:
    return loss_grad(problem, x) + 2.0 * problem.lam * x


def project_l1(v: np.ndarray, tau: float) -> np.ndarray:
    """Euclidean projection of v onto the L1 ball of radius tau.

    Interior points are returned unchanged (as a copy); otherwise the
    exact soft-threshold is found by sorting the magnitudes, O(n log n).
    ``v`` must be 1-D and finite, ``tau`` finite and positive. When
    ``||v||_1`` overflows, the projection is taken in units of the
    largest magnitude. When ``tau`` is below half an ulp of the largest
    magnitude, rounding rejects every threshold; the exact projection
    is then within that half ulp of zero, which is returned.
    """
    check_positive("tau", tau)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {v.shape}")
    mag = abs(v)
    # summed in units of 2^64, so the sum cannot overflow and warn; a
    # power-of-two scale commutes with rounding, so the total keeps its bytes
    total = float(np.multiply(mag, 2.0 ** -64).sum()) * 2.0 ** 64
    if not math.isfinite(total) and not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    if total <= tau:
        return v.copy()
    scale = float(mag.max()) if total == math.inf else 1.0
    if scale != 1.0:
        mag /= scale
        tau /= scale
    u = mag.copy()
    u.sort()
    u = u[::-1]
    cssv = u.cumsum()
    cssv -= tau
    passed = (u * _ranks(u.size) > cssv).nonzero()[0]
    rho = int(passed[-1]) if passed.size else 0
    theta = float(cssv[rho]) / (rho + 1.0)
    out = mag
    out -= theta
    np.maximum(out, 0.0, out=out)
    out *= np.sign(v)
    if scale != 1.0:
        out *= scale
    return out


def en_oracle(problem: ElasticNetProblem, grad_f: np.ndarray) -> np.ndarray:
    """Partial-linearization subproblem over the ball.

    argmin_{||s||_1 <= tau} <grad_f, s> + lambda s^T s, which completes
    the square to the projection of -grad_f / (2 lambda).
    """
    return project_l1(grad_f / (-2.0 * problem.lam), problem.tau)


def l1_lmo(grad_F: np.ndarray, tau: float) -> np.ndarray:
    """Vertex of the L1 ball minimizing <grad_F, s>.

    Puts mass -tau * sign(grad) on the largest-magnitude gradient
    coordinate, lowest index on ties. A zero gradient returns +tau*e_0
    by convention (any vertex is optimal there). ``grad_F`` must be 1-D
    and finite, ``tau`` finite and positive.
    """
    check_positive("tau", tau)
    grad_F = np.asarray(grad_F, dtype=np.float64)
    if grad_F.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {grad_F.shape}")
    i = int(abs(grad_F).argmax())  # a NaN or inf entry wins the argmax
    g = float(grad_F[i])
    if not math.isfinite(g):
        raise ValueError("vector contains non-finite entries")
    s = np.zeros(grad_F.shape)
    if g == 0.0:
        s[0] = tau
    else:
        s[i] = -tau if g > 0.0 else tau
    return s


def fixed_point_residual(problem: ElasticNetProblem, x: np.ndarray,
                         grad_F: np.ndarray) -> float:
    """||P(x - grad_F) - x||_inf, zero exactly at minimizers.

    ``grad_F`` is grad F(x), e.g. ``objective_grad(problem, x)``.
    """
    step = project_l1(x - grad_F, problem.tau)
    step -= x
    return float(abs(step).max())


def en_split(problem: ElasticNetProblem) -> SplitObjective:
    """Split objective: smooth loss f, exact ridge g, projection oracle.

    For the squared loss the exact line search has a closed form (the
    objective is quadratic along any chord). For the logistic and squared
    hinge losses it is a safeguarded Newton search on the chord's slope
    (:func:`~gcgs.numerics.convex_min_unit`): the margins
    ``t = y * (Z x)`` and their rates ``u = y * (Z d)`` are formed once
    per step, so each Newton step costs O(n) instead of O(nd).

    ``f_eval``, ``f_grad`` and ``exact_step`` share one ``Z @ x`` per
    point of a :func:`~gcgs.solver.solve` run, and ``g`` is formed once
    per point (:func:`~gcgs.solver.iterate_cache`). For the squared loss
    the shared value is the residual ``r = Z x - y`` itself, from which
    all three read; they give the bytes of :func:`loss_eval` and
    :func:`loss_grad` without calling them.
    """
    lam = problem.lam

    if problem.loss == "squared":
        residual = iterate_cache(lambda x: problem.Z @ x - problem.y)

        def f_eval(x):
            r = residual(x)
            return 0.5 * float(r @ r)

        def f_grad(x):
            return problem.Z.T @ residual(x)

        def exact_step(x, d):
            Zd = problem.Z @ d
            denom = float(Zd @ Zd) + 2.0 * lam * float(d @ d)
            if denom <= 0.0:
                return 0.0
            num = -(float(Zd @ residual(x)) + 2.0 * lam * float(x @ d))
            return min(max(num / denom, 0.0), 1.0)
    else:
        image = iterate_cache(lambda x: problem.Z @ x)

        def f_eval(x):
            return loss_eval(problem, x, image(x))

        def f_grad(x):
            return loss_grad(problem, x, image(x))

        def exact_step(x, d):
            t = problem.y * image(x)
            u = problem.y * (problem.Z @ d)
            xd, dd = float(x @ d), float(d @ d)
            uu = u * u

            def dphi(a):
                slope, curv = 2.0 * lam * (xd + a * dd), 2.0 * lam * dd
                if problem.loss == "logistic":
                    p = _logistic(-(t + a * u))
                    return (slope - float(u @ p),
                            curv + float(uu @ (p * (1.0 - p))))
                h = np.maximum(0.0, 1.0 - t - a * u)
                return (slope - 2.0 * float(u @ h),
                        curv + 2.0 * float(uu[h > 0.0].sum()))

            return convex_min_unit(dphi)

    return SplitObjective(
        f_eval=f_eval,
        f_grad=f_grad,
        g_eval=iterate_cache(lambda x: lam * float(x @ x)),
        g_grad=lambda x: 2.0 * lam * x,
        partial_oracle=lambda x, gf, warm: (en_oracle(problem, gf), None),
        exact_step=exact_step,
        residual=lambda x, grad_F: fixed_point_residual(problem, x, grad_F),
    )


def en_cg_split(problem: ElasticNetProblem) -> SplitObjective:
    """Classic conditional gradient: full linearization, vertex oracle."""
    return cg_adapter(en_split(problem), lambda gF: l1_lmo(gF, problem.tau))


# ---------------------------------------------------------------------------
# Baseline solvers
# ---------------------------------------------------------------------------

def _check_feasible(problem, x0):
    x0 = as_vector(x0)
    if np.abs(x0).sum() > problem.tau * (1.0 + 1e-12) + 1e-12:
        raise ValueError("x0 lies outside the L1 ball")
    return x0.copy()


def _projection_solve(policy_cls, name, problem, x0, cfg):
    x0 = _check_feasible(problem, x0)
    if cfg.residual_tol is None:
        raise ValueError(f"{name} needs cfg.residual_tol")
    policy = policy_cls(lambda v: project_l1(v, problem.tau))
    return solve(en_split(problem), x0, cfg, policy=policy)


def spg_solve(problem: ElasticNetProblem, x0, cfg: SolverConfig) -> SolveResult:
    """Spectral projected gradient with Barzilai-Borwein steps.

    The trial point is P(x - a_bb * grad F(x)); a nonmonotone line
    search (reference value: max objective over the last 10 iterates)
    backtracks along the chord to the trial point. The spectral step is
    clipped to [1e-10, 1e10]. Stops on the fixed-point residual; see
    :class:`~gcgs.solver.SpectralProjectedGradient`.
    """
    return _projection_solve(SpectralProjectedGradient, "spg_solve", problem, x0, cfg)


def pg_solve(problem: ElasticNetProblem, x0, cfg: SolverConfig) -> SolveResult:
    """Projected gradient: d = P(x - grad F(x)) - x with monotone Armijo."""
    return _projection_solve(ProjectedGradient, "pg_solve", problem, x0, cfg)


# ---------------------------------------------------------------------------
# Data generation and CSV datasets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Raw features/labels plus a train/test split and training stats.

    ``Z`` is stored unnormalized; ``design()`` applies the
    training-row normalization (zero mean, unit variance per feature,
    computed on training rows only).
    """

    Z: np.ndarray
    y: np.ndarray
    split: np.ndarray  # "train" / "test" per row
    feature_mean: np.ndarray = field(init=False)
    feature_std: np.ndarray = field(init=False)

    def __post_init__(self):
        self.Z = as_matrix(self.Z)
        self.y = as_vector(self.y)
        self.split = np.asarray(self.split)
        if not (self.Z.shape[0] == self.y.size == self.split.size):
            raise ValueError("inconsistent dataset row counts")
        if not np.all(np.isin(self.split, ("train", "test"))):
            raise ValueError("split entries must be 'train' or 'test'")
        train = self.Z[self.split == "train"]
        if train.shape[0] == 0:
            raise ValueError("split has no 'train' row")
        self.feature_mean = train.mean(axis=0)
        self.feature_std = np.maximum(train.std(axis=0), 1e-12)

    def design(self, subset: str = "train"):
        """Normalized features and labels of one subset."""
        mask = self.split == subset
        Zn = (self.Z[mask] - self.feature_mean) / self.feature_std
        return Zn, self.y[mask]


def make_toy_classification(N: int, d: int, T: int, seed: int = 0) -> Dataset:
    """Synthetic binary classification with T informative features.

    Class-conditional informative features are N(+-mu, Sigma) with mu
    drawn from {-1,+1}^T and Sigma = A A^T / T for a standard-normal
    T x T draw A; the remaining d - T features are standard normal
    noise. Rows are shuffled, the first 80% (rounded down) form the
    training split, and normalization stats come from that split.
    ``N``, ``d`` and ``T`` must be integers with ``1 <= T <= d`` and
    ``N >= 10``.
    """
    if check_count("N", N) < 10:
        raise ValueError("need N >= 10")
    if check_count("T", T) > check_count("d", d):
        raise ValueError("need 1 <= T <= d")
    rng = make_rng(seed)
    A = rng.standard_normal((T, T))
    sigma = A @ A.T / T
    chol = np.linalg.cholesky(sigma)
    mu = rng.integers(0, 2, size=T) * 2.0 - 1.0
    y = rng.integers(0, 2, size=N) * 2.0 - 1.0
    relevant = y[:, None] * mu[None, :] + rng.standard_normal((N, T)) @ chol.T
    noise = rng.standard_normal((N, d - T))
    Z = np.hstack([relevant, noise])
    order = rng.permutation(N)
    Z, y = Z[order], y[order]
    n_train = int(0.8 * N)
    split = np.array(["train"] * n_train + ["test"] * (N - n_train))
    return Dataset(Z=Z, y=y, split=split)


def problem_from_dataset(dataset: Dataset, loss: str, lam: float,
                         tau: float) -> ElasticNetProblem:
    """Elastic-net problem on the normalized training rows."""
    Zn, y = dataset.design("train")
    return ElasticNetProblem(Z=Zn, y=y, loss=loss, lam=lam, tau=tau)


def load_csv_dataset(path, label_column: str = "label") -> Dataset:
    """Read a CSV dataset and run the standard split/normalization.

    The label column is selected by name; labels must be +-1. The first
    80% of rows (rounded down, file order) form the training split.
    Parse failures report the 1-based row and column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        rows = []
        labels = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
            vals = []
            for j, cell in enumerate(row, start=1):
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {i}, column {j}: not a number: {cell!r}"
                    ) from None
                vals.append(v)
            labels.append(vals.pop(label_idx))
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    y = np.array(labels)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        bad = y[~np.isin(y, (-1.0, 1.0))][0]
        raise ValueError(f"{path}: labels must be -1 or +1, found {bad!r}")
    Z = np.array(rows)
    n = Z.shape[0]
    n_train = int(0.8 * n)
    if n_train == 0:
        raise ValueError(f"{path}: too few rows for a train/test split")
    split = np.array(["train"] * n_train + ["test"] * (n - n_train))
    return Dataset(Z=Z, y=y, split=split)
