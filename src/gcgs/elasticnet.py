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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .numerics import as_matrix, as_vector, make_rng
from .solver import (ProjectedGradient, SolveResult, SolverConfig,
                     SpectralProjectedGradient, SplitObjective, cg_adapter,
                     solve)

LOSSES = ("squared", "logistic", "squared_hinge")


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
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.loss in ("logistic", "squared_hinge"):
            if not np.all(np.isin(self.y, (-1.0, 1.0))):
                raise ValueError(f"{self.loss} loss needs labels in {{-1,+1}}")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


def loss_eval(problem: ElasticNetProblem, x: np.ndarray) -> float:
    """Value of the data-fitting term at x."""
    t = problem.Z @ x
    if problem.loss == "squared":
        r = t - problem.y
        return 0.5 * float(r @ r)
    if problem.loss == "logistic":
        # log(1 + exp(-y t)) summed, overflow-safe
        return float(np.logaddexp(0.0, -problem.y * t).sum())
    u = np.maximum(0.0, 1.0 - problem.y * t)
    return float(u @ u)


def loss_grad(problem: ElasticNetProblem, x: np.ndarray) -> np.ndarray:
    """Gradient of the data-fitting term at x."""
    t = problem.Z @ x
    if problem.loss == "squared":
        return problem.Z.T @ (t - problem.y)
    if problem.loss == "logistic":
        return problem.Z.T @ (-problem.y * expit(-problem.y * t))
    u = np.maximum(0.0, 1.0 - problem.y * t)
    return problem.Z.T @ (-2.0 * problem.y * u)


def objective(problem: ElasticNetProblem, x: np.ndarray) -> float:
    return loss_eval(problem, x) + problem.lam * float(x @ x)


def objective_grad(problem: ElasticNetProblem, x: np.ndarray) -> np.ndarray:
    return loss_grad(problem, x) + 2.0 * problem.lam * x


def project_l1(v: np.ndarray, tau: float) -> np.ndarray:
    """Euclidean projection of v onto the L1 ball of radius tau.

    Interior points are returned unchanged; otherwise the exact
    soft-threshold is found by sorting the magnitudes, O(n log n).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = as_vector(v)
    mag = np.abs(v)
    if mag.sum() <= tau:
        return v.copy()
    u = np.sort(mag)[::-1]
    cssv = np.cumsum(u) - tau
    j = np.arange(1, u.size + 1)
    rho = np.nonzero(u * j > cssv)[0][-1]
    theta = cssv[rho] / (rho + 1.0)
    return np.sign(v) * np.maximum(mag - theta, 0.0)


def en_oracle(problem: ElasticNetProblem, x: np.ndarray,
              grad_f: np.ndarray) -> np.ndarray:
    """Partial-linearization subproblem over the ball.

    argmin_{||s||_1 <= tau} <grad_f, s> + lambda s^T s, which completes
    the square to the projection of -grad_f / (2 lambda).
    """
    return project_l1(-grad_f / (2.0 * problem.lam), problem.tau)


def l1_lmo(grad_F: np.ndarray, tau: float) -> np.ndarray:
    """Vertex of the L1 ball minimizing <grad_F, s>.

    Puts mass -tau * sign(grad) on the largest-magnitude gradient
    coordinate, lowest index on ties. A zero gradient returns +tau*e_0
    by convention (any vertex is optimal there).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    grad_F = as_vector(grad_F)
    i = int(np.argmax(np.abs(grad_F)))
    s = np.zeros_like(grad_F)
    if grad_F[i] == 0.0:
        s[0] = tau
    else:
        s[i] = -tau * np.sign(grad_F[i])
    return s


def fixed_point_residual(problem: ElasticNetProblem, x: np.ndarray,
                         grad_F: np.ndarray) -> float:
    """||P(x - grad_F) - x||_inf, zero exactly at minimizers.

    ``grad_F`` is grad F(x), e.g. ``objective_grad(problem, x)``.
    """
    step = project_l1(x - grad_F, problem.tau)
    return float(np.max(np.abs(step - x)))


def en_split(problem: ElasticNetProblem) -> SplitObjective:
    """Split objective: smooth loss f, exact ridge g, projection oracle.

    For the squared loss the exact line search has a closed form (the
    objective is quadratic along any chord); other losses fall back to
    golden-section search.
    """
    lam = problem.lam

    exact_step = None
    if problem.loss == "squared":
        def exact_step(x, d):
            Zd = problem.Z @ d
            denom = float(Zd @ Zd) + 2.0 * lam * float(d @ d)
            if denom <= 0.0:
                return 0.0
            r = problem.Z @ x - problem.y
            num = -(float(Zd @ r) + 2.0 * lam * float(x @ d))
            return float(np.clip(num / denom, 0.0, 1.0))

    return SplitObjective(
        f_eval=lambda x: loss_eval(problem, x),
        f_grad=lambda x: loss_grad(problem, x),
        g_eval=lambda x: lam * float(x @ x),
        g_grad=lambda x: 2.0 * lam * x,
        partial_oracle=lambda x, gf: en_oracle(problem, x, gf),
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

    The trial point is P(x - alpha_bb * grad F(x)); a nonmonotone line
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
    """
    if not (1 <= T <= d):
        raise ValueError("need 1 <= T <= d")
    if N < 10:
        raise ValueError("need N >= 10")
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


def save_csv_dataset(path, dataset: Dataset, label_column: str = "label") -> None:
    """Write raw features and labels as CSV (header row, full precision)."""
    d = dataset.Z.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{j}" for j in range(d)] + [label_column])
        for i in range(dataset.Z.shape[0]):
            # repr of a Python float round-trips exactly
            writer.writerow([repr(float(v)) for v in dataset.Z[i]]
                            + [repr(float(dataset.y[i]))])


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
