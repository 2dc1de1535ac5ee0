# -*- coding: utf-8 -*-
"""
Conditional gradient splitting (CGS) solver for composite problems

    min_{x in P}  F(x) = f(x) + g(x)

with f, g convex and differentiable and P a compact convex set. Each
iteration linearizes only f and solves the partial subproblem

    s_k = argmin_{s in P}  <grad f(x_k), s> + g(s)

through a problem-supplied oracle, then steps x_{k+1} = x_k + a_k (s_k - x_k)
with a_k from an exact, Armijo or fixed 2/(k+2) rule. The quantity

    gap(x) = -[ <grad f(x), s - x> + g(s) - g(x) ],   s the oracle output,

is a certified upper bound on F(x) - F(x*) and is the stopping criterion.
The classic (fully linearized) conditional gradient is recovered through
:func:`cg_adapter`; projected-gradient baselines run on the same loop as
the direction policies :class:`ProjectedGradient` and
:class:`SpectralProjectedGradient`.
"""

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .numerics import EvaluationError, golden_section_min

# Directions shorter than this are treated as numerical fixed points.
_TINY_STEP = 1e-14

# Armijo sufficient-decrease constant and backtracking factor.
_ARMIJO_SIGMA = 1e-4
_ARMIJO_BETA = 0.5

# Step lengths at which estimate_curvature probes each sampled chord.
_CURVATURE_ALPHAS = (0.1, 0.25, 0.5, 0.75, 1.0)


class StallError(RuntimeError):
    """Backtracking line search could not find an acceptable step."""


class OracleError(RuntimeError):
    """The partial subproblem oracle failed; carries the iteration index."""

    def __init__(self, iteration: int, cause: Exception):
        super().__init__(f"oracle failure at iteration {iteration}: {cause}")
        self.iteration = iteration


@dataclass
class SplitObjective:
    """Evaluators for one composite problem instance.

    ``partial_oracle(x, grad_f)`` must return a feasible minimizer of
    ``<grad_f, s> + g(s)`` over the feasible set. ``exact_step``, when
    given, replaces the golden-section line search with a closed form;
    ``residual(x, grad_F)``, given ``grad_F = grad f(x) + grad g(x)``, is
    an optional problem-specific optimality measure recorded along the
    trace and usable as a stopping rule.
    """

    f_eval: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    g_eval: Callable[[np.ndarray], float]
    g_grad: Callable[[np.ndarray], np.ndarray]
    partial_oracle: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exact_step: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    residual: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def value(self, x: np.ndarray) -> float:
        return self.f_eval(x) + self.g_eval(x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.f_grad(x) + self.g_grad(x)


@dataclass
class SolverConfig:
    """Step rule, tolerances and iteration caps for :func:`solve`.

    ``gap_tol`` is an absolute threshold on the surrogate gap.
    ``residual_tol`` activates the problem-specific residual stopping
    rule when the objective defines one (e.g. the projected fixed-point
    residual of the constrained elastic-net solvers). With
    ``record_trace`` off the trace keeps only the final record. The
    Armijo rule uses sufficient decrease 1e-4 and backtracks by 0.5.
    """

    step_rule: str = "exact"
    max_iter: int = 1000
    gap_tol: float = 1e-8
    residual_tol: Optional[float] = None
    record_trace: bool = True

    def __post_init__(self):
        if self.step_rule not in ("exact", "armijo", "fixed"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not self.gap_tol >= 0:  # also rejects NaN
            raise ValueError(f"gap_tol must be >= 0, got {self.gap_tol!r}")
        if self.residual_tol is not None and not self.residual_tol >= 0:
            raise ValueError(f"residual_tol must be >= 0, got {self.residual_tol!r}")


@dataclass
class IterationRecord:
    k: int
    objective: float
    surrogate_gap: float
    alpha: float
    elapsed_s: float
    extra_residual: Optional[float] = None


@dataclass
class SolveResult:
    x_final: np.ndarray
    trace: List[IterationRecord] = field(default_factory=list)
    termination: str = "max_iter"

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.trace])

    def gaps(self) -> np.ndarray:
        return np.array([r.surrogate_gap for r in self.trace])


def surrogate_gap(x: np.ndarray, s: np.ndarray, grad_f: np.ndarray,
                  obj: SplitObjective) -> float:
    """Certified suboptimality bound at ``x`` given the oracle output ``s``.

    Returns ``-[<grad_f, s - x> + g(s) - g(x)]``, which is nonnegative
    whenever ``s`` minimizes the bracket and bounds ``F(x) - F(x*)`` from
    above. Invariant to adding a constant to ``g``.
    """
    bracket = float(np.vdot(grad_f, s - x)) + obj.g_eval(s) - obj.g_eval(x)
    return -bracket


def step_exact(obj: SplitObjective, x: np.ndarray, dx: np.ndarray) -> float:
    """Step length minimizing ``F(x + a dx)`` over [0, 1].

    Uses the objective's closed form when available, otherwise a
    golden-section search (200-evaluation cap). Returns 0 for a zero
    direction.
    """
    if not np.any(dx):
        return 0.0
    if obj.exact_step is not None:
        return float(np.clip(obj.exact_step(x, dx), 0.0, 1.0))
    return golden_section_min(lambda a: obj.value(x + a * dx))


def step_armijo(obj: SplitObjective, x: np.ndarray, dx: np.ndarray,
                grad_F_x: np.ndarray, f_ref: Optional[float] = None) -> float:
    """Largest step in {1, 0.5, 0.25, ...} with sufficient decrease.

    Accepts ``a`` when ``F(x + a dx) <= f_ref + 1e-4 * a * <grad_F, dx>``,
    where ``f_ref`` defaults to ``F(x)`` (a caller that holds ``F(x)``, or
    a nonmonotone reference value, passes it); raises :class:`StallError`
    below 2**-50, which signals a non-descent direction or numerical
    breakdown.
    """
    if f_ref is None:
        f_ref = obj.value(x)
    slope = float(np.vdot(grad_F_x, dx))
    alpha = 1.0
    while alpha >= 2.0 ** -50:
        if obj.value(x + alpha * dx) <= f_ref + _ARMIJO_SIGMA * alpha * slope:
            return alpha
        alpha *= _ARMIJO_BETA
    raise StallError(f"no Armijo step above 2^-50 (slope {slope:.3e})")


def step_fixed(k: int) -> float:
    """The step 2/(k+2), k >= 0."""
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    return 2.0 / (k + 2.0)


class ProjectedGradient:
    """Projected-gradient direction policy for :func:`solve`.

    Steps along ``d = P(x - grad F(x)) - x``, with ``P`` the Euclidean
    projection onto the feasible set, under the monotone Armijo rule.
    The fixed-point residual ``||d||_inf`` is the convergence measure and
    shares its projection with the direction; the surrogate gap is
    recorded but does not stop the run.
    """

    def __init__(self, project: Callable[[np.ndarray], np.ndarray]):
        self.project = project
        self._d = None

    def residual(self, x: np.ndarray, grad_F: np.ndarray) -> float:
        """||P(x - grad F(x)) - x||_inf; keeps the projection for the step."""
        self._d = self.project(x - grad_F) - x
        return float(np.max(np.abs(self._d)))

    def direction(self, x: np.ndarray, grad_F: np.ndarray) -> np.ndarray:
        """The direction of the iterate whose residual was last taken."""
        return self._d

    def reference(self, objective: float) -> float:
        """Armijo reference value: the current objective."""
        return objective


class SpectralProjectedGradient(ProjectedGradient):
    """Spectral projected gradient with Barzilai-Borwein steps.

    The direction is ``P(x - a grad F(x)) - x`` with ``a`` the
    Barzilai-Borwein step ``<s, s> / <s, y>`` of the last move (1 at the
    start, 1e10 when ``<s, y> <= 0``), clipped to [1e-10, 1e10]. The
    Armijo rule is nonmonotone: its reference value is the largest
    objective over the last 10 iterates.
    """

    def __init__(self, project: Callable[[np.ndarray], np.ndarray]):
        super().__init__(project)
        self.alpha_bb = 1.0
        self._last = None  # (x, grad F) where the previous direction was taken
        self._objectives = deque(maxlen=10)

    def direction(self, x: np.ndarray, grad_F: np.ndarray) -> np.ndarray:
        if self._last is not None:
            sk = x - self._last[0]
            yk = grad_F - self._last[1]
            sy = float(sk @ yk)
            if sy > 0.0:
                self.alpha_bb = float(np.clip(float(sk @ sk) / sy, 1e-10, 1e10))
            else:
                self.alpha_bb = 1e10
        self._last = (x, grad_F)
        return self.project(x - self.alpha_bb * grad_F) - x

    def reference(self, objective: float) -> float:
        self._objectives.append(objective)
        return max(self._objectives)


def solve(obj: SplitObjective, x0: np.ndarray, cfg: SolverConfig,
          policy: Optional[ProjectedGradient] = None) -> SolveResult:
    """Run conditional gradient splitting from the feasible point ``x0``.

    Stops when the surrogate gap falls to ``cfg.gap_tol`` (termination
    ``negative_gap`` when the raw gap is below zero, which only an
    inexact oracle or rounding produces), when the residual rule fires
    (if configured), when the direction collapses below 1e-14 in
    infinity norm, or after ``cfg.max_iter`` updates. Every iterate is
    a convex combination of feasible points and hence feasible. A
    non-finite objective value raises
    :class:`~gcgs.numerics.EvaluationError`; oracle exceptions are
    re-raised as :class:`OracleError` with the iteration index.

    ``grad F = grad f + grad g`` is formed once per iterate and feeds
    the residual, the policy direction and the Armijo rule. A direction
    ``policy`` replaces the step toward the oracle output: the policy
    supplies the direction, the residual and the Armijo reference value,
    the step rule is always Armijo, and the gap is recorded without
    stopping the run.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    t0 = time.perf_counter()
    trace: List[IterationRecord] = []
    termination = "max_iter"

    step_rule = cfg.step_rule if policy is None else "armijo"
    residual_fn = obj.residual if policy is None else policy.residual
    use_residual = cfg.residual_tol is not None and residual_fn is not None

    for k in range(cfg.max_iter + 1):
        grad_f = obj.f_grad(x)
        try:
            s = obj.partial_oracle(x, grad_f)
        except Exception as err:
            raise OracleError(k, err) from err
        gap = surrogate_gap(x, s, grad_f, obj)
        objective = obj.value(x)
        if not np.isfinite(objective):
            raise EvaluationError(f"non-finite objective at iteration {k}")
        grad_F = grad_f + obj.g_grad(x)
        residual = residual_fn(x, grad_F) if residual_fn is not None else None
        record = IterationRecord(
            k=k,
            objective=objective,
            surrogate_gap=gap if gap > 0.0 else 0.0,
            alpha=0.0,
            elapsed_s=time.perf_counter() - t0,
            extra_residual=residual,
        )
        if not cfg.record_trace:
            trace.clear()
        trace.append(record)

        if use_residual and residual <= cfg.residual_tol:
            termination = "fp_residual"
            break
        if policy is None and gap <= cfg.gap_tol:
            termination = "gap_tol" if gap >= 0.0 else "negative_gap"
            break
        if k == cfg.max_iter:
            termination = "max_iter"
            break

        dx = s - x if policy is None else policy.direction(x, grad_F)
        if np.max(np.abs(dx)) <= _TINY_STEP:
            termination = "stalled"
            break

        if step_rule == "exact":
            alpha = step_exact(obj, x, dx)
        elif step_rule == "armijo":
            f_ref = objective if policy is None else policy.reference(objective)
            alpha = step_armijo(obj, x, dx, grad_F, f_ref=f_ref)
        else:
            alpha = step_fixed(k)
        record.alpha = float(alpha)
        x = x + alpha * dx

    return SolveResult(x_final=x, trace=trace, termination=termination)


def cg_adapter(obj: SplitObjective, lmo: Callable[[np.ndarray], np.ndarray]) -> SplitObjective:
    """Classic conditional gradient as a degenerate splitting.

    Moves all of ``F = f + g`` into the smooth part and replaces the
    partial oracle by the linear minimization oracle ``lmo`` applied to
    the full gradient, so :func:`solve` runs textbook Frank-Wolfe and the
    recorded certificate is the classic surrogate duality gap.
    """
    return SplitObjective(
        f_eval=obj.value,
        f_grad=obj.grad,
        g_eval=lambda x: 0.0,
        g_grad=np.zeros_like,
        partial_oracle=lambda x, grad_F: lmo(grad_F),
        exact_step=obj.exact_step,  # minimizes the same F along chords
        residual=obj.residual,
    )


def estimate_curvature(obj: SplitObjective, sampler, rng,
                       n_samples: int = 100) -> float:
    """Sampled lower estimate of the curvature constant of ``F = f + g``.

    ``sampler(rng)`` must yield a pair of feasible points ``(x, s)``. The
    estimate is the largest observed value of
    ``2 [F(x + a (s - x)) - F(x) - a <grad F(x), s - x>] / a**2``
    over the samples and the steps ``a`` in {0.1, 0.25, 0.5, 0.75, 1};
    it approaches the true constant from below as sampling densifies.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    best = 0.0
    for _ in range(n_samples):
        x, s = sampler(rng)
        dx = s - x
        fx = obj.value(x)
        slope = float(np.vdot(obj.grad(x), dx))
        for a in _CURVATURE_ALPHAS:
            excess = obj.value(x + a * dx) - fx - a * slope
            best = max(best, 2.0 * excess / (a * a))
    return best


def check_fixed_point(obj: SplitObjective, x: np.ndarray) -> tuple:
    """Optimality diagnostics at ``x``: ``(gap, ||s - x||_inf)``.

    Both are near zero exactly at a minimizer; when the subproblem has
    multiple minimizers only the gap component is conclusive.
    """
    grad_f = obj.f_grad(x)
    s = obj.partial_oracle(x, grad_f)
    gap = surrogate_gap(x, s, grad_f, obj)
    return gap, float(np.max(np.abs(s - x)))
