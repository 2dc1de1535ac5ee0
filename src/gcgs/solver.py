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
:class:`SpectralProjectedGradient`. Neither policies nor splits hold
per-solve state: :func:`solve` carries the oracle's warm state, the
previous iterate and the trace the nonmonotone reference is read from.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .numerics import (EvaluationError, check_count, check_nonnegative,
                       golden_section_min)

STEP_RULES = ("exact", "armijo", "fixed")

# Directions shorter than this are treated as numerical fixed points.
_TINY_STEP = 1e-14

# Armijo sufficient-decrease constant.
_ARMIJO_SIGMA = 1e-4


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

    ``partial_oracle(x, grad_f, warm)`` returns ``(s, warm)``: ``s`` a
    feasible minimizer of ``<grad_f, s> + g(s)`` over the feasible set,
    and opaque state that :func:`solve` hands the next call (``None`` to
    the first). ``g_grad`` is ``None`` when ``g = 0``; ``grad f`` is then
    ``grad F`` itself. ``exact_step``, when given, replaces golden-section
    search with a problem-supplied 1-D minimizer. ``residual(x, grad_F)``,
    ``grad_F = grad f(x) + grad g(x)``, is an optional problem-specific
    optimality measure, traced and usable as a stopping rule.
    """

    f_eval: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    g_eval: Callable[[np.ndarray], float]
    g_grad: Optional[Callable[[np.ndarray], np.ndarray]]
    partial_oracle: Callable[[np.ndarray, np.ndarray, object], tuple]
    exact_step: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    residual: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def value(self, x: np.ndarray) -> float:
        return self.f_eval(x) + self.g_eval(x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        if self.g_grad is None:
            return self.f_grad(x)
        return self.f_grad(x) + self.g_grad(x)


def iterate_cache(fn: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """``fn`` computed once per point of a :func:`solve` run.

    :func:`solve` makes every iterate, and :func:`step_armijo` every
    trial point, a read-only array that owns its data, which nothing can
    change in place without first setting it writeable again. The cache
    keeps the last two such arrays as ``(x, fn(x))`` tuples (an accepted
    Armijo trial survives the rejected doubling tried after it) and
    answers from them, matched by identity, only while they are still
    read-only. Every other argument goes straight to ``fn``, so a caller
    that changes an array between calls gets a fresh value; one that
    makes a point writeable, changes it and freezes it again does not.
    Callers share a cached value and must not change it.
    """
    held = ()

    def cached(x):
        nonlocal held
        for point, value in held:
            if point is x and not x.flags.writeable:
                return value
        value = fn(x)
        if (isinstance(x, np.ndarray) and x.base is None
                and not x.flags.writeable):
            held = (held[-1], (x, value)) if held else ((x, value),)
        return value

    return cached


@dataclass
class SolverConfig:
    """Step rule, tolerances and iteration caps for :func:`solve`.

    ``gap_tol`` is an absolute threshold on the surrogate gap.
    ``residual_tol`` activates the problem-specific residual stopping
    rule when the objective defines one (e.g. the projected fixed-point
    residual of the constrained elastic-net solvers). Both tolerances
    must be finite and nonnegative. ``step_rule`` is one of
    ``STEP_RULES``; :func:`solve` starts each Armijo search
    (:func:`step_armijo`) at the last accepted step.
    """

    step_rule: str = "exact"
    max_iter: int = 1000
    gap_tol: float = 1e-8
    residual_tol: Optional[float] = None

    def __post_init__(self):
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        check_count("max_iter", self.max_iter)
        # an infinite tolerance would stop every run at iteration 0
        check_nonnegative("gap_tol", self.gap_tol)
        if self.residual_tol is not None:
            check_nonnegative("residual_tol", self.residual_tol)


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
                  obj: SplitObjective, g_x: Optional[float] = None,
                  d: Optional[np.ndarray] = None) -> float:
    """Certified suboptimality bound at ``x`` given the oracle output ``s``.

    Returns ``-[<grad_f, s - x> + g(s) - g(x)]``, which is nonnegative
    whenever ``s`` minimizes the bracket and bounds ``F(x) - F(x*)`` from
    above. Invariant to adding a constant to ``g``. ``g_x`` and ``d``,
    when given, are ``g(x)`` and the chord ``s - x`` as the caller
    already formed them.
    """
    if g_x is None:
        g_x = obj.g_eval(x)
    if d is None:
        d = s - x
    bracket = float(np.vdot(grad_f, d)) + obj.g_eval(s) - g_x
    return -bracket


def step_exact(obj: SplitObjective, x: np.ndarray, dx: np.ndarray) -> float:
    """Step length minimizing ``F(x + a dx)`` over [0, 1].

    Uses the objective's own ``exact_step`` when available, otherwise a
    golden-section search (200-evaluation cap). Returns 0 for a zero
    direction; a non-finite ``exact_step`` result raises
    :class:`~gcgs.numerics.EvaluationError`.
    """
    if not dx.any():
        return 0.0
    if obj.exact_step is not None:
        alpha = obj.exact_step(x, dx)
        if not math.isfinite(alpha):
            raise EvaluationError(f"exact step is not finite: {alpha!r}")
        return float(min(max(alpha, 0.0), 1.0))
    return golden_section_min(lambda a: obj.value(x + a * dx))


def step_armijo(obj: SplitObjective, x: np.ndarray, dx: np.ndarray,
                grad_F_x: np.ndarray, f_ref: float, start: float = 1.0) -> tuple:
    """Largest step in {1, 0.5, 0.25, ...} with sufficient decrease.

    Accepts ``a`` when ``F(x + a dx) <= f_ref + 1e-4 * a * <grad_F, dx>``,
    with ``f_ref`` the caller's ``F(x)`` or a nonmonotone reference, and
    raises :class:`StallError` below 2**-50 (a non-descent direction or
    numerical breakdown). Returns ``(a, x + a dx, F(x + a dx))``, the
    point read-only, so a caller can step to it without evaluating ``F``.

    ``start``, a step of the same grid (typically the previous accepted
    step), warm-starts the search. The first trial is at ``start``; when
    it is accepted the step doubles while the doubled step is accepted,
    up to 1. When it is rejected the next trial is one notch below, at
    ``start / 2``, which is returned if accepted; only when that is
    rejected too does the search scan down from 1, as it does for
    ``start=1``, skipping the two trials already made. For convex ``F``
    the accepted steps form an interval ``[0, a_max]``, also under a
    nonmonotone ``f_ref >= F(x)``, so every ``start`` returns the step
    of the scan from 1 and makes no more trials than a scan that
    skipped only ``start``. Where rounding makes acceptance non-monotone
    (an ``F`` flat to its last bits) the two may differ, and a scan that
    finds a step above ``start`` costs one trial more. Restarting from 1
    after the notch below, rather than halving further, keeps a rejected
    warm start from locking the search onto tiny steps at that floor.
    """
    mantissa, exponent = math.frexp(start)
    if mantissa != 0.5 or not -49 <= exponent <= 1:
        raise ValueError(f"start must be 2**-j with 0 <= j <= 50, got {start!r}")
    slope = float(np.vdot(grad_F_x, dx))

    def trial(a):
        """``(a, point, F(point))`` if the step ``a`` is accepted, else None."""
        point = x + a * dx
        point.flags.writeable = False
        value = obj.value(point)
        if value <= f_ref + _ARMIJO_SIGMA * a * slope:
            return a, point, value
        return None

    step = trial(start)
    if step is not None:
        while step[0] < 1.0:
            wider = trial(2.0 * step[0])
            if wider is None:
                break
            step = wider
        return step
    below = 0.5 * start
    if below >= 2.0 ** -50:
        step = trial(below)
        if step is not None:
            return step
    alpha = 1.0
    while alpha >= 2.0 ** -50:
        if alpha != start and alpha != below:
            step = trial(alpha)
            if step is not None:
                return step
        alpha *= 0.5
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
    ``||d||_inf``, the fixed-point residual, is the convergence measure.
    The Armijo reference is the largest of the last ``window``
    objectives; ``warm_start`` says whether the search starts from the
    last accepted step. A policy holds no per-solve state (see
    :func:`solve`), so one policy serves any number of solves.
    """

    window = 1
    warm_start = True

    def __init__(self, project: Callable[[np.ndarray], np.ndarray]):
        self.project = project

    def direction(self, x: np.ndarray, grad_F: np.ndarray, d: np.ndarray,
                  previous: Optional[tuple]) -> np.ndarray:
        """The step from ``x``, given its ``d = P(x - grad F(x)) - x`` and
        the previous iterate's ``(x, grad F)`` (``None`` at the start)."""
        return d


class SpectralProjectedGradient(ProjectedGradient):
    """Spectral projected gradient with Barzilai-Borwein steps.

    The direction is ``P(x - a grad F(x)) - x`` with ``a`` the
    Barzilai-Borwein step ``<s, s> / <s, y>`` of the move from the
    previous iterate (1 at the start, 1e10 when ``<s, y> <= 0``),
    clipped to [1e-10, 1e10]. The Armijo rule is nonmonotone: its
    reference value is the largest objective over the last 10 iterates
    (Birgin, Martinez & Raydan 2000). The spectral step rescales every
    direction, so the search starts from the full step.
    """

    window = 10
    warm_start = False

    def direction(self, x, grad_F, d, previous):
        if previous is None:
            return d  # the step a = 1 is the fixed-point step itself
        sk, yk = x - previous[0], grad_F - previous[1]
        sy = float(sk @ yk)
        a = min(max(float(sk @ sk) / sy, 1e-10), 1e10) if sy > 0.0 else 1e10
        return self.project(x - a * grad_F) - x


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
    the residual, the policy direction and the Armijo rule; ``g(x)``
    likewise feeds both the gap and the objective, and the chord
    ``s - x`` both the gap and the step. An Armijo step moves
    to the accepted trial point and keeps the objective the search
    computed there, so ``F`` is evaluated once per point. Every
    iterate is a read-only array, which lets an objective cache work at
    a point across its callables (see :func:`iterate_cache`);
    ``x_final`` is writeable again.

    A direction ``policy`` replaces the step toward the oracle output.
    The step rule is then always Armijo, and the gap is recorded without
    stopping the run. ``solve`` forms the fixed-point step
    ``d = P(x - grad F) - x`` with the policy's projection ``P`` once per
    iterate, traces ``||d||_inf`` as the residual and hands ``d`` and the
    previous iterate's ``(x, grad F)`` to ``policy.direction``. The
    Armijo reference is the largest objective over the last
    ``policy.window`` records of the trace (the current objective on the
    splitting path). All per-solve state lives here, so a policy or a
    split reused for another solve gives a fresh one's trace.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    x.flags.writeable = False
    t0 = time.perf_counter()
    trace: List[IterationRecord] = []
    termination = "max_iter"

    step_rule = cfg.step_rule if policy is None else "armijo"
    warm_start = policy is None or policy.warm_start
    window = 1 if policy is None else policy.window
    alpha = 1.0
    objective = None  # F(x) when an Armijo search has computed it
    warm = previous = d = None

    for k in range(cfg.max_iter + 1):
        grad_f = obj.f_grad(x)
        try:
            s, warm = obj.partial_oracle(x, grad_f, warm)
        except Exception as err:
            raise OracleError(k, err) from err
        g_x = obj.g_eval(x)
        chord = s - x
        gap = surrogate_gap(x, s, grad_f, obj, g_x, chord)
        if objective is None:
            objective = obj.f_eval(x) + g_x
        if not math.isfinite(objective):
            raise EvaluationError(f"non-finite objective at iteration {k}")
        grad_F = grad_f if obj.g_grad is None else grad_f + obj.g_grad(x)
        if policy is not None:
            d = policy.project(x - grad_F) - x
            residual = float(np.abs(d).max())
        else:
            residual = obj.residual(x, grad_F) if obj.residual is not None else None
        record = IterationRecord(
            k=k,
            objective=objective,
            surrogate_gap=gap if gap > 0.0 else 0.0,
            alpha=0.0,
            elapsed_s=time.perf_counter() - t0,
            extra_residual=residual,
        )
        trace.append(record)

        if (residual is not None and cfg.residual_tol is not None
                and residual <= cfg.residual_tol):
            termination = "fp_residual"
            break
        if policy is None and gap <= cfg.gap_tol:
            termination = "gap_tol" if gap >= 0.0 else "negative_gap"
            break
        if k == cfg.max_iter:
            termination = "max_iter"
            break

        dx = chord if policy is None else policy.direction(x, grad_F, d, previous)
        # a policy that keeps d has its size in the residual already
        if (residual if dx is d else np.abs(dx).max()) <= _TINY_STEP:
            termination = "stalled"
            break

        previous = (x, grad_F)
        if step_rule == "armijo":
            f_ref = max(rec.objective for rec in trace[-window:])
            alpha, x, objective = step_armijo(obj, x, dx, grad_F, f_ref=f_ref,
                                              start=alpha if warm_start else 1.0)
        else:
            alpha = step_exact(obj, x, dx) if step_rule == "exact" else step_fixed(k)
            x = x + alpha * dx
            x.flags.writeable = False
            objective = None
        record.alpha = float(alpha)

    x.flags.writeable = True
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
        g_grad=None,
        partial_oracle=lambda x, grad_F, warm: (lmo(grad_F), None),
        exact_step=obj.exact_step,  # minimizes the same F along chords
        residual=obj.residual,
    )


def check_fixed_point(obj: SplitObjective, x: np.ndarray) -> tuple:
    """Optimality diagnostics at ``x``: ``(gap, ||s - x||_inf)``.

    Both are near zero exactly at a minimizer; when the subproblem has
    multiple minimizers only the gap component is conclusive. The
    oracle starts cold, and the ``warm`` it returns is dropped.
    """
    grad_f = obj.f_grad(x)
    s, _ = obj.partial_oracle(x, grad_f, None)
    gap = surrogate_gap(x, s, grad_f, obj)
    return gap, float(np.max(np.abs(s - x)))
