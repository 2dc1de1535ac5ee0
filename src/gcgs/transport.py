# -*- coding: utf-8 -*-
"""
Entropic and Laplacian regularized optimal transport.

The problem minimized over the transport polytope
{gamma >= 0, gamma 1 = mu_s, gamma^T 1 = mu_t} is

    F(gamma) = <gamma, C>_F + lambda_lap * Omega_lap(gamma)
               + lambda_ent * Omega_ent(gamma)

with Omega_ent the negentropy sum(gamma * log(gamma)) and Omega_lap a
quadratic graph-Laplacian term penalizing distortion of transported
sample positions. The split used by the solver linearizes the cost and
Laplacian parts; the resulting subproblem is entropic transport with an
adjusted cost and is solved by Sinkhorn-Knopp scaling. An exact linear
minimizer, returning a vertex and its certifying duals, supports the
classic conditional gradient baseline: shortest augmenting paths from
auction-priced duals when the instance is an assignment problem (square,
all marginal entries equal), a transportation simplex otherwise.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import (as_matrix, as_vector, check_count, check_nonnegative,
                       check_positive, convex_min_unit, make_rng)
from .solver import SplitObjective, cg_adapter, iterate_cache

# Output plans and entropy-gradient arguments are floored here.
_PLAN_FLOOR = 1e-300

# Sinkhorn checks every _CHECK_EVERY sweeps and absorbs log-scalings
# beyond _ABSORB_BOUND into the potentials (exp overflows past 709).
_CHECK_EVERY = 10
_ABSORB_BOUND = 100.0
# Cap on Sinkhorn's overrelaxation weight. The estimate tends to 2 as
# the plain contraction tends to 1, and a fixed weight of 1.8 already
# left one warm `gcgs ot` call at the sweep cap.
_MAX_WEIGHT = 1.8
# Sinkhorn's Newton finish (_newton_step): a check switches to Newton
# steps once the violation is at most _NEWTON_BELOW and the sweeps, at
# the rate since the last check, would need more than _NEWTON_AFTER more
# to reach tol. Conjugate gradients stop at relative residual _CG_RTOL;
# the step is halved from 1 down to _NEWTON_MIN_STEP until the dual rises
# by _NEWTON_SIGMA times its predicted rise.
_NEWTON_BELOW = 1e-3
_NEWTON_AFTER = 20
_CG_RTOL = 0.3
_NEWTON_SIGMA = 1e-4
_NEWTON_MIN_STEP = 1.0 / 64.0

# Auction pricing of the assignment path's start (_auction_prices): eps
# shrinks by _AUCTION_SHRINK per phase from the reduced spread over that
# factor to _AUCTION_FLOOR times it, a phase ends at n // _AUCTION_FREE
# free rows, and _AUCTION_ROUNDS * n rounds run at most.
_AUCTION_SHRINK = 4.0
_AUCTION_FLOOR = 1e-4
_AUCTION_FREE = 5
_AUCTION_ROUNDS = 4


class ConvergenceError(RuntimeError):
    """Sinkhorn hit its iteration cap; carries the achieved violation."""

    def __init__(self, violation: float, max_iter: int):
        super().__init__(
            f"sinkhorn did not converge in {max_iter} iterations "
            f"(marginal violation {violation:.3e})")
        self.violation = violation


class DegeneracyError(RuntimeError):
    """Transportation simplex exceeded its pivot budget."""


def as_histogram(weights) -> np.ndarray:
    """Validate and return a probability histogram as a float64 array."""
    w = as_vector(weights)
    if np.any(w < 0):
        raise ValueError("histogram weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"histogram weights sum to {w.sum()!r}, expected 1")
    return w


def uniform_histogram(n: int) -> np.ndarray:
    """Equal weights on ``n`` points, an integer in [1, 2**63)."""
    return np.full(n, 1.0 / check_count("n", n))


def _transport_data(cost, mu_s, mu_t):
    """``(cost, mu_s, mu_t)`` as float64 arrays, the marginals checked by
    :func:`as_histogram` and the cost shaped ``(mu_s.size, mu_t.size)``."""
    cost = np.asarray(cost, dtype=np.float64)
    a, b = as_histogram(mu_s), as_histogram(mu_t)
    if cost.shape != (a.size, b.size):
        raise ValueError("cost shape does not match the marginals")
    return cost, a, b


def marginal_violation(gamma: np.ndarray, mu_s: np.ndarray, mu_t: np.ndarray) -> float:
    """Infinity-norm violation of the prescribed row/column sums."""
    row = np.max(np.abs(gamma.sum(axis=1) - mu_s))
    col = np.max(np.abs(gamma.sum(axis=0) - mu_t))
    return float(max(row, col))


# ---------------------------------------------------------------------------
# Regularizers and problem definition
# ---------------------------------------------------------------------------

def negentropy(gamma: np.ndarray) -> float:
    """sum(gamma * log(gamma)) with the convention 0 log 0 = 0.

    A negative entry makes the sum NaN, without a warning.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        logs = np.log(gamma, out=np.zeros_like(gamma), where=gamma != 0)
    logs *= gamma
    return float(np.sum(logs))


@dataclass
class TransportProblem:
    """Cost, marginals and regularization data for one transport instance.

    ``lambda_ent`` weights the negentropy term and must be positive;
    ``lambda_lap`` weights the Laplacian term and may be zero, in which
    case the graph fields may be omitted.
    """

    cost: np.ndarray
    mu_s: np.ndarray
    mu_t: np.ndarray
    lambda_ent: float
    lambda_lap: float = 0.0
    lap_s: Optional[np.ndarray] = None
    lap_t: Optional[np.ndarray] = None
    Xs: Optional[np.ndarray] = None
    Xt: Optional[np.ndarray] = None

    def __post_init__(self):
        self.cost, self.mu_s, self.mu_t = _transport_data(
            as_matrix(self.cost), self.mu_s, self.mu_t)
        r, c = self.cost.shape
        check_positive("lambda_ent", self.lambda_ent)
        check_nonnegative("lambda_lap", self.lambda_lap)
        if self.lambda_lap > 0:
            checked = []
            for name, L, n in (("lap_s", self.lap_s, r), ("lap_t", self.lap_t, c)):
                if L is None:
                    raise ValueError(f"{name} required when lambda_lap > 0")
                L = as_matrix(L)
                if L.shape != (n, n):
                    raise ValueError(f"{name} must be {n}x{n}")
                if np.max(np.abs(L - L.T)) > 1e-8:
                    raise ValueError(f"{name} must be symmetric")
                if np.max(np.abs(L.sum(axis=1))) > 1e-8:
                    raise ValueError(f"{name} rows must sum to 0")
                # symmetric part, so the gradient below can use 2 L
                checked.append(0.5 * (L + L.T))
            self.lap_s, self.lap_t = checked
            if self.Xs is None or self.Xt is None:
                raise ValueError("sample positions required when lambda_lap > 0")
            self.Xs = as_matrix(self.Xs)
            self.Xt = as_matrix(self.Xt)
            for name, X, n in (("Xs", self.Xs, r), ("Xt", self.Xt, c)):
                if X.shape[0] != n:
                    raise ValueError(f"{name} must have {n} rows, got {X.shape[0]}")


def laplacian_reg(gamma: np.ndarray, problem: TransportProblem) -> float:
    """Value of the position-preserving Laplacian regularizer."""
    if problem.lambda_lap == 0.0:
        return 0.0
    A, B = gamma @ problem.Xt, gamma.T @ problem.Xs
    return (float(np.sum(A * (problem.lap_s @ A)))
            + float(np.sum(B * (problem.lap_t @ B))))


def laplacian_reg_grad(gamma: np.ndarray, problem: TransportProblem) -> np.ndarray:
    """Gradient of :func:`laplacian_reg`, ``2 Ls A Xt^T + 2 Xs (Lt B)^T``.

    It reuses the value's plan images ``A`` and ``B``, so no Laplacian
    multiplies the plan itself.
    """
    if problem.lambda_lap == 0.0:
        return np.zeros_like(gamma)
    A, B = gamma @ problem.Xt, gamma.T @ problem.Xs
    return (2.0 * ((problem.lap_s @ A) @ problem.Xt.T)
            + 2.0 * (problem.Xs @ (problem.lap_t @ B).T))


def ot_objective(gamma: np.ndarray, problem: TransportProblem) -> float:
    """Full objective: transport cost + weighted regularizers."""
    return (float(np.vdot(gamma, problem.cost))
            + problem.lambda_lap * laplacian_reg(gamma, problem)
            + problem.lambda_ent * negentropy(gamma))


def ot_split(problem: TransportProblem, sinkhorn_tol: float = 1e-9,
             sinkhorn_max_iter: int = 10000,
             warm_start: bool = False) -> SplitObjective:
    """Split objective whose partial oracle is Sinkhorn on the adjusted cost.

    The smooth part collects the linear cost and the Laplacian term; the
    entropy stays exact in the subproblem, which therefore reduces to
    entropic transport with cost ``C + lambda_lap * grad(Omega_lap)``.
    The entropy gradient ``lambda_ent * (1 + log gamma)`` takes the plan
    floored at 1e-300, so it stays finite on plans with zero entries such
    as transport-simplex vertices; it is formed in the floored copy.
    The exact step restricts ``F`` to the chord ``gamma + a d``: the cost
    and Laplacian terms give the quadratic ``c1 a + c2 a^2`` from the
    gradient at ``gamma`` (in a :func:`~gcgs.solver.solve` run, the one
    the loop formed, kept by :func:`~gcgs.solver.iterate_cache`) and one
    ``laplacian_reg(d)``, and a safeguarded Newton search
    (:func:`~gcgs.numerics.convex_min_unit`) on the slope adds the
    entropy's ``lambda_ent * sum(d * (1 + log(gamma + a d)))``, one
    ``log`` over the moving entries per step. That slope is infinite
    where an entry of the plan reaches zero at an end of the chord, and
    near-zero entries make its curvature at ``a = 0`` so large that
    Newton steps from 0 crawl; the search therefore starts at the
    quadratic's own minimizer ``-c1 / (2 c2)`` (when ``c2 > 0`` and that
    lies inside (0, 1)), which needs no state, so the step stays a pure
    function of ``(gamma, d)``. When every entry of ``d`` moves, as on
    a chord between two Sinkhorn plans on full marginals, the step reads
    ``gamma`` and ``d`` through flat views instead of mask copies; every
    slope evaluation writes into the same two scratch vectors.
    With ``warm_start`` the oracle returns its Sinkhorn column potential
    as the ``warm`` of a solve's next call. ``g`` is formed once per
    point of a solve. ``sinkhorn_tol`` must be finite and positive and
    ``sinkhorn_max_iter`` an integer in [1, 2**63).
    """
    check_positive("sinkhorn_tol", sinkhorn_tol)
    check_count("sinkhorn_max_iter", sinkhorn_max_iter)

    def f_eval(gamma):
        return (float(np.vdot(gamma, problem.cost))
                + problem.lambda_lap * laplacian_reg(gamma, problem))

    @iterate_cache  # the exact step reuses the gradient solve formed
    def f_grad(gamma):
        return problem.cost + problem.lambda_lap * laplacian_reg_grad(gamma, problem)

    def g_grad(gamma):
        grad = np.maximum(gamma, _PLAN_FLOOR)
        np.log(grad, out=grad)
        grad += 1.0
        grad *= problem.lambda_ent
        return grad

    def oracle(gamma, grad_f, warm):
        plan, pots = sinkhorn(
            grad_f, problem.mu_s, problem.mu_t, problem.lambda_ent,
            tol=sinkhorn_tol, max_iter=sinkhorn_max_iter,
            potentials=warm, return_potentials=True)
        return plan, pots[1] if warm_start else None

    def exact_step(gamma, d):
        c1 = float(np.vdot(f_grad(gamma), d))
        c2 = problem.lambda_lap * laplacian_reg(d, problem)
        moving = d != 0.0
        if moving.all():
            x, dm = gamma.ravel(), d.ravel()
        else:
            x, dm = gamma[moving], d[moving]
        y, buf = np.empty_like(dm), np.empty_like(dm)
        lam = problem.lambda_ent

        def dphi(a):
            np.add(np.multiply(dm, a, out=y), x, out=y)  # y = x + a d
            # y = 0 at an end of the chord (slope +-inf) and inside it where
            # a d or (1 - a) x underflows: there y = (1 - a) x + a (x + d)
            # is formed in logs. d / y * d is NaN-free where d * d underflows
            with np.errstate(divide="ignore", over="ignore"):
                entropy_slope = float(dm @ np.add(np.log(y, out=buf), 1.0, out=buf))
                under = None
                if 0.0 < a < 1.0 and not math.isfinite(entropy_slope):
                    under = np.flatnonzero(y == 0.0)
                    xu, du = x[under], dm[under]
                    log_y = np.logaddexp(math.log1p(-a) + np.log(xu),
                                         math.log(a) + np.log(xu + du))
                    buf[under] = log_y + 1.0
                    entropy_slope = float(dm @ buf)
                np.divide(dm, y, out=buf)
                if under is not None:
                    buf[under] = np.copysign(np.exp(np.log(np.abs(du)) - log_y), du)
                entropy_curv = float(buf @ dm)
            return (c1 + 2.0 * c2 * a + lam * entropy_slope,
                    2.0 * c2 + lam * entropy_curv)

        start = -c1 / (2.0 * c2) if c2 > 0.0 else None
        return convex_min_unit(dphi, start)

    return SplitObjective(
        f_eval=f_eval,
        f_grad=f_grad,
        g_eval=iterate_cache(lambda gamma: problem.lambda_ent * negentropy(gamma)),
        g_grad=g_grad,
        partial_oracle=oracle,
        exact_step=exact_step,
        residual=lambda gamma, grad_F: marginal_violation(
            gamma, problem.mu_s, problem.mu_t),
    )


def ot_cg_split(problem: TransportProblem, warm_start: bool = True) -> SplitObjective:
    """Classic conditional gradient formulation of the same problem.

    Fully linearizes the objective of :func:`ot_split` and calls
    :func:`transport_lmo` as linear minimization oracle, which starts
    every call cold and returns no ``warm``. ``warm_start`` does nothing; it is
    kept only for callers that still pass it (ROADMAP item 5 removes
    it). Vertices of the polytope carry exact zeros; the split's floored
    entropy gradient keeps the full gradient finite there.
    """
    return cg_adapter(ot_split(problem),
                      lambda g: transport_lmo(g, problem.mu_s, problem.mu_t)[0])


# ---------------------------------------------------------------------------
# Sinkhorn-Knopp scaling
# ---------------------------------------------------------------------------

def _stabilized_kernel(cost, lambda_ent, g=None, out=None):
    """``(K, f, g)`` with ``K = exp(-cost / lambda_ent - 1 + f ⊕ g)``, in ``out``.

    ``f`` makes every row of ``K`` peak at 1, so only ``g`` (zero when
    omitted) is read; columns peaking below ``exp(-_ABSORB_BOUND)`` are
    lifted to it in the returned ``g``. So no row or column of ``K`` is
    zero. A non-finite ``cost / lambda_ent`` raises ``ValueError``.
    """
    with np.errstate(over="ignore"):  # an overflow is caught just below
        L = np.divide(cost, -lambda_ent, out=out)
        L -= 1.0
        if g is not None:
            L += g[None, :]
    shift = L.max(axis=1)
    # NaN and +inf show in their row's maximum, -inf in the minimum
    if not (np.isfinite(shift).all() and math.isfinite(L.min())):
        raise ValueError("cost_adj / lambda_ent has non-finite entries")
    L -= shift[:, None]
    lift = np.maximum(-_ABSORB_BOUND - L.max(axis=0), 0.0)
    L += lift[None, :]
    return np.exp(L, out=L), -shift, lift if g is None else g + lift


def _newton_step(K, u, v, Kv, a, b, budget):
    """One damped Newton step on the entropic dual, from exact columns.

    In the log-scalings ``(alpha, beta)`` the dual has gradient
    ``(a - P 1, b - P^T 1)`` and Hessian ``-[[diag(P 1), P], [P^T,
    diag(P^T 1)]]`` (Brauer, Clason, Lorenz & Wirth 2017). Exact columns
    zero the second block of the gradient, so eliminating ``beta``
    leaves ``S x = a - r`` with ``r = P 1`` and
    ``S = diag(r) - P diag(1/b) P^T``. Conjugate gradients preconditioned
    by ``diag(r)`` solve it to a relative residual of ``_CG_RTOL``; an
    iteration makes one kernel product pair, ``K^T (u x)`` and
    ``K (v^2 / b ...)``, on vectors. The step ``t x`` starts at ``t = 1``
    and is halved while the dual after a plain ``v`` sweep rises by less
    than ``_NEWTON_SIGMA t <a - r, x>``. That rise is formed from the
    columns' change ``v K^T (u expm1(t x))``, one product per trial, so
    it keeps its digits near the optimum. An accepted step ends with the
    plain ``v`` sweep, so the columns are exact again.

    Makes at most ``2 budget`` kernel products. Returns the new
    ``(u, v, K v)``, or None when no step raises the dual, and the number
    of products made.
    """
    limit = 2 * budget - 3  # room for one trial and the closing sweep
    r = u * Kv
    grad = a - r
    vb = v * v / b
    x = np.zeros(r.size)
    res = grad.copy()
    z = res / r
    p = z.copy()
    rz = float(res @ z)
    stop = _CG_RTOL ** 2 * rz
    products = 0
    while products + 2 <= limit:
        Sp = r * p - u * (K @ (vb * (K.T @ (u * p))))
        products += 2
        pSp = float(p @ Sp)
        if not pSp > 0.0:  # S is only semidefinite; rounding can do this
            break
        alpha = rz / pSp
        x += alpha * p
        res -= alpha * Sp
        z = res / r
        rz, rz_old = float(res @ z), rz
        if rz <= stop:
            break
        p *= rz / rz_old
        p += z
    slope, ax = float(grad @ x), float(a @ x)
    t = 1.0
    while slope > 0.0 and t >= _NEWTON_MIN_STEP and products < limit:
        ex = np.expm1(t * x)
        dc = v * (K.T @ (u * ex))
        products += 1
        gain = t * ax - float(b @ np.log1p(dc / b))
        if _NEWTON_SIGMA * t * slope <= gain < math.inf:
            u = u * (1.0 + ex)
            v = b / (K.T @ u)
            return (u, v, K @ v), products + 2
        t *= 0.5
    return None, products


def sinkhorn(cost_adj: np.ndarray, mu_s, mu_t, lambda_ent: float,
             tol: float = 1e-9, max_iter: int = 10000, potentials=None,
             return_potentials: bool = False):
    """Entropic transport plan by stabilized Sinkhorn-Knopp scaling.

    Minimizes ``<gamma, cost_adj> + lambda_ent * sum(gamma log gamma)``
    over the transport polytope of the histograms ``mu_s``, ``mu_t``.
    The plan is ``exp(-cost_adj/lambda_ent - 1 + f ⊕ g)``; the sweeps
    scale ``u``, ``v`` on a kernel stabilized by the potentials ``f``,
    ``g`` (Schmitzer 2019; Peyré & Cuturi 2019, §4.4), which
    :func:`_stabilized_kernel` builds from the cost and ``g``. Every
    ``_CHECK_EVERY`` sweeps, and at the cap, scalings whose log passes
    ``_ABSORB_BOUND`` are absorbed (``log v`` into ``g``, the kernel
    rebuilt, both reset to ones), and non-finite ones roll back to the
    last checked ``v``, which is absorbed instead. So any
    ``lambda_ent > 0`` with a finite ``cost_adj / lambda_ent`` runs the
    same sweeps.

    The sweeps are overrelaxed, ``u <- u (a / (u K v))^w`` and likewise
    ``v``, which keeps the fixed point (Thibault, Chizat, Dossal &
    Papadakis 2021; Lehmann, von Renesse, Sambale & Uschmajew 2021).
    The weight starts at ``w = 1`` (plain sweeps). From two plain checks
    the per-sweep contraction ``q = (viol_k / viol_{k-1})^(1/10)`` sets
    ``w = min(2 / (1 + sqrt(1 - q)), 1.8)``. Whenever a checked violation
    does not fall, and on every rollback, ``w`` falls back to 1 and is
    estimated again. A check sweep scales ``v`` plainly, so the columns
    are exact there and the row violation is the plan's violation.

    Late sweeps can contract at nearly 1, so the loop finishes with
    Newton steps on the dual (:func:`_newton_step`; Brauer, Clason,
    Lorenz & Wirth 2017). A check switches to them once its violation
    is at most 1e-3 and the sweeps would need more than 20 further ones
    to reach ``tol`` at the rate since the previous check (or the
    violation did not fall). A Newton step costs
    one kernel product pair per conjugate-gradient iteration, one
    product per line-search trial and the pair of its closing plain
    ``v`` sweep, and every step is checked. A step that finds no ascent,
    a rollback and an absorption return the loop to sweeps until the
    switch rule holds again.

    A call holds one matrix the size of the support, which is the
    log-kernel, then the kernel, then the plan: an absorption rewrites
    the log-kernel from the cost into it, and the plan is the kernel
    scaled in place (with zero marginals it is then copied into a
    full-size plan). The Newton steps work on vectors only. Arrays this
    large get fresh pages from the allocator, so every further matrix
    would cost its page faults.

    Returns the plan, with entries floored at 1e-300, once its marginal
    violation (infinity norm) is at most ``tol``; after ``max_iter``
    sweeps (an integer in [1, 2**63); a product pair of a Newton step
    counts as one) raises :class:`ConvergenceError` carrying the achieved
    violation. ``return_potentials`` also returns the plan's ``(f, g)``,
    ``-inf`` at zero marginals. Warm ``potentials`` are a previous
    call's ``g``, shaped (c,) and finite where ``mu_t`` is positive.
    """
    cost_adj, a, b = _transport_data(cost_adj, mu_s, mu_t)
    check_positive("lambda_ent", lambda_ent)
    check_positive("tol", tol)
    check_count("max_iter", max_iter)
    rows, cols = a > 0, b > 0
    g = None
    if potentials is not None:
        g = np.asarray(potentials, dtype=np.float64)
        if g.shape != b.shape or not np.all(np.isfinite(g[cols])):
            raise ValueError(f"potentials must have shape {b.shape} and be "
                             "finite where mu_t is positive")
        g = g[cols]
    a_s, b_s = a[rows], b[cols]

    # zero-mass rows and columns get no plan mass: scale on the support,
    # a view when there are none (fancy indexing copies, and the copy
    # becomes the buffer)
    full = rows.all() and cols.all()
    support = np.s_[:, :] if full else np.ix_(rows, cols)
    K = cost_adj[support]
    K, f, g = _stabilized_kernel(K, lambda_ent, g, out=None if full else K)
    u, v = np.ones(f.size), np.ones(g.size)
    Kv = K.sum(axis=1)
    lv_ok = 0.0
    viol = last = np.inf
    w = 1.0
    sweeps, due, newton = 0, _CHECK_EVERY, False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            if newton:
                step, products = _newton_step(K, u, v, Kv, a_s, b_s,
                                              max_iter - sweeps)
                sweeps += (products + 1) // 2  # a product pair counts as a sweep
                if step is None:  # no ascent: back to plain sweeps
                    newton, w, last = False, 1.0, np.inf
                else:
                    u, v, Kv = step
            else:
                sweeps += 1
                u_plain = a_s / Kv
                u = u_plain if w == 1.0 else u * (u_plain / u) ** w
                v_plain = b_s / (K.T @ u)
                # plain on check sweeps, so the columns are exact there
                check = sweeps >= due or sweeps >= max_iter
                v = v_plain if w == 1.0 or check else v * (v_plain / v) ** w
                Kv = K @ v
                if not check:
                    continue
            due = sweeps + _CHECK_EVERY
            lu, lv = np.log(u), np.log(v)
            finite = np.all(np.isfinite(lu)) and np.all(np.isfinite(lv))
            if finite:
                viol = float(np.max(np.abs(u * Kv - a_s)))
                if viol <= tol:
                    break
            if sweeps >= max_iter:
                raise ConvergenceError(viol, max_iter)
            if not finite:
                lv, w, last, newton = lv_ok, 1.0, np.inf, False
            elif not newton:
                if viol <= _NEWTON_BELOW and last < np.inf and (
                        viol >= last or _CHECK_EVERY * math.log(tol / viol)
                        < _NEWTON_AFTER * math.log(viol / last)):
                    newton = True  # slow near the end: Newton steps next
                elif viol >= last:  # not falling: plain again, then re-estimate
                    w, last = 1.0, np.inf
                else:
                    if w == 1.0 and last < np.inf:
                        q = (viol / last) ** (1.0 / _CHECK_EVERY)
                        w = min(2.0 / (1.0 + math.sqrt(1.0 - q)), _MAX_WEIGHT)
                    last = viol
            if finite and max(np.max(np.abs(lu)), np.max(np.abs(lv))) <= _ABSORB_BOUND:
                lv_ok = lv
                continue
            K, f, g = _stabilized_kernel(cost_adj[support], lambda_ent, g + lv, out=K)
            u, v = np.ones(f.size), np.ones(g.size)
            Kv = K.sum(axis=1)
            lv_ok = 0.0
            newton = False  # until sweeps make the columns exact again

    K *= u[:, None]
    K *= v[None, :]
    gamma = np.maximum(K, _PLAN_FLOOR, out=K)
    if not full:
        gamma = np.full(cost_adj.shape, _PLAN_FLOOR)
        gamma[support] = K
    if not return_potentials:
        return gamma
    pots = (np.full(a.size, -np.inf), np.full(b.size, -np.inf))
    pots[0][rows] = f + lu
    pots[1][cols] = g + lv
    return gamma, pots


# ---------------------------------------------------------------------------
# Exact linear minimization: transportation simplex
# ---------------------------------------------------------------------------

def _hang(top, tree):
    """Hang every node below ``top`` from it, breadth first.

    ``tree`` is ``(basis, costs, adjacency, parent, edge, depth, pot)``:
    the basic cells, the cost rows as lists, ``{other node: cell index}``
    per node (demand ``j`` is node ``r + j``), and per node its parent,
    parent-cell index, depth and dual (``u`` then ``v``), all set at
    ``top``. The walk sets them below it, so that ``u_i + v_j = c_ij``
    on every basic cell, and returns the visited nodes, ``top`` first.
    A walk from the root (node 0, cell -1, dual 0) first rebuilds the
    adjacency in basis order, so it depends on the basis alone.
    """
    basis, costs, adjacency, parent, edge, depth, pot = tree
    if top == 0:
        r = len(costs)
        adjacency[:] = [{} for _ in pot]
        for t, (i, j) in enumerate(basis):
            adjacency[i][r + j] = adjacency[r + j][i] = t
    order = [top]
    for node in order:
        for other, t in adjacency[node].items():
            if t != edge[node]:
                parent[other], edge[other], depth[other] = node, t, depth[node] + 1
                i, j = basis[t]
                pot[other] = costs[i][j] - pot[node]
                order.append(other)
    return order


def _subtree_flows(mass, parent, edge, order):
    """Basic flows for node masses: signed subtree sums, leaves first."""
    excess = list(mass)
    flows = [0.0] * (len(order) - 1)
    for node in order[:0:-1]:
        flows[edge[node]] = excess[node]
        excess[parent[node]] -= excess[node]
    return flows


def transport_lmo(cost_adj: np.ndarray, mu_s, mu_t):
    """Exact minimizer of ``<gamma, cost_adj>`` over the transport polytope.

    Returns ``(gamma, (u, v))``, a vertex and the dual potentials that
    certify it: all reduced costs ``cost_adj - u[:, None] - v`` are
    ``>= -1e-9 max(1, max|cost_adj|)`` and ``mu_s @ u + mu_t @ v``
    equals the plan's value.
    Square instances whose marginal entries are all one float are
    assignment problems (the vertices of the scaled Birkhoff polytope
    are scaled permutations), solved by shortest augmenting paths from
    auction-priced duals (:func:`_assignment`): the plan is ``mu_s[i]``
    at each assigned cell and exactly zero elsewhere; where the optimum
    is unique, the prices cannot change it. Every other instance goes to
    the transportation simplex (:func:`_transport_simplex`), which raises
    :class:`DegeneracyError` past its pivot budget. A cost that is not
    finite, or large enough to overflow the potentials, raises
    ``ValueError``.
    """
    cost, a, b = _transport_data(cost_adj, mu_s, mu_t)
    r, c = cost.shape
    # Both paths stay finite while 8 (r + c) M does, M = max |cost|.
    # With R = max cost - min cost <= 2 M: a simplex potential sums at
    # most r + c - 1 costs of alternating sign along its tree path from
    # u[0] = 0, so a reduced cost (cost - u) - v is within 2 (r + c) M.
    # Assignment (n >= 2, so the limit is at least 32 M; at n = 1 the
    # spread is 0 and nothing is priced): the reductions leave v0 in
    # [0, R] and reduced costs in [0, S], S <= R. The auction keeps its
    # prices p in [0, 1.25 S] (:func:`_auction_prices`), its values
    # below 2.25 S and its bids below 2.5 S. So v = v0 - p is in
    # [-1.25 R, R] and u = min(cost - v) in [min cost - R,
    # max cost + 1.25 R]. A free row reaches a free column within that
    # cell's reduced cost, at most S + 1.25 S, and free columns keep
    # their v, so u stays at most max cost + 3.5 R (u + v <= cost on a
    # free column before each augmentation) and v, cost - u on assigned
    # cells, at least -4.5 R. Each scan entry cost + (d - u) - v is then
    # within 22.5 M; the factor left covers rounding. NaN fails the
    # test too. Rounding its at most 2 (r + c) additions leaves a
    # simplex reduced cost about 2 (r + c) eps M off, so the simplex
    # stops once none is below -2 (r + c) eps M: large costs do not
    # pivot on noise, and tiny ones still pivot to their optimum.
    limit = sys.float_info.max / (8.0 * (r + c))
    if not np.abs(cost).max() <= limit:
        raise ValueError(f"cost is not finite, or beyond {limit:.3e} where its "
                         "range overflows")

    if r == c and np.all(a == a[0]) and np.all(b == a[0]):
        cols, u, v = _assignment(cost)
        gamma = np.zeros((r, c))
        gamma[np.arange(r), cols] = a
        return gamma, (u, v)
    return _transport_simplex(cost, a, b)


def _auction_prices(reduced):
    """Column prices from epsilon-scaling Jacobi auction rounds.

    Bertsekas 1988, "The auction algorithm: a distributed relaxation
    method for the assignment problem", Ann. Oper. Res. 14, on the
    nonnegative ``reduced`` costs, whose minimum is 0. In a round every
    free row bids for its cheapest column (cost plus price): the price
    rises until that column costs the row ``eps`` more than its
    second-cheapest. The highest bid takes each column, the first row on
    a tie, and frees the row that held it. ``eps`` starts at the spread
    ``S`` over ``_AUCTION_SHRINK`` and shrinks by that factor per phase
    down to ``_AUCTION_FLOOR * S``; a phase starts with every row free
    and ends once at most ``n // _AUCTION_FREE`` are. At most
    ``_AUCTION_ROUNDS * n`` rounds run in all. Prices are shifted to a
    minimum of 0 after every round, so they stay in ``[0, 1.25 S]``: a
    bid is at most ``S + eps`` above the cheapest other column's price.
    A zero spread returns zero prices (``eps`` would be 0).
    """
    n = reduced.shape[0]
    prices = np.zeros(n)
    spread = float(reduced.max())
    if spread == 0.0:
        return prices
    eps = spread / _AUCTION_SHRINK
    rounds = _AUCTION_ROUNDS * n
    while rounds:
        owner = np.full(n, -1)
        held = np.zeros(n, dtype=bool)
        free = np.arange(n)
        while free.size > n // _AUCTION_FREE and rounds:
            rounds -= 1
            values = reduced[free]
            values += prices
            bidders = np.arange(free.size)
            picks = values.argmin(axis=1)
            best = values[bidders, picks]
            values[bidders, picks] = np.inf
            second = values[bidders, values.argmin(axis=1)]
            bids = prices[picks] + (second - best) + eps
            # per column, the highest bid first, then the first row
            order = np.lexsort((-bids, picks))
            won = np.ones(order.size, dtype=bool)
            won[1:] = picks[order[1:]] != picks[order[:-1]]
            order = order[won]
            cols, rows = picks[order], free[order]
            prices[cols] = bids[order]
            prices -= prices.min()
            outbid = owner[cols]
            held[outbid[outbid >= 0]] = False
            owner[cols] = rows
            held[rows] = True
            free = np.flatnonzero(~held)
        if eps <= _AUCTION_FLOOR * spread:
            break
        eps = max(eps / _AUCTION_SHRINK, _AUCTION_FLOOR * spread)
    return prices


def _assignment(cost):
    """Optimal assignment of rows to columns, with its dual potentials.

    Shortest augmenting paths (Jonker & Volgenant 1987; Crouse 2016,
    "On implementing 2D rectangular assignment algorithms", IEEE TAES)
    from a priced start. Rows are reduced, then columns, and auction
    rounds on the reduced costs (:func:`_auction_prices`) price the
    columns: ``v`` drops by the prices and ``u`` is the row minimum of
    ``cost - v``. Each row, in row order, takes its cheapest column if
    no earlier row did; those cells are tight. Each row left free then
    grows a Dijkstra tree over the reduced costs
    ``cost - u[:, None] - v`` until it reaches a free column, swaps the
    assignments along the path and updates the duals of the scanned rows
    and columns once. Good prices make most trees short; the paths alone
    make the result exact, whatever the prices.
    A step scans one row into the tentative distances: a scanned column
    is ``-inf`` in the augmentation's copy of ``v``, so its distance
    stays ``+inf`` and the argmin never picks it again. The scanned rows
    are kept and give each path column's predecessor at the end, as the
    first scan that reached its distance.

    Returns ``(cols, u, v)``: row ``i`` goes to column ``cols[i]``,
    ``u_i + v_j <= cost_ij`` up to rounding, with equality on the
    assigned cells. The range check in :func:`transport_lmo` keeps
    every price, distance and dual finite, so each search reaches a free
    column within ``n`` steps.
    """
    n = cost.shape[0]
    reduced = cost - cost.min(axis=1)[:, None]
    v = reduced.min(axis=0)
    reduced -= v
    v -= _auction_prices(reduced)
    priced = cost - v
    cheapest = priced.argmin(axis=1)
    u = priced[np.arange(n), cheapest]
    col4row = [-1] * n
    row4col = [-1] * n
    # np.unique gives each column's first row, in row order
    taken, first = np.unique(cheapest, return_index=True)
    for j, i in zip(taken.tolist(), first.tolist()):
        col4row[i], row4col[j] = j, i
    for free in [i for i in range(n) if col4row[i] < 0]:
        dist = np.full(n, np.inf)
        v_open = v.copy()
        rows, cols, reached, scans = [], [], [], []
        i, d = free, 0.0
        for _ in range(n):
            scan = cost[i] + (d - u[i])
            scan -= v_open
            np.minimum(dist, scan, out=dist)
            j = int(dist.argmin())
            d = float(dist[j])
            dist[j] = np.inf
            v_open[j] = -np.inf
            rows.append(i)
            cols.append(j)
            reached.append(d)
            scans.append(scan)
            i = row4col[j]
            if i < 0:
                break
        # duals: u + v stays <= cost, with equality on the tree's cells
        shift = d - np.array(reached)
        u[rows[0]] += d
        u[rows[1:]] += shift[:-1]
        v[cols] -= shift
        scans = np.array(scans)
        while i != free:
            i = rows[int(scans[:, j].argmin())]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return np.array(col4row), u, v


def _transport_simplex(cost, a, b):
    """Transportation simplex behind :func:`transport_lmo`.

    MODI pivoting from a north-west-corner start. One walk
    (:func:`_hang`) roots the basis tree, giving the duals and the basic
    flows as subtree sums. The tree is kept across pivots: each pivot
    climbs from both ends of the entering cell to their common ancestor
    for the cycle, shifts its flows and re-hangs the subtree the leaving
    cell cuts off with the same walk. Marginals are perturbed by
    ``i * 1e-12`` (then re-normalized) against degenerate pivoting; the
    returned vertex is solved on the final tree against the original
    marginals, so its row and column sums are exact up to summation
    error. Returns ``(gamma, (u, v))``, certified as in
    :func:`transport_lmo`.
    """
    r, c = cost.shape
    eps0 = 1e-12
    ap = a + eps0 * np.arange(1, r + 1)
    ap = ap / ap.sum()
    bp = b + eps0 * np.arange(1, c + 1)
    bp = bp / bp.sum()
    perturbed = np.concatenate([ap, bp]).tolist()

    rem = list(perturbed)
    basis = []
    i = j = 0
    while True:
        x = min(rem[i], rem[r + j])
        basis.append((i, j))
        rem[i] -= x
        rem[r + j] -= x
        if i == r - 1 and j == c - 1:
            break
        if rem[i] <= rem[r + j] and i < r - 1:
            i += 1
        elif j < c - 1:
            j += 1
        else:
            i += 1

    n, costs, adjacency = r + c, cost.tolist(), []
    parent, edge, depth, pot = [0] * n, [-1] * n, [0] * n, [0.0] * n
    tree = (basis, costs, adjacency, parent, edge, depth, pot)
    flows = _subtree_flows(perturbed, parent, edge, _hang(0, tree))
    # rounding noise in a reduced cost (see transport_lmo) is not a descent
    noise = 2 * n * sys.float_info.epsilon * np.abs(cost).max()
    max_pivots = 4 * r * c + 1000
    for pivot in range(max_pivots + 1):
        duals = np.array(pot)
        reduced = cost - duals[:r, None]
        reduced -= duals[r:]
        flat = int(reduced.argmin())
        ei, ej = divmod(flat, c)
        if reduced[ei, ej] >= -noise:
            break
        if pivot == max_pivots:
            raise DegeneracyError(
                f"pivot budget exhausted after {max_pivots} pivots")
        # the entering cell gains theta; climbing from either of its
        # ends to the common ancestor, the 1st, 3rd, ... cells lose it
        sides = ([], [])
        ends = [ei, r + ej]
        while ends[0] != ends[1]:
            k = 0 if depth[ends[0]] >= depth[ends[1]] else 1
            sides[k].append(edge[ends[k]])
            ends[k] = parent[ends[k]]
        losing = sides[1][0::2] + sides[0][0::2][::-1]
        leaving = min(losing, key=flows.__getitem__)
        theta = flows[leaving]
        for t in losing:
            flows[t] -= theta
        for t in sides[0][1::2] + sides[1][1::2]:
            flows[t] += theta
        flows[leaving] = theta
        i, j = basis[leaving]
        del adjacency[i][r + j], adjacency[r + j][i]
        basis[leaving] = (ei, ej)
        adjacency[ei][r + ej] = adjacency[r + ej][ei] = leaving
        # the leaving cell cut off the subtree holding the entering end on
        # its side: hang it from the other end
        top, below = (r + ej, ei) if leaving in sides[0] else (ei, r + ej)
        parent[below], edge[below], depth[below] = top, leaving, depth[top] + 1
        pot[below] = costs[ei][ej] - pot[top]
        _hang(below, tree)

    # rooting the tree again rewrites pot with the same bits: the duals
    # the last reduced costs read are the returned ones
    final = _subtree_flows(np.concatenate([a, b]).tolist(), parent, edge, _hang(0, tree))
    gamma = np.zeros((r, c))
    rows, cols = zip(*basis)
    gamma[rows, cols] = np.clip(final, 0.0, None)
    return gamma, (duals[:r], duals[r:])


# ---------------------------------------------------------------------------
# Graphs and synthetic data
# ---------------------------------------------------------------------------

def knn_laplacian(X: np.ndarray, k: int) -> np.ndarray:
    """Symmetrized k-nearest-neighbor graph Laplacian of the rows of X.

    The binary adjacency keeps the k nearest rows per point (self
    excluded, distance ties broken by index order) and is symmetrized by
    W := max(W, W^T); the result D - W is symmetric, PSD, with zero row
    sums.
    """
    X = as_matrix(X)
    n = X.shape[0]
    if check_count("k", k) >= n:
        raise ValueError(f"need k < n, got k={k!r}, n={n}")
    d2 = squared_distances(X, X)
    np.fill_diagonal(d2, np.inf)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    W = np.zeros((n, n))
    W[np.arange(n)[:, None], idx] = 1.0
    W = np.maximum(W, W.T)
    return np.diag(W.sum(axis=1)) - W


def make_cluster_data(ns: int, nt: int, n_clusters: int = 3,
                      noise: float = 0.05, seed: int = 0):
    """Two-domain 2-D cluster samples with uniform histograms.

    Source points sit in ``n_clusters`` Gaussian blobs; the target blobs
    are a rotated and shifted copy of the source centers with fresh
    noise. Deterministic for a given seed. ``ns``, ``nt`` and
    ``n_clusters`` must be integers in [1, 2**63) with ``n_clusters <=
    min(ns, nt)``, ``noise`` finite and nonnegative, and ``seed`` an
    integer in [0, 2**64).

    Returns
    -------
    (Xs, Xt, mu_s, mu_t)
    """
    ns, nt = check_count("ns", ns), check_count("nt", nt)
    if check_count("n_clusters", n_clusters) > min(ns, nt):
        raise ValueError("need 1 <= n_clusters <= min(ns, nt)")
    check_nonnegative("noise", noise)
    rng = make_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(n_clusters, 2))
    shift = rng.uniform(0.3, 0.6, size=2)
    angle = math.pi / 6.0
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    centroid = centers.mean(axis=0)
    centers_t = (centers - centroid) @ rot.T + centroid + shift

    assign_s = np.arange(ns) % n_clusters
    assign_t = np.arange(nt) % n_clusters
    Xs = centers[assign_s] + noise * rng.standard_normal((ns, 2))
    Xt = centers_t[assign_t] + noise * rng.standard_normal((nt, 2))
    return Xs, Xt, uniform_histogram(ns), uniform_histogram(nt)


def squared_distances(Xs: np.ndarray, Xt: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean cost matrix between two point sets."""
    Xs = as_matrix(Xs)
    Xt = as_matrix(Xt)
    d2 = (np.sum(Xs * Xs, axis=1)[:, None] + np.sum(Xt * Xt, axis=1)[None, :]
          - 2.0 * (Xs @ Xt.T))
    return np.maximum(d2, 0.0)

