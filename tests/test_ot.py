"""Tests for the transport stack: Sinkhorn, the exact LMO, regularizers.

Expected values come from five independent oracles defined below:
a bisection solver for 2x2 entropic transport (one free parameter),
plain log-domain Sinkhorn sweeps that never leave the log domain (they
also count the plain sweeps the overrelaxed loop is measured against),
brute-force vertex enumeration of small transport polytopes, a
transportation simplex that rebuilds its basis tree every pivot, and
scipy's LP solver for medium instances.
"""

import decimal
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog
from scipy.special import xlogy

import gcgs
from gcgs.numerics import golden_section_min, make_rng
from gcgs.solver import (OracleError, SolverConfig, check_fixed_point, solve,
                         step_exact, surrogate_gap)
from gcgs.transport import (
    ConvergenceError,
    TransportProblem,
    as_histogram,
    knn_laplacian,
    laplacian_reg,
    laplacian_reg_grad,
    make_cluster_data,
    marginal_violation,
    negentropy,
    negentropy_grad,
    ot_cg_split,
    ot_objective,
    ot_split,
    sinkhorn,
    squared_distances,
    transport_lmo,
    uniform_histogram,
)
from test_numerics import finite_diff_grad
from test_solver import (assert_chord_steps_agree,
                         assert_cold_armijo_gives_the_same_run, trace_bits)


def entropic_plan_2x2(cost, a, b, lam):
    """Entropic optimal 2x2 plan by bisection on the free parameter.

    A 2x2 plan with marginals (a, b) is determined by t = gamma[0, 0]
    alone, feasible on (max(0, a0 + b0 - 1), min(a0, b0)).  The
    objective derivative in t is

        (c00 - c01 - c10 + c11)
        + lam * log(t * (t + 1 - a0 - b0) / ((a0 - t) * (b0 - t)))

    which is strictly increasing and spans (-inf, +inf) on the open
    interval, so the optimum is its unique root.
    """
    a0, b0 = a[0], b[0]
    dc = cost[0, 0] - cost[0, 1] - cost[1, 0] + cost[1, 1]
    lo = max(0.0, a0 + b0 - 1.0)
    hi = min(a0, b0)
    for _ in range(200):
        t = 0.5 * (lo + hi)
        deriv = dc + lam * np.log(
            t * (t + 1.0 - a0 - b0) / ((a0 - t) * (b0 - t)))
        if deriv < 0.0:
            lo = t
        else:
            hi = t
    t = 0.5 * (lo + hi)
    return np.array([[t, a0 - t], [b0 - t, 1.0 - a0 - b0 + t]])


def lmo_by_enumeration(cost, a, b):
    """Exact transport LP minimum by enumerating basic feasible plans.

    Tries every subset of r + c - 1 cells, solves the marginal
    equations on that support by least squares, and keeps solutions
    that are feasible and consistent.  All polytope vertices appear
    among the candidates, so the smallest candidate value is the LP
    optimum.  Only practical for very small instances.
    """
    r, c = cost.shape
    incidence = np.zeros((r + c, r * c))
    for i in range(r):
        for j in range(c):
            incidence[i, i * c + j] = 1.0
            incidence[r + j, i * c + j] = 1.0
    rhs = np.concatenate([a, b])
    flat_cost = cost.ravel()
    best_value = np.inf
    best_plan = None
    for cells in itertools.combinations(range(r * c), r + c - 1):
        cols = incidence[:, cells]
        f, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        if np.linalg.norm(cols @ f - rhs) > 1e-9 or f.min() < -1e-10:
            continue
        value = float(flat_cost[list(cells)] @ f)
        if value < best_value:
            best_value = value
            plan = np.zeros(r * c)
            plan[list(cells)] = np.clip(f, 0.0, None)
            best_plan = plan.reshape(r, c)
    return best_plan, best_value


def lmo_by_linprog(cost, a, b):
    """Transport LP minimum via scipy's HiGHS solver."""
    r, c = cost.shape
    incidence = np.zeros((r + c, r * c))
    for i in range(r):
        for j in range(c):
            incidence[i, i * c + j] = 1.0
            incidence[r + j, i * c + j] = 1.0
    res = linprog(cost.ravel(), A_eq=incidence,
                  b_eq=np.concatenate([a, b]), method="highs")
    assert res.status == 0
    return res.x.reshape(r, c), float(res.fun)


def log_domain_sweeps(cost, a, b, lam, g=None):
    """Plain Sinkhorn sweeps on max-shifted log-sum-exps, without end.

    Each sweep sets the potentials directly,
    ``f = log a - LSE_j(log_kernel + g)`` and
    ``g = log b - LSE_i(log_kernel + f)``, starting from ``g`` (zero by
    default), so no scaling is ever formed and no value can overflow.
    Yields the plan after each sweep and its row violation (the columns
    are exact after each sweep).
    """
    log_kernel = -cost / lam - 1.0
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)

    def lse(m, axis):
        top = m.max(axis=axis, keepdims=True)
        return np.squeeze(
            top + np.log(np.exp(m - top).sum(axis=axis, keepdims=True)), axis)

    g = np.zeros(len(b)) if g is None else g
    while True:
        f = log_a - lse(log_kernel + g[None, :], 1)
        g = log_b - lse(log_kernel + f[:, None], 0)
        plan = np.exp(log_kernel + f[:, None] + g[None, :])
        yield plan, np.max(np.abs(plan.sum(axis=1) - a))


def sinkhorn_log_reference(cost, a, b, lam, tol, max_iter=200000, g=None):
    """Entropic plan by :func:`log_domain_sweeps`.

    Returns the plan once the row violation is at most ``tol``, or None
    after ``max_iter`` sweeps.
    """
    sweeps = itertools.islice(log_domain_sweeps(cost, a, b, lam, g), max_iter)
    return next((plan for plan, viol in sweeps if viol <= tol), None)


def plain_sweep_count(cost, a, b, lam, tol, max_iter, g=None):
    """Plain (not overrelaxed) sweeps :func:`log_domain_sweeps` takes to
    bring the violation to ``tol``, checked after every sweep, or None
    when ``max_iter`` sweeps do not."""
    sweeps = itertools.islice(log_domain_sweeps(cost, a, b, lam, g), max_iter)
    return next((k for k, (_, viol) in enumerate(sweeps, 1) if viol <= tol), None)


class CountingKernel(np.ndarray):
    """A view of the Sinkhorn kernel that counts its products with vectors
    (``K @ x`` and ``K.T @ y``; a sweep makes two) and its row sums (one
    per kernel build)."""

    products = 0

    def __matmul__(self, other):
        CountingKernel.products += 1
        return np.asarray(self) @ other

    def sum(self, *args, **kwargs):
        CountingKernel.products += 1
        return np.asarray(self).sum(*args, **kwargs)


def spy_kernel_builds(monkeypatch, kernel_type=np.ndarray):
    """Log every Sinkhorn kernel build: returns the list that gets each
    built kernel's shape. Each kernel is handed on as a view of
    ``kernel_type``."""
    import gcgs.transport
    build = gcgs.transport._stabilized_kernel
    shapes = []

    def spy(*args, **kwargs):
        K, f, g = build(*args, **kwargs)
        shapes.append(K.shape)
        return K.view(kernel_type), f, g

    monkeypatch.setattr(gcgs.transport, "_stabilized_kernel", spy)
    return shapes


def count_kernel_products(monkeypatch, fn):
    """``fn()`` and the kernel products the Sinkhorn calls in it made."""
    spy_kernel_builds(monkeypatch, CountingKernel)
    CountingKernel.products = 0
    result = fn()
    return result, CountingKernel.products


def assert_exact_step_minimizes(problem, x, d):
    """:func:`ot_split`'s exact step along ``x + a d`` is finite, the
    slope changes sign at it (or points out of [0, 1] at an end) and it
    is no worse than golden section."""
    split = ot_split(problem)
    alpha = step_exact(split, x, d)
    assert np.isfinite(alpha) and 0.0 <= alpha <= 1.0

    def slope(t):
        y = x + t * d
        moving = d != 0.0
        with np.errstate(divide="ignore"):
            entropy = float(d[moving] @ (1.0 + np.log(y[moving])))
        return (float(np.vdot(split.f_grad(y), d))
                + problem.lambda_ent * entropy)

    tol = 1e-9 * (1.0 + abs(float(np.vdot(split.f_grad(x), d))))
    if alpha == 0.0:
        assert slope(0.0) >= -tol
    elif alpha == 1.0:
        assert slope(1.0) <= tol
    else:
        # the slope changes sign within 1e-12 of alpha; it need not be
        # small at alpha itself, since a root next to an entry that
        # reaches zero can sit closer to the end than floats resolve
        assert slope(max(alpha - 1e-12, 0.0)) <= tol
        assert slope(min(alpha + 1e-12, 1.0)) >= -tol
    f_golden = split.value(
        x + golden_section_min(lambda t: split.value(x + t * d)) * d)
    assert split.value(x + alpha * d) <= f_golden + 1e-12 * max(1.0, abs(f_golden))


def transport_lmo_rebuild_reference(cost, a, b):
    """Transportation simplex that re-roots the whole basis tree every pivot.

    The same pivot rules as ``transport_lmo`` (north-west-corner start on
    marginals perturbed by ``i * 1e-12``, entering cell the first argmin
    of the reduced costs, leaving cell the first minimum flow among the
    losing cycle cells), but every pivot recomputes the duals and the
    basic flows from scratch on the rooted tree. Returns the plan.
    """
    r, c = cost.shape
    ap = a + 1e-12 * np.arange(1, r + 1)
    bp = b + 1e-12 * np.arange(1, c + 1)
    perturbed = np.concatenate([ap / ap.sum(), bp / bp.sum()])
    rem = perturbed.copy()
    basis, i, j = [], 0, 0
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

    def rooted(mass):
        adjacency = [[] for _ in range(r + c)]
        for t, (i, j) in enumerate(basis):
            adjacency[i].append((r + j, t))
            adjacency[r + j].append((i, t))
        pot = np.zeros(r + c)
        parent, edge, depth = [0] * (r + c), [-1] * (r + c), [0] * (r + c)
        order = [0]
        for node in order:
            for other, t in adjacency[node]:
                if t != edge[node]:
                    parent[other], edge[other] = node, t
                    depth[other] = depth[node] + 1
                    pot[other] = cost[basis[t]] - pot[node]
                    order.append(other)
        excess, flows = list(mass), [0.0] * len(basis)
        for node in order[:0:-1]:
            flows[edge[node]] = excess[node]
            excess[parent[node]] -= excess[node]
        return pot[:r], pot[r:], parent, edge, depth, flows

    noise = 2 * (r + c) * sys.float_info.epsilon * np.abs(cost).max()
    for _ in range(4 * r * c + 1000):
        u, v, parent, edge, depth, flows = rooted(perturbed)
        reduced = cost - u[:, None] - v[None, :]
        ei, ej = divmod(int(np.argmin(reduced)), c)
        if reduced[ei, ej] >= -noise:
            break
        sides, ends = ([], []), [ei, r + ej]
        while ends[0] != ends[1]:
            k = 0 if depth[ends[0]] >= depth[ends[1]] else 1
            sides[k].append(edge[ends[k]])
            ends[k] = parent[ends[k]]
        losing = sides[1][0::2] + sides[0][0::2][::-1]
        basis[min(losing, key=flows.__getitem__)] = (ei, ej)
    else:
        raise AssertionError("reference simplex exhausted its pivot budget")
    final = rooted(np.concatenate([a, b]))[-1]
    gamma = np.zeros((r, c))
    for t, cell in enumerate(basis):
        gamma[cell] = max(final[t], 0.0)
    return gamma


def _hist(rng, n):
    # bounded below, so no marginal is vanishingly small
    w = 0.2 + rng.random(n)
    return w / w.sum()


class TestOracleSelfChecks:
    def test_bisection_gives_product_plan_without_interaction(self):
        # c00 + c11 == c01 + c10 decouples the cost, and the entropic
        # optimum of a pure entropy objective is the product plan
        cost = np.array([[0.4, 0.9], [0.1, 0.6]])
        a = np.array([0.3, 0.7])
        b = np.array([0.55, 0.45])
        plan = entropic_plan_2x2(cost, a, b, lam=0.7)
        np.testing.assert_allclose(plan, np.outer(a, b), atol=1e-12)

    def test_enumeration_identity_cost(self):
        cost = 1.0 - np.eye(3)
        plan, value = lmo_by_enumeration(cost, uniform_histogram(3),
                                         uniform_histogram(3))
        np.testing.assert_allclose(plan, np.eye(3) / 3.0, atol=1e-10)
        assert abs(value) <= 1e-10

    def test_enumeration_matches_hand_solved_2x2(self):
        # interaction -2 < 0 pushes t to its upper bound min(a0, b0)
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = np.array([0.3, 0.7])
        b = np.array([0.6, 0.4])
        plan, value = lmo_by_enumeration(cost, a, b)
        np.testing.assert_allclose(
            plan, np.array([[0.3, 0.0], [0.3, 0.4]]), atol=1e-10)
        assert abs(value - 0.3) <= 1e-10

    def test_enumeration_agrees_with_linprog(self):
        rng = make_rng(11)
        cost = rng.random((3, 3))
        a = _hist(rng, 3)
        b = _hist(rng, 3)
        _, val_enum = lmo_by_enumeration(cost, a, b)
        _, val_lp = lmo_by_linprog(cost, a, b)
        assert abs(val_enum - val_lp) <= 1e-9


def _draw_sinkhorn_instance(data):
    """Marginals with zero entries, lambda, a cost and the cost moved by
    up to 1000 lambda, drawn for the Sinkhorn properties."""
    r, c = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    lam = data.draw(st.floats(1e-3, 1.0))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))

    def hist(n):
        w = data.draw(hnp.arrays(np.float64, n, elements=weight)
                      .filter(lambda w: w.sum() > 0))
        return w / w.sum()

    a, b = hist(r), hist(c)
    cost = data.draw(hnp.arrays(np.float64, (r, c),
                                elements=st.floats(0.0, 1.0)))
    moved = cost + lam * data.draw(hnp.arrays(
        np.float64, (r, c), elements=st.floats(-1000.0, 1000.0)))
    return a, b, lam, cost, moved


class TestSinkhorn:
    @pytest.mark.parametrize("lam", [1.0, 0.35])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_2x2_bisection_oracle(self, lam, seed):
        rng = make_rng(seed)
        cost = rng.random((2, 2))
        a = _hist(rng, 2)
        b = _hist(rng, 2)
        plan = sinkhorn(cost, a, b, lam, tol=1e-12)
        oracle = entropic_plan_2x2(cost, a, b, lam)
        np.testing.assert_allclose(plan, oracle, atol=1e-8)

    def test_marginals_within_tol(self):
        rng = make_rng(5)
        cost = rng.random((7, 9))
        a = _hist(rng, 7)
        b = _hist(rng, 9)
        plan = sinkhorn(cost, a, b, 0.3, tol=1e-10)
        assert marginal_violation(plan, a, b) <= 1e-10
        assert plan.min() > 0.0

    def test_constant_cost_gives_product_plan(self):
        rng = make_rng(7)
        a = _hist(rng, 5)
        b = _hist(rng, 6)
        plan = sinkhorn(np.full((5, 6), 0.8), a, b, 0.5, tol=1e-12)
        np.testing.assert_allclose(plan, np.outer(a, b), atol=1e-12)

    @pytest.mark.parametrize("lam", [0.25, 0.05])
    def test_matches_log_domain_reference(self, lam):
        rng = make_rng(9)
        cost = rng.random((6, 8))
        a = _hist(rng, 6)
        b = _hist(rng, 8)
        plan = sinkhorn(cost, a, b, lam, tol=1e-12)
        reference = sinkhorn_log_reference(cost, a, b, lam, tol=1e-12)
        assert reference is not None
        np.testing.assert_allclose(plan, reference, atol=1e-9)

    def test_tiny_regularization_approaches_lp_value(self):
        rng = make_rng(13)
        cost = 0.05 + rng.random((10, 12))
        a = _hist(rng, 10)
        b = _hist(rng, 12)
        lam = 1.3e-3
        # precondition: the plain kernel underflows outright
        assert cost.max() / lam + 1.0 > 700.0
        plan = sinkhorn(cost, a, b, lam, tol=1e-9, max_iter=20000)
        assert marginal_violation(plan, a, b) <= 1e-9
        # at this regularization the plan is close to an LP vertex
        _, lp_value = lmo_by_linprog(cost, a, b)
        assert float(np.vdot(plan, cost)) <= lp_value + 0.05

    def test_tiny_regularization_matches_log_domain_reference(self):
        rng = make_rng(17)
        cost = 1.0 + rng.random((4, 5))
        a = _hist(rng, 4)
        b = _hist(rng, 5)
        # precondition: the plain kernel underflows to all zeros
        assert np.exp(-cost / 1e-3 - 1.0).max() == 0.0
        plan = sinkhorn(cost, a, b, 1e-3, tol=1e-12, max_iter=200000)
        assert marginal_violation(plan, a, b) <= 1e-12
        reference = sinkhorn_log_reference(cost, a, b, 1e-3, tol=1e-12)
        assert reference is not None
        np.testing.assert_allclose(plan, reference, atol=1e-9)

    def test_warm_start_potentials(self):
        rng = make_rng(19)
        cost = rng.random((6, 8))
        a = _hist(rng, 6)
        b = _hist(rng, 8)
        plan1, (_, g) = sinkhorn(cost, a, b, 0.3, tol=1e-10,
                                 return_potentials=True)
        plan2 = sinkhorn(cost, a, b, 0.3, tol=1e-10, potentials=g)
        np.testing.assert_allclose(plan2, plan1, atol=1e-9)
        # a warm g stays usable after a moderate cost perturbation
        bumped = cost + 0.01 * rng.random((6, 8))
        plan3 = sinkhorn(bumped, a, b, 0.3, tol=1e-10, potentials=g)
        assert marginal_violation(plan3, a, b) <= 1e-10

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_plans_feasible_and_reproduced_by_potentials(self, data):
        """Cold calls, then warm calls on a cost moved by up to 1000 lambda."""
        a, b, lam, cost, moved = _draw_sinkhorn_instance(data)
        g = None
        for cost_k in (cost, moved):
            # Sinkhorn's sweep count has no bound over this domain (nearly
            # tied marginals under one dominant kernel entry converge
            # sublinearly), so the property is checked where the
            # log-domain reference converges from the same start
            assume(sinkhorn_log_reference(
                cost_k, a, b, lam, tol=1e-9, max_iter=5000, g=g) is not None)
            plan, (f, g) = sinkhorn(cost_k, a, b, lam, tol=1e-9,
                                    max_iter=100000, potentials=g,
                                    return_potentials=True)
            assert np.all(np.isfinite(plan)) and plan.min() >= 0.0
            assert marginal_violation(plan, a, b) <= 1e-9
            # kernel entries below the normal range (2.2e-308) keep fewer
            # digits; scaled into the plan they stay far below 1e-200
            rebuilt = np.exp(-cost_k / lam - 1.0 + f[:, None] + g[None, :])
            np.testing.assert_allclose(np.maximum(rebuilt, 1e-300), plan,
                                       rtol=1e-9, atol=1e-200)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_converges_wherever_plain_sweeps_do(self, data):
        """Overrelaxation costs no convergence at a cap of 1,000 sweeps.

        Cold calls, then warm calls on the moved cost: wherever plain
        sweeps reach ``tol`` within ``cap``, so does :func:`sinkhorn`
        given the same ``max_iter``. (At a cap near 50, a weight
        estimated on a plateau can miss: README "Numerical notes".)
        """
        a, b, lam, cost, moved = _draw_sinkhorn_instance(data)
        cap, g = 1000, None
        for cost_k in (cost, moved):
            assume(plain_sweep_count(
                cost_k, a, b, lam, tol=1e-9, max_iter=cap, g=g) is not None)
            plan, (_, g) = sinkhorn(cost_k, a, b, lam, tol=1e-9, max_iter=cap,
                                    potentials=g, return_potentials=True)
            assert marginal_violation(plan, a, b) <= 1e-9

    def test_overrelaxed_sweeps_beat_plain_sweeps_on_a_cluster_cost(self):
        Xs, Xt, a, b = make_cluster_data(60, 60, seed=0)
        cost = squared_distances(Xs, Xt)
        # measured: plain sweeps need 1,876; sinkhorn took 310 before its
        # Newton finish and takes 87 with it (kernel products over two)
        assert plain_sweep_count(cost, a, b, 0.01, tol=1e-5,
                                 max_iter=1000) is None
        plan = sinkhorn(cost, a, b, 0.01, tol=1e-5, max_iter=1000)
        assert marginal_violation(plan, a, b) <= 1e-5

    def test_near_tie_converges_within_the_cap(self):
        """One dominant kernel entry fills a row and a column whose
        marginals tie: the sweeps converge sublinearly. After 1,000 plain
        sweeps the violation is 2.1e-4, and overrelaxed ones alone reached
        4.7e-5 (a ``ConvergenceError`` at this cap). The Newton finish
        reaches 1e-9 well inside it."""
        cost = np.zeros((6, 6))
        cost[2, 3] = -19.0
        a = np.array([0.0, 0.2, 0.3, 0.1, 0.2, 0.2])
        b = np.array([0.1, 0.2, 0.0, 0.3, 0.2, 0.2])
        _, plain = next(itertools.islice(
            log_domain_sweeps(cost, a, b, 1.0), 999, None))
        assert plain > 2e-4
        plan = sinkhorn(cost, a, b, 1.0, tol=1e-9, max_iter=1000)
        assert marginal_violation(plan, a, b) <= 1e-9

    def test_newton_finish_kernel_products(self, monkeypatch):
        """Kernel products (both products of a sweep, and every row sum of
        a new kernel) on the 60x60 cluster cost at lambda 0.01, counted by
        :class:`CountingKernel`. Measured before the Newton finish, then
        with it: 622 and 174 for a cold call at 1e-5; for a call warm from
        its column potential on the cost moved by up to 1e-2, at 1e-9, a
        ``ConvergenceError`` at 100,000 sweeps (violation 9.6e-9) and 135.
        """
        Xs, Xt, a, b = make_cluster_data(60, 60, seed=0)
        cost = squared_distances(Xs, Xt)
        (plan, (_, g)), products = count_kernel_products(
            monkeypatch, lambda: sinkhorn(cost, a, b, 0.01, tol=1e-5,
                                          return_potentials=True))
        assert marginal_violation(plan, a, b) <= 1e-5
        assert products <= 180
        moved = cost + 0.01 * make_rng(0).random(cost.shape)
        plan, products = count_kernel_products(
            monkeypatch, lambda: sinkhorn(moved, a, b, 0.01, tol=1e-9,
                                          potentials=g))
        assert marginal_violation(plan, a, b) <= 1e-9
        assert products <= 140

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_contract_at_tight_tolerances(self, data):
        """Cold calls, then warm calls on the moved cost, at tolerances
        from 1e-6 down to 1e-12 and a cap of 1,000 sweeps (a CG product
        pair counts as one): wherever the log-domain reference reaches
        ``tol`` within the cap, the plan meets ``tol``, is floored, agrees
        with the reference, and the potentials are finite on the support.
        Both plans are within ``tol`` of the marginals; the measured
        distance between them was at most 1.9 ``tol``."""
        a, b, lam, cost, moved = _draw_sinkhorn_instance(data)
        tol = 10.0 ** -data.draw(st.integers(6, 12), label="-log10(tol)")
        cap, g = 1000, None
        for cost_k in (cost, moved):
            reference = sinkhorn_log_reference(
                cost_k, a, b, lam, tol=tol, max_iter=cap, g=g)
            assume(reference is not None)
            plan, (f, g) = sinkhorn(cost_k, a, b, lam, tol=tol, max_iter=cap,
                                    potentials=g, return_potentials=True)
            assert marginal_violation(plan, a, b) <= tol
            assert plan.min() >= 1e-300
            assert np.all(np.isfinite(f[a > 0]))
            assert np.all(np.isfinite(g[b > 0]))
            np.testing.assert_allclose(plan, reference, rtol=0.0, atol=10.0 * tol)

    @pytest.mark.parametrize("seed", [72, 123])
    def test_non_finite_scalings_roll_back(self, seed):
        """Marginals of entries ``U^20`` under ``lambda < 1e-3``: checked
        with a counter on the rollback branch, the scalings of these draws
        overflow and roll back to the last checked ones (seed 72 at sweep
        50, seed 123 at sweep 30), and the call still meets its contract.
        The same draw rolled back on 182 of seeds 0-3999."""
        rng = np.random.default_rng(seed)
        r, c = rng.integers(2, 7, size=2)
        lam = 10 ** rng.uniform(-4, -1)
        cost = rng.random((r, c))
        a, b = (w / w.sum() for w in (rng.random(n) ** 20 + 1e-12 for n in (r, c)))
        plan, (f, g) = sinkhorn(cost, a, b, lam, tol=1e-9, max_iter=2000,
                                return_potentials=True)
        assert marginal_violation(plan, a, b) <= 1e-9
        assert plan.min() >= 1e-300
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))

    def test_convergence_error_carries_violation(self):
        rng = make_rng(23)
        cost = rng.random((6, 6))
        a = _hist(rng, 6)
        b = _hist(rng, 6)
        with pytest.raises(ConvergenceError, match="3 iterations") as info:
            sinkhorn(cost, a, b, 0.05, tol=1e-13, max_iter=3)
        assert info.value.violation > 1e-13

    def test_input_validation(self):
        a = uniform_histogram(2)
        cost = np.zeros((2, 2))
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                sinkhorn(np.array([[0.0, bad], [0.0, 0.0]]), a, a, 0.5)
        # a finite cost whose quotient by lambda_ent overflows raises the
        # ValueError alone, also where warnings are errors
        with pytest.raises(ValueError, match="finite"), warnings.catch_warnings():
            warnings.simplefilter("error")
            sinkhorn(np.array([[0.0, 1e300], [0.0, 0.0]]), a, a, 1e-10)
        # only the support is checked: a NaN on a zero-mass row is never
        # read, one on the support raises
        zero_row = np.array([0.0, 1.0])
        for i, accepted in ((0, True), (1, False)):
            nan_row = np.zeros((2, 2))
            nan_row[i, 1] = np.nan
            if accepted:
                plan = sinkhorn(nan_row, zero_row, a, 0.5)
                assert plan[0].tolist() == [1e-300, 1e-300]
                assert marginal_violation(plan, zero_row, a) <= 1e-9
            else:
                with pytest.raises(ValueError, match="finite"):
                    sinkhorn(nan_row, zero_row, a, 0.5)
        # one NaN is rejected up front, not after the sweep cap
        nan_cost = make_rng(29).random((50, 50))
        nan_cost[17, 3] = np.nan
        w = uniform_histogram(50)
        with pytest.raises(ValueError, match="finite"):
            sinkhorn(nan_cost, w, w, 0.1, max_iter=50000)
        # a length-1 potential would broadcast; it is rejected instead
        for g in (np.zeros(1), np.zeros(3)):
            with pytest.raises(ValueError, match="shape"):
                sinkhorn(cost, a, a, 0.5, potentials=g)
        with pytest.raises(ValueError, match="finite where"):
            sinkhorn(cost, a, a, 0.5, potentials=np.array([0.0, np.nan]))
        for lam in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="lambda_ent must be finite"):
                sinkhorn(cost, a, a, lam)
        # a NaN tol would run to the cap, an infinite one accept any plan
        for tol in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tol must be finite"):
                sinkhorn(cost, a, a, 0.5, tol=tol)
        with pytest.raises(ValueError, match="shape"):
            sinkhorn(np.zeros((3, 2)), a, a, 0.5)
        # a cap below one sweep used to raise ConvergenceError, a float
        # cap a bare TypeError, and True ran as a cap of 1
        for max_iter in (0, -3, 2.5, "10", None, True):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                sinkhorn(cost, a, a, 0.5, max_iter=max_iter)
        assert sinkhorn(cost, a, a, 0.5, max_iter=np.int64(1)).shape == (2, 2)


class TestTransportLmo:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_enumeration_on_random_3x3(self, seed):
        rng = make_rng(seed)
        cost = rng.random((3, 3))
        a = _hist(rng, 3)
        b = _hist(rng, 3)
        gamma, _ = transport_lmo(cost, a, b)
        _, best = lmo_by_enumeration(cost, a, b)
        assert abs(float(np.vdot(gamma, cost)) - best) <= 1e-10
        assert gamma.min() >= 0.0
        assert marginal_violation(gamma, a, b) <= 1e-12

    def test_identity_cost_uniform_marginals(self):
        gamma, _ = transport_lmo(1.0 - np.eye(3), uniform_histogram(3),
                                 uniform_histogram(3))
        np.testing.assert_allclose(gamma, np.eye(3) / 3.0, atol=1e-12)

    def test_matches_linprog_medium(self):
        rng = make_rng(31)
        cost = rng.random((6, 7))
        a = _hist(rng, 6)
        b = _hist(rng, 7)
        gamma, _ = transport_lmo(cost, a, b)
        _, lp_value = lmo_by_linprog(cost, a, b)
        assert abs(float(np.vdot(gamma, cost)) - lp_value) <= 1e-9
        assert marginal_violation(gamma, a, b) <= 1e-12

    def test_dual_certificate(self):
        rng = make_rng(37)
        cost = rng.random((8, 11))
        a = _hist(rng, 8)
        b = _hist(rng, 11)
        gamma, (u, v) = transport_lmo(cost, a, b)
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-9
        # strong duality and complementary slackness
        primal = float(np.vdot(gamma, cost))
        dual = float(a @ u + b @ v)
        assert abs(primal - dual) <= 1e-9
        assert float(np.vdot(gamma, reduced)) <= 1e-9

    def test_marginal_lengths_must_match_cost(self):
        a = uniform_histogram(3)
        with pytest.raises(ValueError, match="cost shape"):
            transport_lmo(np.zeros((3, 3)), [1.0], a)
        with pytest.raises(ValueError, match="cost shape"):
            transport_lmo(np.zeros((3, 3)), uniform_histogram(2), a)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_vertex_certified(self, data):
        """Small integer costs and zero-mass histograms: ties, degeneracy."""
        r, c = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))

        def hist(n):
            w = data.draw(hnp.arrays(np.float64, n, elements=weight)
                          .filter(lambda w: w.sum() > 0))
            return w / w.sum()

        def integer_cost():
            return data.draw(hnp.arrays(np.int64, (r, c), elements=st.integers(0, 3))
                             ).astype(np.float64)

        a, b = hist(r), hist(c)
        cost = integer_cost()
        gamma, (u, v) = transport_lmo(cost, a, b)
        assert gamma.min() >= 0.0
        assert marginal_violation(gamma, a, b) <= 1e-12
        assert np.count_nonzero(gamma) <= r + c - 1
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-9
        primal = float(np.vdot(gamma, cost))
        assert abs(primal - float(a @ u + b @ v)) <= 1e-9
        assert float(np.vdot(gamma, reduced)) <= 1e-9

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_matches_rebuild_reference(self, data):
        """Against the simplex that rebuilds its tree every pivot.

        On exact flow ties the kept tree may pick another leaving cell
        than the reference, so plans are not compared: values are, and
        the duals must certify optimality on their own.
        """
        r, c = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
        weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))

        def hist(n):
            w = data.draw(hnp.arrays(np.float64, n, elements=weight)
                          .filter(lambda w: w.sum() > 0))
            return w / w.sum()

        def cost_matrix():
            if data.draw(st.booleans()):
                return data.draw(hnp.arrays(
                    np.int64, (r, c), elements=st.integers(0, 3))).astype(np.float64)
            return data.draw(hnp.arrays(np.float64, (r, c),
                                        elements=st.floats(0.0, 1.0)))

        a, b = hist(r), hist(c)
        cost = cost_matrix()
        lp_value = float(np.vdot(transport_lmo_rebuild_reference(cost, a, b), cost))
        gamma, (u, v) = transport_lmo(cost, a, b)
        primal = float(np.vdot(gamma, cost))
        assert abs(primal - lp_value) <= 1e-12
        assert (cost - u[:, None] - v[None, :]).min() >= -1e-9
        assert abs(primal - float(a @ u + b @ v)) <= 1e-9

    def test_tiny_costs_reach_the_linprog_optimum(self):
        # an absolute optimality floor of 1e-11 would stop the simplex
        # above the optimum on 140 of these 155 instances; HiGHS solves
        # the same costs scaled to 1
        for seed in range(200):
            rng = make_rng(seed)
            r, c = (int(n) for n in rng.integers(2, 6, size=2))
            if r == c:
                continue
            a, b = _hist(rng, r), _hist(rng, c)
            cost = 1e-11 * rng.random((r, c))
            gamma, _ = transport_lmo(cost, a, b)
            _, lp_value = lmo_by_linprog(1e11 * cost, a, b)
            assert 1e11 * float(np.vdot(gamma, cost)) <= lp_value + 1e-9

    @pytest.mark.parametrize("scale", [1e3, 1e5, 1e8, 1e12])
    def test_large_costs_do_not_pivot_on_rounding_noise(self, scale):
        # reduced costs carry rounding noise of about eps * max|cost|;
        # an absolute optimality test pivots on it past 1e-11 and spends
        # the pivot budget (7 of these 60 did at 1e8 and at 1e12)
        for seed in range(60):
            rng = make_rng(seed)
            r, c = (int(n) for n in rng.integers(2, 15, size=2))
            a, b = _hist(rng, r), _hist(rng, c)
            cost = rng.uniform(-scale, scale, (r, c))
            gamma, (u, v) = transport_lmo(cost, a, b)
            reduced = cost - u[:, None] - v[None, :]
            assert reduced.min() >= -1e-9 * max(1.0, np.abs(cost).max())
            assert marginal_violation(gamma, a, b) <= 1e-12
            assert np.count_nonzero(gamma) <= r + c - 1

    def test_degenerate_uniform_marginals(self):
        # uniform-to-uniform with a Monge cost: many ties, still exact
        x = np.linspace(0.0, 1.0, 6)[:, None]
        cost = squared_distances(x, x + 0.37)
        a = uniform_histogram(6)
        gamma, _ = transport_lmo(cost, a, a)
        _, lp_value = lmo_by_linprog(cost, a, a)
        assert abs(float(np.vdot(gamma, cost)) - lp_value) <= 1e-9

    def test_single_row_and_single_column(self):
        rng = make_rng(43)
        b = _hist(rng, 5)
        cost = rng.random((1, 5))
        gamma, _ = transport_lmo(cost, uniform_histogram(1), b)
        np.testing.assert_allclose(gamma, b[None, :], atol=1e-12)
        gamma_t, _ = transport_lmo(cost.T, b, uniform_histogram(1))
        np.testing.assert_allclose(gamma_t, b[:, None], atol=1e-12)

    def test_nonfinite_cost_raises(self):
        a = uniform_histogram(2)
        cost = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            transport_lmo(cost, a, a)

    @pytest.mark.parametrize("shape, equal", [
        ((5, 5), True), ((5, 5), False), ((4, 6), False),
    ], ids=["assignment", "simplex", "non-square"])
    def test_calls_are_stateless(self, shape, equal):
        # one return shape on every path; an earlier call on other data
        # changes neither the result nor the inputs
        rng = make_rng(67)
        r, c = shape
        a, b = ((uniform_histogram(r), uniform_histogram(c)) if equal
                else (_hist(rng, r), _hist(rng, c)))
        cost, other = rng.random(shape), rng.random(shape)
        inputs = [x.copy() for x in (cost, a, b)]
        first = transport_lmo(cost, a, b)
        transport_lmo(other, a, b)
        again = transport_lmo(cost, a, b)
        for out in (first, again):
            gamma, duals = out
            assert gamma.shape == shape and len(duals) == 2
            assert duals[0].shape == (r,) and duals[1].shape == (c,)
        assert first[0].tobytes() == again[0].tobytes()
        for u, u_again in zip(first[1], again[1]):
            assert u.tobytes() == u_again.tobytes()
        for x, x_before in zip((cost, a, b), inputs):
            np.testing.assert_array_equal(x, x_before)


class TestAssignmentPath:
    """Square instances with one marginal weight: shortest augmenting paths."""

    @staticmethod
    def assert_certified(cost, gamma, u, v):
        n = cost.shape[0]
        a = uniform_histogram(n)
        assert (cost - u[:, None] - v[None, :]).min() >= -1e-9
        assert abs(float(np.vdot(gamma, cost)) - float(a @ u + a @ v)) <= 1e-9
        # one entry 1/n per row and column, exact zeros elsewhere
        assert set(np.unique(gamma)) <= {0.0, a[0]}
        assert np.array_equal(gamma.sum(axis=1), a)
        assert np.array_equal(gamma.sum(axis=0), a)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_matches_rebuild_reference(self, data):
        n = data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):  # ties
            cost = data.draw(hnp.arrays(np.int64, (n, n), elements=st.integers(0, 3))
                             ).astype(np.float64)
        else:
            cost = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0)))
        a = uniform_histogram(n)
        gamma, (u, v) = transport_lmo(cost, a, a)
        lp_value = float(np.vdot(transport_lmo_rebuild_reference(cost, a, a), cost))
        assert abs(float(np.vdot(gamma, cost)) - lp_value) <= 1e-12
        self.assert_certified(cost, gamma, u, v)

    def test_tiny_cost_matches_rebuild_reference(self):
        # every reduced cost here is above an absolute -1e-11 floor, on
        # which both simplexes would stop at the identity, value 5e-12
        cost = np.array([[1e-11, 0.0], [0.0, 0.0]])
        a = uniform_histogram(2)
        for plan in (transport_lmo(cost, a, a)[0],
                     transport_lmo_rebuild_reference(cost, a, a),
                     gcgs.transport._transport_simplex(cost, a, a)[0]):
            assert float(np.vdot(plan, cost)) == 0.0

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(kind=st.sampled_from(["continuous", "ties", "near_additive", "constant"]),
           n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    @example(kind="constant", n=1, seed=0)
    def test_property_priced_start_matches_rebuild_reference(self, kind, n, seed):
        """Up to 60x60, where the auction runs through all its phases.

        Four cost families: continuous draws (a unique optimum, so the
        plan bytes must be the reference's), small-integer ties, near-
        additive costs ``a_i + b_j`` plus 1e-3 noise (every assignment
        within about 0.1% of the others), and constant costs, whose zero
        spread skips the auction.
        """
        rng = make_rng(seed)
        if kind == "continuous":
            cost = rng.random((n, n))
        elif kind == "ties":
            cost = rng.integers(0, 4, (n, n)).astype(np.float64)
        elif kind == "near_additive":
            cost = rng.random((n, 1)) + rng.random(n) + 1e-3 * rng.random((n, n))
        else:
            cost = np.full((n, n), rng.uniform(-1.0, 1.0))
        a = uniform_histogram(n)
        gamma, (u, v) = transport_lmo(cost, a, a)
        reference = transport_lmo_rebuild_reference(cost, a, a)
        assert abs(float(np.vdot(gamma, cost)) - float(np.vdot(reference, cost))) <= 1e-12
        if kind == "continuous":
            assert gamma.tobytes() == reference.tobytes()
        self.assert_certified(cost, gamma, u, v)

    def test_same_bytes_as_the_simplex_on_cluster_gradients(self):
        # 30x30 from the product plan, and the acceptance suite's 100x100
        # instance from its Sinkhorn start: each before and after 5 exact
        # classic CG iterations
        from test_acceptance import _full_scale_problem
        small = TestSplitObjectives._cluster_problem(seed=0, n=30)
        full = _full_scale_problem(seed=0)
        starts = ((small, np.outer(small.mu_s, small.mu_t)),
                  (full, sinkhorn(full.cost, full.mu_s, full.mu_t, full.lambda_ent,
                                  tol=1e-5, max_iter=50000)))
        for problem, x0 in starts:
            split = ot_cg_split(problem)
            run = solve(split, x0, SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=5))
            a = problem.mu_s
            for x in (x0, run.x_final):
                grad = split.f_grad(x)
                gamma, (u, v) = transport_lmo(grad, a, a)
                assert gamma.tobytes() == transport_lmo_rebuild_reference(grad, a, a).tobytes()
                self.assert_certified(grad, gamma, u, v)

    @pytest.mark.parametrize("kind", ["all_tight", "banded_ties"])
    def test_many_tight_cells_at_scale(self, kind):
        # with many tight cells most rows find their cheapest column taken
        # and grow a Dijkstra tree; a constant cost has a zero spread, so
        # no auction prices it and only row 0 gets its cheapest column
        n = 40
        if kind == "all_tight":
            cost = np.zeros((n, n))
        else:
            idx = np.arange(n)
            cost = (np.abs(idx[:, None] - idx[None, :]) > 2).astype(np.float64)
            cost[:, 0] = 1.0  # no free zero for the first column
        a = uniform_histogram(n)
        gamma, (u, v) = transport_lmo(cost, a, a)
        lp_value = float(np.vdot(transport_lmo_rebuild_reference(cost, a, a), cost))
        assert abs(float(np.vdot(gamma, cost)) - lp_value) <= 1e-12
        self.assert_certified(cost, gamma, u, v)

    def test_unequal_weights_or_shapes_take_the_simplex(self, monkeypatch):
        simplex = []
        monkeypatch.setattr(gcgs.transport, "_transport_simplex",
                            lambda *args, _fn=gcgs.transport._transport_simplex:
                            simplex.append(1) or _fn(*args))
        rng = make_rng(53)
        n = 6
        cost, a = rng.random((n, n)), uniform_histogram(n)
        transport_lmo(cost, a, a)
        assert not simplex
        for cost, mu_s, mu_t in ((cost, _hist(rng, n), a),
                                 (rng.random((n, n + 1)), a, uniform_histogram(n + 1))):
            gamma, (u, v) = transport_lmo(cost, mu_s, mu_t)
            assert simplex
            simplex.clear()
            np.testing.assert_array_equal(
                gamma, transport_lmo_rebuild_reference(cost, mu_s, mu_t))
            assert (cost - u[:, None] - v[None, :]).min() >= -1e-9

    @pytest.mark.parametrize("mu_s, mu_t", [
        (uniform_histogram(3), uniform_histogram(3)),
        ([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]),
        (uniform_histogram(3), uniform_histogram(4)),
    ], ids=["assignment", "simplex", "non-square"])
    def test_overflowing_cost_range_raises(self, mu_s, mu_t):
        # finite costs whose differences overflow float64: the range
        # check must raise before any arithmetic overflows
        cost = np.array([[1.7e308, -1e308, 1e308],
                         [-1e308, -1.7e308, -1e308],
                         [0.0, -1.7e308, 1e308]])
        cost = np.hstack([cost, np.zeros((3, len(mu_t) - 3))])
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="overflows"):
                transport_lmo(cost, mu_s, mu_t)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_costs_at_the_range_limit_stay_exact(self, data):
        """Both paths at the largest allowed magnitude, scaled by 2^k.

        Integer costs times a power of two keep every sum exact, so the
        scaled run makes the comparisons of the unscaled one: the same
        plan bytes, and duals scaled by the same power.
        """
        r, c = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))

        def hist(n):
            w = data.draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 1.0)))
            return w / w.sum()

        if data.draw(st.booleans()):
            c = r
            a = b = uniform_histogram(r)  # the assignment path
        else:
            a, b = hist(r), hist(c)
        cost = data.draw(hnp.arrays(np.int64, (r, c), elements=st.integers(-3, 3))
                         ).astype(np.float64)
        m = max(np.abs(cost).max(), 1.0)
        # the largest power of two with scale * m within the limit
        scale = 2.0 ** (math.frexp(sys.float_info.max / (8 * (r + c) * m))[1] - 1)
        with np.errstate(all="raise"):
            big, (u_big, v_big) = transport_lmo(scale * cost, a, b)
        gamma, (u, v) = transport_lmo(cost, a, b)
        assert big.tobytes() == gamma.tobytes()
        np.testing.assert_array_equal(u_big, scale * u)
        np.testing.assert_array_equal(v_big, scale * v)
        if np.abs(cost).max() > 0:
            with pytest.raises(ValueError, match="overflows"):
                transport_lmo(4.0 * scale * cost, a, b)

    @pytest.mark.parametrize("kind", ["continuous", "integer"])
    def test_costs_at_the_range_limit_stay_exact_at_scale(self, kind):
        """The priced start on 100x100 at the largest allowed magnitude.

        The property test above draws n <= 6, where the auction barely
        runs; here it runs through all its phases. Scaling by a power of
        two keeps every operation exact, so the scaled run must give the
        same plan and the scaled duals without a floating-point error.
        """
        n = 100
        rng = make_rng(97)
        if kind == "continuous":
            cost = rng.uniform(-1.0, 1.0, (n, n))
        else:
            cost = rng.integers(-3, 4, (n, n)).astype(np.float64)
        a = uniform_histogram(n)
        m = np.abs(cost).max()
        # the largest power of two with scale * m within max / (8 (r + c))
        scale = 2.0 ** (math.frexp(sys.float_info.max / (8 * (n + n) * m))[1] - 1)
        with np.errstate(all="raise"):
            big, (u_big, v_big) = transport_lmo(scale * cost, a, a)
        gamma, (u, v) = transport_lmo(cost, a, a)
        assert big.tobytes() == gamma.tobytes()
        np.testing.assert_array_equal(u_big, scale * u)
        np.testing.assert_array_equal(v_big, scale * v)
        self.assert_certified(cost, gamma, u, v)
        with pytest.raises(ValueError, match="overflows"):
            transport_lmo(4.0 * scale * cost, a, a)

    def test_single_cell(self):
        gamma, (u, v) = transport_lmo(np.array([[-2.5]]), [1.0], [1.0])
        assert gamma.tolist() == [[1.0]]
        assert u[0] + v[0] == -2.5


def test_solves_load_no_scipy_module():
    """numpy is the library's only runtime dependency: importing every
    module and running each solver loads no scipy module (importing
    scipy.special alone took peak resident memory from about 28 MB to
    55 MB)."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from gcgs import cli, numerics
        from gcgs import elasticnet as en
        from gcgs import transport as tr
        from gcgs.solver import SolverConfig, solve
        Xs, Xt, a, b = tr.make_cluster_data(20, 20, seed=0)
        problem = tr.TransportProblem(
            tr.squared_distances(Xs, Xt), a, b, lambda_ent=0.05,
            lambda_lap=1.0, lap_s=tr.knn_laplacian(Xs, 3),
            lap_t=tr.knn_laplacian(Xt, 3), Xs=Xs, Xt=Xt)
        cfg = SolverConfig(gap_tol=0.0, max_iter=3)
        for split in (tr.ot_split(problem), tr.ot_cg_split(problem)):
            solve(split, np.outer(a, b), cfg)
        data = en.make_toy_classification(40, 12, 4, seed=0)
        cfg = SolverConfig(max_iter=3, residual_tol=1e-8)
        for loss in ("logistic", "squared_hinge"):
            enp = en.problem_from_dataset(data, loss, 1.0, 2.0)
            x0 = np.zeros(enp.Z.shape[1])
            solve(en.en_split(enp), x0, cfg)
            en.spg_solve(enp, x0, cfg)
            en.pg_solve(enp, x0, cfg)
        print(",".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = os.path.dirname(os.path.dirname(gcgs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def nn_peak(fn, n):
    """``fn()``'s tracemalloc peak in units of one n x n float64 array."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak memory of the n x n work, pinned at 300 x 300.

    Arrays this large get fresh pages from the allocator, so each extra
    n x n temporary costs its page faults on every call (README
    "Numerical notes"). The comments give the peak measured with one
    Sinkhorn buffer, then the peak before it.
    """

    n = 300

    def _instance(self):
        Xs, Xt, a, b = make_cluster_data(self.n, self.n, seed=0)
        return squared_distances(Xs, Xt), a, b

    @pytest.mark.parametrize("lam, absorbs", [(0.1, False), (2e-3, True)],
                             ids=["cold", "absorbing"])
    def test_full_support_sinkhorn_holds_one_buffer(self, monkeypatch, lam, absorbs):
        # 1.14 at lambda 0.1, 1.15 at 2e-3 (4.14 with separate log-kernel,
        # kernel, product and plan)
        cost, a, b = self._instance()
        kernels = spy_kernel_builds(monkeypatch)
        peak = nn_peak(lambda: sinkhorn(cost, a, b, lam, tol=1e-5,
                                        max_iter=50000), self.n)
        assert (len(kernels) > 1) == absorbs  # one build, plus absorptions
        assert peak <= 1.25

    def test_sinkhorn_with_zero_mass_rows_fills_the_plan_from_its_buffer(self):
        # 2.22: the support copy is the buffer, plus the returned plan (4.21)
        cost, a, b = self._instance()
        a[:3] = 0.0
        a /= a.sum()
        peak = nn_peak(lambda: sinkhorn(cost, a, b, 0.01, tol=1e-5,
                                        max_iter=50000), self.n)
        assert peak <= 2.25

    def test_exact_step_holds_two_flat_vectors(self):
        # 2.13: two scratch vectors and the moving-entry mask (4.13 with
        # masked copies of the chord and per-slope temporaries)
        cost, a, b = self._instance()
        x = sinkhorn(cost, a, b, 0.1, tol=1e-5)
        d = sinkhorn(cost, a, b, 0.01, tol=1e-5) - x
        assert np.all(d != 0.0)  # the view path
        split = ot_split(TransportProblem(cost, a, b, lambda_ent=0.01))
        assert nn_peak(lambda: split.exact_step(x, d), self.n) <= 2.25

    def test_negentropy_holds_one_array(self):
        # 1.13: the logs and the zero mask (2.00 with a separate product)
        cost, a, b = self._instance()
        x = sinkhorn(cost, a, b, 0.1, tol=1e-5)
        assert nn_peak(lambda: negentropy(x), self.n) <= 1.25


class TestEntropyAndLaplacian:
    def test_negentropy_uniform_plan(self):
        gamma = np.full((2, 2), 0.25)
        assert negentropy(gamma) == pytest.approx(np.log(0.25), rel=1e-12)

    def test_negentropy_zero_entries_contribute_nothing(self):
        gamma = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert negentropy(gamma) == pytest.approx(np.log(0.5), rel=1e-12)
        assert negentropy([[1, 0], [0, 0]]) == 0.0  # integer entries

    @pytest.mark.parametrize("seed", range(5))
    def test_negentropy_matches_scipy_xlogy(self, seed):
        rng = make_rng(seed)
        r, c = rng.integers(1, 40, size=2)
        gamma = rng.random((r, c)) ** 3
        gamma[rng.random((r, c)) < 0.3] = 0.0
        expected = float(np.sum(xlogy(gamma, gamma)))
        assert negentropy(gamma) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_negentropy_of_negative_entry_is_nan(self):
        gamma = np.array([[0.5, -1e-3], [0.0, 0.501]])
        with np.errstate(all="raise"):
            assert math.isnan(negentropy(gamma))

    def test_negentropy_grad_matches_finite_diff(self):
        rng = make_rng(3)
        gamma = 0.5 + rng.random((3, 4))
        grad = negentropy_grad(gamma)
        fd = finite_diff_grad(
            lambda v: negentropy(v.reshape(3, 4)), gamma.ravel())
        np.testing.assert_allclose(grad.ravel(), fd, rtol=1e-6, atol=1e-8)

    def test_negentropy_grad_names_bad_entry(self):
        gamma = np.array([[0.1, 0.0], [0.2, 0.7]])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            negentropy_grad(gamma)

    def _laplacian_problem(self, seed=29):
        rng = make_rng(seed)
        Xs = rng.random((5, 2))
        Xt = rng.random((4, 2))
        return TransportProblem(
            cost=squared_distances(Xs, Xt),
            mu_s=uniform_histogram(5),
            mu_t=uniform_histogram(4),
            lambda_ent=0.1,
            lambda_lap=1.0,
            lap_s=knn_laplacian(Xs, 2),
            lap_t=knn_laplacian(Xt, 2),
            Xs=Xs,
            Xt=Xt,
        )

    def test_laplacian_reg_grad_matches_finite_diff(self):
        problem = self._laplacian_problem()
        rng = make_rng(1)
        gamma = 0.1 + rng.random((5, 4))
        grad = laplacian_reg_grad(gamma, problem)
        fd = finite_diff_grad(
            lambda v: laplacian_reg(v.reshape(5, 4), problem), gamma.ravel())
        np.testing.assert_allclose(grad.ravel(), fd, rtol=1e-5, atol=1e-8)

    def test_laplacian_reg_grad_bitwise_equals_symmetrized_form(self):
        # kNN Laplacians are exactly symmetric, so 2 L is L + L^T bit for bit
        problem = self._laplacian_problem()
        Ls, Lt = problem.lap_s, problem.lap_t
        Xs, Xt = problem.Xs, problem.Xt
        gamma = make_rng(3).random((5, 4))
        expected = (((Ls + Ls.T) @ (gamma @ Xt)) @ Xt.T
                    + Xs @ ((Lt + Lt.T) @ (gamma.T @ Xs)).T)
        assert np.array_equal(laplacian_reg_grad(gamma, problem), expected)

    @pytest.mark.parametrize("ns,nt", [(5, 4), (30, 20), (17, 40), (100, 100)])
    def test_laplacian_reg_grad_matches_the_plan_product_chain(self, ns, nt):
        # the reference applies the Laplacians to the plan itself,
        # 2 Ls gamma Xt Xt^T + 2 Xs Xs^T gamma Lt; 100x100 is the size
        # and the cluster geometry of the bench's transport instance
        Xs, Xt, mu_s, mu_t = make_cluster_data(ns, nt, seed=ns + nt)
        k = min(10, ns - 1, nt - 1)
        problem = TransportProblem(
            cost=squared_distances(Xs, Xt), mu_s=mu_s, mu_t=mu_t,
            lambda_ent=1.7e-2, lambda_lap=1e3, lap_s=knn_laplacian(Xs, k),
            lap_t=knn_laplacian(Xt, k), Xs=Xs, Xt=Xt)
        Ls, Lt = problem.lap_s, problem.lap_t
        gamma = make_rng(ns * nt).random((ns, nt)) / (ns * nt)
        chain = 2.0 * ((Ls @ gamma @ Xt) @ Xt.T) + 2.0 * (Xs @ (Xs.T @ (gamma @ Lt)))
        grad = laplacian_reg_grad(gamma, problem)
        assert np.max(np.abs(grad - chain)) <= 1e-13 * np.max(np.abs(chain))
        symmetrized = (((Ls + Ls.T) @ (gamma @ Xt)) @ Xt.T
                       + Xs @ ((Lt + Lt.T) @ (gamma.T @ Xs)).T)
        assert np.array_equal(grad, symmetrized)

    def test_laplacian_reg_nonnegative(self):
        problem = self._laplacian_problem()
        rng = make_rng(2)
        for _ in range(5):
            gamma = rng.random((5, 4))
            assert laplacian_reg(gamma, problem) >= -1e-12

    def test_laplacian_terms_vanish_when_disabled(self):
        rng = make_rng(4)
        problem = TransportProblem(
            cost=rng.random((3, 3)),
            mu_s=uniform_histogram(3),
            mu_t=uniform_histogram(3),
            lambda_ent=0.5,
        )
        gamma = np.outer(problem.mu_s, problem.mu_t)
        assert laplacian_reg(gamma, problem) == 0.0
        assert not np.any(laplacian_reg_grad(gamma, problem))

    def test_ot_objective_composition(self):
        problem = self._laplacian_problem()
        gamma = np.outer(problem.mu_s, problem.mu_t)
        expected = (float(np.vdot(gamma, problem.cost))
                    + problem.lambda_lap * laplacian_reg(gamma, problem)
                    + problem.lambda_ent * negentropy(gamma))
        assert ot_objective(gamma, problem) == pytest.approx(expected, rel=1e-14)


class TestProblemValidation:
    def test_marginal_length_mismatch(self):
        with pytest.raises(ValueError, match="marginal lengths"):
            TransportProblem(np.zeros((2, 3)), uniform_histogram(2),
                             uniform_histogram(2), lambda_ent=0.5)

    def test_nonpositive_lambda_ent(self):
        for lam in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lambda_ent"):
                TransportProblem(np.zeros((2, 2)), uniform_histogram(2),
                                 uniform_histogram(2), lambda_ent=lam)

    def test_negative_lambda_lap(self):
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lambda_lap"):
                TransportProblem(np.zeros((2, 2)), uniform_histogram(2),
                                 uniform_histogram(2), lambda_ent=0.5,
                                 lambda_lap=lam)

    def test_laplacian_field_requirements(self):
        a = uniform_histogram(3)
        cost = np.zeros((3, 3))
        L = knn_laplacian(np.arange(3.0)[:, None], 1)
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="lap_s required"):
            TransportProblem(cost, a, a, 0.5, lambda_lap=1.0)
        with pytest.raises(ValueError, match="must be 3x3"):
            TransportProblem(cost, a, a, 0.5, lambda_lap=1.0,
                             lap_s=np.zeros((2, 2)), lap_t=L)
        asym = L.copy()
        asym[0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            TransportProblem(cost, a, a, 0.5, lambda_lap=1.0,
                             lap_s=asym, lap_t=L)
        shifted = L + np.eye(3)
        with pytest.raises(ValueError, match="sum to 0"):
            TransportProblem(cost, a, a, 0.5, lambda_lap=1.0,
                             lap_s=shifted, lap_t=L)
        with pytest.raises(ValueError, match="positions"):
            TransportProblem(cost, a, a, 0.5, lambda_lap=1.0,
                             lap_s=L, lap_t=L, Xs=X)
        with pytest.raises(ValueError, match="Xs must have 3 rows, got 2"):
            TransportProblem(cost, a, a, 0.5, lambda_lap=1.0,
                             lap_s=L, lap_t=L, Xs=X[:2], Xt=X)
        with pytest.raises(ValueError, match="Xt must have 3 rows, got 4"):
            TransportProblem(cost, a, a, 0.5, lambda_lap=1.0,
                             lap_s=L, lap_t=L, Xs=X, Xt=np.zeros((4, 2)))


class TestHistograms:
    def test_as_histogram_valid(self):
        h = as_histogram([0.25, 0.75])
        assert h.dtype == np.float64
        np.testing.assert_array_equal(h, [0.25, 0.75])

    def test_as_histogram_errors(self):
        with pytest.raises(ValueError, match="1-D"):
            as_histogram(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="nonnegative"):
            as_histogram([-0.1, 1.1])
        with pytest.raises(ValueError, match="sum"):
            as_histogram([0.5, 0.6])

    def test_uniform_histogram_sums_to_one(self):
        assert uniform_histogram(7).sum() == pytest.approx(1.0, abs=1e-15)

    def test_marginal_violation_detects_perturbation(self):
        rng = make_rng(6)
        a = _hist(rng, 4)
        b = _hist(rng, 5)
        gamma = np.outer(a, b)
        assert marginal_violation(gamma, a, b) <= 1e-15
        gamma[1, 2] += 1e-3
        assert marginal_violation(gamma, a, b) == pytest.approx(1e-3, rel=1e-6)


class TestGraphsAndData:
    def test_knn_laplacian_line_graph(self):
        # nearest neighbors: 0->1, 1->0 (tie broken by index), 2->1,
        # 3->2; symmetrizing gives the path graph 0-1-2-3
        X = np.array([[0.0], [1.0], [2.0], [3.5]])
        expected = np.array([
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ])
        np.testing.assert_array_equal(knn_laplacian(X, 1), expected)

    def test_knn_laplacian_properties(self):
        rng = make_rng(8)
        L = knn_laplacian(rng.random((12, 3)), 4)
        np.testing.assert_array_equal(L, L.T)
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(L).min() >= -1e-9

    def test_knn_k_validation(self):
        X = np.zeros((4, 2))
        # True used to build the 1-NN graph, 2.5 to raise a bare TypeError
        for k in (0, 4, True, 2.5):
            with pytest.raises(ValueError, match="k"):
                knn_laplacian(X, k)

    def test_cluster_data_deterministic(self):
        first = make_cluster_data(9, 12, seed=5)
        second = make_cluster_data(9, 12, seed=5)
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)
        other = make_cluster_data(9, 12, seed=6)
        assert not np.array_equal(first[0], other[0])

    def test_cluster_data_shapes_and_histograms(self):
        Xs, Xt, mu_s, mu_t = make_cluster_data(9, 12, n_clusters=3)
        assert Xs.shape == (9, 2) and Xt.shape == (12, 2)
        np.testing.assert_array_equal(mu_s, uniform_histogram(9))
        np.testing.assert_array_equal(mu_t, uniform_histogram(12))

    def test_cluster_data_zero_noise_is_rigid_motion(self):
        Xs, Xt, _, _ = make_cluster_data(9, 9, n_clusters=3, noise=0.0)
        # points collapse onto their centers, assigned round-robin
        np.testing.assert_array_equal(Xs[0], Xs[3])
        np.testing.assert_array_equal(Xt[1], Xt[4])
        assert len(np.unique(Xs, axis=0)) == 3
        # target centers are a rotation + shift of the source centers
        ds = np.linalg.norm(Xs[0] - Xs[1])
        dt = np.linalg.norm(Xt[0] - Xt[1])
        assert dt == pytest.approx(ds, abs=1e-12)

    def test_cluster_data_validation(self):
        with pytest.raises(ValueError, match="n_clusters"):
            make_cluster_data(2, 9, n_clusters=3)
        # True and 2.5 used to raise a TypeError or IndexError naming no argument
        for name in ("ns", "nt", "n_clusters"):
            for bad in (True, 2.5, 0):
                args = {"ns": 9, "nt": 9, "n_clusters": 3, name: bad}
                with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
                    make_cluster_data(**args)
        for noise in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="noise must be finite"):
                make_cluster_data(9, 9, noise=noise)

    def test_squared_distances_match_loops(self):
        rng = make_rng(10)
        Xs = rng.random((4, 3))
        Xt = rng.random((5, 3))
        want = np.array([[np.sum((p - q) ** 2) for q in Xt] for p in Xs])
        np.testing.assert_allclose(squared_distances(Xs, Xt), want,
                                   rtol=1e-12, atol=1e-12)
        assert squared_distances(Xs, Xs).min() >= 0.0


class TestSplitObjectives:
    def _entropic_problem(self, seed=15, shape=(5, 6), lam=0.5):
        rng = make_rng(seed)
        return TransportProblem(
            cost=rng.random(shape),
            mu_s=_hist(rng, shape[0]),
            mu_t=_hist(rng, shape[1]),
            lambda_ent=lam,
        )

    @staticmethod
    def _cluster_problem(seed=15, n=12, lambda_lap=1.0):
        Xs, Xt, mu_s, mu_t = make_cluster_data(n, n, seed=seed)
        return TransportProblem(
            cost=squared_distances(Xs, Xt),
            mu_s=mu_s,
            mu_t=mu_t,
            lambda_ent=0.05,
            lambda_lap=lambda_lap,
            lap_s=knn_laplacian(Xs, 3),
            lap_t=knn_laplacian(Xt, 3),
            Xs=Xs,
            Xt=Xt,
        )

    def test_oracle_is_sinkhorn_on_adjusted_cost(self):
        problem = self._entropic_problem()
        split = ot_split(problem, sinkhorn_tol=1e-9)
        x = np.outer(problem.mu_s, problem.mu_t)
        s, _ = split.partial_oracle(x, split.f_grad(x), None)
        direct = sinkhorn(problem.cost, problem.mu_s, problem.mu_t,
                          problem.lambda_ent, tol=1e-9)
        np.testing.assert_array_equal(s, direct)

    def test_oracle_settings_are_checked_at_construction(self):
        # inside solve a bad value would surface as an OracleError
        problem = self._entropic_problem()
        for tol in (0.0, -1e-9, np.nan, np.inf):
            with pytest.raises(ValueError, match="sinkhorn_tol must be finite"):
                ot_split(problem, sinkhorn_tol=tol)
        for max_iter in (0, 2.5, True):
            with pytest.raises(ValueError, match="sinkhorn_max_iter must be an integer"):
                ot_split(problem, sinkhorn_max_iter=max_iter)

    def test_split_value_matches_full_objective(self):
        problem = self._cluster_problem()
        split = ot_split(problem)
        gamma = np.outer(problem.mu_s, problem.mu_t)
        assert split.value(gamma) == pytest.approx(
            ot_objective(gamma, problem), rel=1e-13)
        assert split.residual(gamma, split.grad(gamma)) == marginal_violation(
            gamma, problem.mu_s, problem.mu_t)

    def test_entropic_only_solve_needs_one_oracle_call(self):
        # without the Laplacian term the adjusted cost never changes, so
        # the first oracle output is already the global optimum
        problem = self._entropic_problem()
        split = ot_split(problem, sinkhorn_tol=1e-11)
        x0 = np.outer(problem.mu_s, problem.mu_t)
        result = solve(split, x0, SolverConfig(step_rule="exact",
                                               gap_tol=1e-8, max_iter=50))
        assert result.termination == "gap_tol"
        assert len(result.trace) <= 4
        direct = sinkhorn(problem.cost, problem.mu_s, problem.mu_t,
                          problem.lambda_ent, tol=1e-11)
        np.testing.assert_allclose(result.x_final, direct, atol=1e-8)

    def test_laplacian_solve_descends(self):
        # clustered costs at small lambda_ent have a slow Sinkhorn tail,
        # so the subproblem tolerance must stay moderate
        problem = self._cluster_problem()
        split = ot_split(problem, sinkhorn_tol=1e-6, warm_start=True)
        x0 = np.outer(problem.mu_s, problem.mu_t)
        result = solve(split, x0, SolverConfig(step_rule="exact",
                                               gap_tol=1e-8, max_iter=10))
        objs = result.objectives()
        assert np.all(np.diff(objs) <= 1e-12)
        assert np.all(result.gaps() >= 0.0)
        assert objs[-1] < objs[0]

    @pytest.mark.parametrize("make_split", [
        lambda p: ot_split(p, sinkhorn_tol=1e-6, warm_start=True), ot_cg_split,
    ], ids=["cgs", "cg"])
    def test_exact_step_reuses_the_iterates_gradient(self, monkeypatch, make_split):
        # one Laplacian gradient per iterate: the exact step takes the
        # one the loop formed instead of forming it again
        import gcgs.transport
        calls = []
        monkeypatch.setattr(gcgs.transport, "laplacian_reg_grad",
                            lambda g, p, _fn=laplacian_reg_grad: calls.append(g) or _fn(g, p))
        problem = self._cluster_problem()
        result = solve(make_split(problem), np.outer(problem.mu_s, problem.mu_t),
                       SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=4))
        assert len(result.trace) >= 3 and len(calls) == len(result.trace)
        assert all(0.0 < r.alpha for r in result.trace[:-1])

    def test_exact_step_starts_newton_at_the_quadratic_minimizer(self, monkeypatch):
        # 15 cgs steps on the acceptance suite's 100x100 instance from its
        # Sinkhorn start. Newton from 0 took 137 slope evaluations here
        # (7-11 a step, the two endpoints included): near-zero plan
        # entries make the entropy's curvature at 0 huge. Started at the
        # minimizer of the cost-plus-Laplacian quadratic it takes 90
        import gcgs.transport
        from test_acceptance import _full_scale_problem
        slopes, starts = [], []
        newton = gcgs.transport.convex_min_unit

        def counted(dphi, start=None):
            starts.append(start)
            return newton(lambda a: slopes.append(a) or dphi(a), start)

        monkeypatch.setattr(gcgs.transport, "convex_min_unit", counted)
        problem = _full_scale_problem(seed=0)
        x0 = sinkhorn(problem.cost, problem.mu_s, problem.mu_t, problem.lambda_ent,
                      tol=1e-5, max_iter=50000)
        result = solve(ot_split(problem, sinkhorn_tol=1e-5, sinkhorn_max_iter=50000,
                                warm_start=True),
                       x0, SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=15))
        assert len(starts) == 15 and all(0.0 < a < 1.0 for a in starts)
        assert len(slopes) <= 100
        assert all(0.0 < r.alpha < 1.0 for r in result.trace[:-1])

    def test_gradient_of_a_changed_plan_is_fresh(self):
        problem = self._cluster_problem()
        split = ot_split(problem)
        gamma = np.outer(problem.mu_s, problem.mu_t)
        first = split.f_grad(gamma).copy()
        gamma[0, 0] *= 2.0
        fresh = problem.cost + problem.lambda_lap * laplacian_reg_grad(gamma, problem)
        np.testing.assert_array_equal(split.f_grad(gamma), fresh)
        assert not np.array_equal(first, fresh)

    def test_oracle_failure_is_wrapped(self):
        problem = self._entropic_problem()
        split = ot_split(problem, sinkhorn_tol=1e-13, sinkhorn_max_iter=1)
        x0 = np.outer(problem.mu_s, problem.mu_t)
        with pytest.raises(OracleError, match="iteration 0") as info:
            solve(split, x0, SolverConfig(max_iter=5))
        assert info.value.iteration == 0
        assert isinstance(info.value.__cause__, ConvergenceError)

    def test_cg_split_descends_from_product_plan(self):
        problem = self._cluster_problem()
        split = ot_cg_split(problem)
        x0 = np.outer(problem.mu_s, problem.mu_t)
        result = solve(split, x0, SolverConfig(step_rule="armijo",
                                               gap_tol=1e-8, max_iter=25))
        objs = result.objectives()
        assert np.all(np.diff(objs) <= 1e-12)
        assert objs[-1] < objs[0]
        assert np.all(np.isfinite(result.x_final))

    @pytest.mark.parametrize("make_split", [
        lambda p: ot_split(p, sinkhorn_tol=1e-6, warm_start=True),
        ot_cg_split,
    ], ids=["cgs", "cg"])
    def test_armijo_warm_start_keeps_the_cold_trace(self, monkeypatch, make_split):
        problem = self._cluster_problem(n=20, lambda_lap=10.0)
        x0 = np.outer(problem.mu_s, problem.mu_t)
        cfg = SolverConfig(step_rule="armijo", gap_tol=1e-8, max_iter=30)
        result = assert_cold_armijo_gives_the_same_run(
            monkeypatch, lambda: solve(make_split(problem), x0, cfg))
        assert min(rec.alpha for rec in result.trace[:-1]) < 1.0

    def test_one_split_serves_a_probe_and_two_solves(self):
        # the warm potentials travel through solve, not the split: a
        # probe and an earlier solve leave a later solve as it runs on a
        # fresh split
        problem = self._cluster_problem()
        x0 = np.outer(problem.mu_s, problem.mu_t)
        cfg = SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=10)
        make_split = lambda: ot_split(problem, sinkhorn_tol=1e-6, warm_start=True)
        fresh = trace_bits(solve(make_split(), x0, cfg))
        shared = make_split()
        assert check_fixed_point(shared, x0) == check_fixed_point(make_split(), x0)
        assert trace_bits(solve(shared, x0, cfg)) == fresh
        assert trace_bits(solve(shared, x0, cfg)) == fresh

    def test_armijo_run_forms_the_entropy_once_per_point(self, monkeypatch):
        # the search forms g at the trial point it accepts, and that
        # point's gap and objective at the next iterate reuse it
        import gcgs.transport
        points = []
        monkeypatch.setattr(gcgs.transport, "negentropy",
                            lambda g, _fn=negentropy: points.append(g) or _fn(g))
        problem = self._cluster_problem(n=20, lambda_lap=10.0)
        split = ot_split(problem, sinkhorn_tol=1e-6, warm_start=True)
        result = solve(split, np.outer(problem.mu_s, problem.mu_t),
                       SolverConfig(step_rule="armijo", gap_tol=0.0, max_iter=15))
        assert len(result.trace) > 5
        assert min(rec.alpha for rec in result.trace[:-1]) < 1.0
        assert len({id(p) for p in points}) == len(points)

    def test_negative_raw_gap_has_its_own_termination(self):
        # the inexact Sinkhorn oracle at tol 1e-7 returns a raw gap of
        # about -1e-12 at iteration 4, which must not pass for a certified
        # gap_tol stop (at the default 1e-9 the raw gap stays positive
        # through iteration 5)
        problem = self._cluster_problem(seed=0, n=20)
        split = ot_split(problem, sinkhorn_tol=1e-7)
        result = solve(split, np.outer(problem.mu_s, problem.mu_t),
                       SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=4))
        assert result.termination == "negative_gap"
        assert result.trace[-1].k == 4 and result.trace[-1].surrogate_gap == 0.0
        x = result.x_final
        grad_f = split.f_grad(x)
        s, _ = split.partial_oracle(x, grad_f, None)
        assert surrogate_gap(x, s, grad_f, split) < 0.0

    @pytest.mark.parametrize("rule", ["exact", "armijo", "fixed"])
    def test_split_solves_start_from_a_vertex(self, rule):
        # a vertex carries exact zeros, where the unfloored entropy
        # gradient is undefined
        problem = self._cluster_problem(seed=0, n=20)
        mu_s, mu_t = problem.mu_s, problem.mu_t
        vertex, _ = transport_lmo(problem.cost, mu_s, mu_t)
        assert vertex.min() == 0.0
        result = solve(ot_split(problem), vertex,
                       SolverConfig(step_rule=rule, gap_tol=0.0, max_iter=5))
        assert len(result.trace) == 6
        assert result.x_final.min() >= 0.0
        assert marginal_violation(result.x_final, mu_s, mu_t) <= 1e-9
        assert result.objectives()[-1] < result.objectives()[0]

    def test_cg_split_roots_the_basis_tree_at_most_twice_per_call(self, monkeypatch):
        # the tree is walked in full from node 0 once to start and once
        # for the returned plan; pivots re-hang only the subtree they cut
        # off. Unequal source weights keep the oracle on the simplex.
        calls = {"lmo": 0, "rooted": 0}
        transport = gcgs.transport

        def lmo(*args):
            calls["lmo"] += 1
            return lmo_fn(*args)

        def hang(top, tree):
            calls["rooted"] += top == 0
            return hang_fn(top, tree)

        lmo_fn, hang_fn = transport.transport_lmo, transport._hang
        monkeypatch.setattr(transport, "transport_lmo", lmo)
        monkeypatch.setattr(transport, "_hang", hang)
        problem = replace(self._cluster_problem(seed=0, n=30),
                          mu_s=_hist(make_rng(61), 30))
        solve(ot_cg_split(problem),
              np.outer(problem.mu_s, problem.mu_t),
              SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=10))
        assert calls["lmo"] >= 10
        assert 0 < calls["rooted"] <= 2 * calls["lmo"]

    @pytest.mark.parametrize("equal", [True, False], ids=["assignment", "simplex"])
    def test_cg_split_ignores_warm_start(self, equal):
        # the keyword is kept for old callers and must change nothing
        problem = self._cluster_problem(seed=0, n=20)
        if not equal:
            problem = replace(problem, mu_s=_hist(make_rng(71), 20))
        x0 = np.outer(problem.mu_s, problem.mu_t)
        cfg = SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=8)
        warm, cold = (solve(ot_cg_split(problem, warm_start=w), x0, cfg)
                      for w in (True, False))
        assert trace_bits(warm) == trace_bits(cold)

    @pytest.mark.parametrize("warm", [False, True])
    def test_chord_steps_agree_with_golden_section(self, warm):
        # a strong Laplacian term keeps the gap large over 10 iterates, so
        # every step is resolved by golden section's value comparisons
        problem = self._cluster_problem(n=30, lambda_lap=1e3)
        x0 = np.outer(problem.mu_s, problem.mu_t)
        split = ot_split(problem, sinkhorn_tol=1e-5, sinkhorn_max_iter=50000,
                         warm_start=warm)
        assert_chord_steps_agree(split, x0, max_iter=10)
        if not warm:  # the vertex oracle has no warm start
            assert_chord_steps_agree(ot_cg_split(problem), x0, max_iter=10)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_chord_step(self, data):
        """Steps from a Sinkhorn plan to a vertex or a second plan.

        Marginals may have zero entries. Two plans share the 1e-300 floor
        there, so such a chord holds those entries still and the step
        reads the moving ones through a mask; a chord that moves every
        entry is read through views.
        """
        r, c = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
        weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))

        def hist(n):
            w = data.draw(hnp.arrays(np.float64, n, elements=weight)
                          .filter(lambda w: w.sum() > 0))
            return w / w.sum()

        def matrix(shape, lo, hi):
            return data.draw(hnp.arrays(np.float64, shape,
                                        elements=st.floats(lo, hi)))

        a, b = hist(r), hist(c)
        lambda_ent = data.draw(st.floats(1e-2, 1.0))
        graph = {}
        if min(r, c) >= 2 and data.draw(st.booleans()):
            Xs, Xt = matrix((r, 2), -1.0, 1.0), matrix((c, 2), -1.0, 1.0)
            graph = dict(lambda_lap=data.draw(st.floats(0.1, 100.0)),
                         lap_s=knn_laplacian(Xs, 1), lap_t=knn_laplacian(Xt, 1),
                         Xs=Xs, Xt=Xt)
        problem = TransportProblem(matrix((r, c), 0.0, 1.0), a, b,
                                   lambda_ent=lambda_ent, **graph)

        def entropic_plan():
            try:
                return sinkhorn(matrix((r, c), 0.0, 1.0), a, b,
                                data.draw(st.floats(0.05, 1.0)), tol=1e-9)
            except ConvergenceError:
                assume(False)

        plan = entropic_plan()
        if data.draw(st.booleans()):
            other = entropic_plan()
        else:
            other, _ = transport_lmo(matrix((r, c), 0.0, 1.0), a, b)
        x, s = (plan, other) if data.draw(st.booleans()) else (other, plan)
        d = s - x
        assume(np.any(d))

        assert_exact_step_minimizes(problem, x, d)

    @staticmethod
    def _underflow_chord():
        """The chord from a vertex with exact zeros to the Sinkhorn plan
        of a zero cost, which is 1e-300 on the zero-mass rows and
        columns: near 0, ``a * 1e-300`` underflows there."""
        a = np.array([1 / 3, 2 / 3, 0.0, 0.0])
        Xs, Xt = np.zeros((4, 2)), np.full((4, 2), 0.875)
        problem = TransportProblem(
            np.zeros((4, 4)), a, a, lambda_ent=1.0, lambda_lap=1.0,
            lap_s=knn_laplacian(Xs, 1), lap_t=knn_laplacian(Xt, 1), Xs=Xs, Xt=Xt)
        x = transport_lmo(np.zeros((4, 4)), a, a)[0]
        s = sinkhorn(np.zeros((4, 4)), a, a, 1.0, tol=1e-9)
        return problem, x, s

    def test_chord_step_where_the_start_underflows(self):
        # the search evaluated phi' at 8.8e-268, where it read -inf
        problem, x, s = self._underflow_chord()
        assert_exact_step_minimizes(problem, x, s - x)

    @pytest.mark.parametrize("near", [0.0, 1.0])
    def test_chord_slope_where_an_entry_underflows(self, monkeypatch, near):
        """phi' and phi'' agree with exact arithmetic inside (0, 1) where
        ``x + a d`` underflows to 0: near 0 on the chord from the vertex,
        and near 1 on a chord that takes the plan's floored entries, made
        subnormal, to 0 (and its other entries elsewhere)."""
        import gcgs.transport
        problem, x, s = self._underflow_chord()
        points = [2.0 ** -1074, 8.834116182923839e-268, 2.0 ** -80]
        if near == 1.0:
            floored = s == 1e-300
            x, s = np.where(floored, 1e-310, s), np.where(floored, 0.0, 0.5 * (s + x))
            points = [1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52]
        d = s - x
        slopes = []
        monkeypatch.setattr(gcgs.transport, "convex_min_unit",
                            lambda dphi, start: slopes.append(dphi) or 0.0)
        split = ot_split(problem)
        split.exact_step(x, d)
        c1 = float(np.vdot(split.f_grad(x), d))
        c2 = problem.lambda_lap * laplacian_reg(d, problem)
        for t in points:
            assert np.any(x + t * d == 0.0)  # the case under test
            slope, curv = slopes[0](t)
            with decimal.localcontext(decimal.Context(prec=40)):
                xs, ds = ([decimal.Decimal(v) for v in m.ravel()] for m in (x, d))
                ys = [xi + decimal.Decimal(t) * di for xi, di in zip(xs, ds)]
                entropy_slope = sum(di * (1 + yi.ln()) for di, yi in zip(ds, ys))
                entropy_curv = sum(di * di / yi for di, yi in zip(ds, ys))
            assert slope == pytest.approx(c1 + 2.0 * c2 * t + float(entropy_slope),
                                          rel=1e-12, abs=1e-12)
            assert curv == pytest.approx(2.0 * c2 + float(entropy_curv), rel=1e-12)

    def test_cg_split_gradient_finite_at_vertices(self):
        # LP vertices carry exact zeros; the floored entropy gradient
        # must stay finite there
        problem = self._cluster_problem()
        split = ot_cg_split(problem)
        vertex, _ = transport_lmo(problem.cost, problem.mu_s, problem.mu_t)
        assert vertex.min() == 0.0
        assert np.all(np.isfinite(split.f_grad(vertex)))
        assert np.isfinite(split.value(vertex))

