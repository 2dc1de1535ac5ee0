"""Tests for the transport stack: Sinkhorn, the exact LMO, regularizers.

Expected values come from four independent oracles defined below:
a bisection solver for 2x2 entropic transport (one free parameter),
a log-domain Sinkhorn that never leaves the log domain, brute-force
vertex enumeration of small transport polytopes, and scipy's LP solver
for medium instances.
"""

import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

import gcgs
from gcgs.numerics import make_rng
from gcgs.solver import OracleError, SolverConfig, solve, surrogate_gap
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


def sinkhorn_log_reference(cost, a, b, lam, tol, max_iter=200000, g=None):
    """Entropic plan by log-domain Sinkhorn on max-shifted log-sum-exps.

    Each sweep sets the potentials directly,
    ``f = log a - LSE_j(log_kernel + g)`` and
    ``g = log b - LSE_i(log_kernel + f)``, starting from ``g`` (zero by
    default), so no scaling is ever formed and no value can overflow.
    Returns the plan once the row violation (the columns are exact
    after each sweep) is at most ``tol``, or None after ``max_iter``
    sweeps.
    """
    log_kernel = -cost / lam - 1.0
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)

    def lse(m, axis):
        top = m.max(axis=axis, keepdims=True)
        return np.squeeze(
            top + np.log(np.exp(m - top).sum(axis=axis, keepdims=True)), axis)

    g = np.zeros(len(b)) if g is None else g
    for _ in range(max_iter):
        f = log_a - lse(log_kernel + g[None, :], 1)
        g = log_b - lse(log_kernel + f[:, None], 0)
        plan = np.exp(log_kernel + f[:, None] + g[None, :])
        if np.max(np.abs(plan.sum(axis=1) - a)) <= tol:
            return plan
    return None


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
        plan1, pots = sinkhorn(cost, a, b, 0.3, tol=1e-10,
                               return_potentials=True)
        plan2 = sinkhorn(cost, a, b, 0.3, tol=1e-10, potentials=pots)
        np.testing.assert_allclose(plan2, plan1, atol=1e-9)
        # warm potentials stay usable after a moderate cost perturbation
        bumped = cost + 0.01 * rng.random((6, 8))
        plan3 = sinkhorn(bumped, a, b, 0.3, tol=1e-10, potentials=pots)
        assert marginal_violation(plan3, a, b) <= 1e-10

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_plans_feasible_and_reproduced_by_potentials(self, data):
        """Cold calls, then warm calls on a cost moved by up to 1000 lambda."""
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
        pots = None
        for cost_k in (cost, moved):
            # Sinkhorn's sweep count has no bound over this domain (nearly
            # tied marginals under one dominant kernel entry converge
            # sublinearly), so the property is checked where the
            # log-domain reference converges from the same start
            assume(sinkhorn_log_reference(
                cost_k, a, b, lam, tol=1e-9, max_iter=5000,
                g=None if pots is None else pots[1]) is not None)
            plan, pots = sinkhorn(cost_k, a, b, lam, tol=1e-9,
                                  max_iter=100000, potentials=pots,
                                  return_potentials=True)
            assert np.all(np.isfinite(plan)) and plan.min() >= 0.0
            assert marginal_violation(plan, a, b) <= 1e-9
            # kernel entries below the normal range (2.2e-308) keep fewer
            # digits; scaled into the plan they stay far below 1e-200
            f, g = pots
            rebuilt = np.exp(-cost_k / lam - 1.0 + f[:, None] + g[None, :])
            np.testing.assert_allclose(np.maximum(rebuilt, 1e-300), plan,
                                       rtol=1e-9, atol=1e-200)

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
        with pytest.raises(ValueError, match="finite"):
            sinkhorn(np.array([[0.0, np.inf], [0.0, 0.0]]), a, a, 0.5)
        # one NaN is rejected up front, not after the sweep cap
        nan_cost = make_rng(29).random((50, 50))
        nan_cost[17, 3] = np.nan
        w = uniform_histogram(50)
        with pytest.raises(ValueError, match="finite"):
            sinkhorn(nan_cost, w, w, 0.1, max_iter=50000)
        # length-1 potentials would broadcast; they are rejected instead
        for pots in [(np.zeros(1), np.zeros(1)), (np.zeros(2), np.zeros(3))]:
            with pytest.raises(ValueError, match="shapes"):
                sinkhorn(cost, a, a, 0.5, potentials=pots)
        with pytest.raises(ValueError, match="finite where"):
            sinkhorn(cost, a, a, 0.5,
                     potentials=(np.zeros(2), np.array([0.0, np.nan])))
        with pytest.raises(ValueError, match="lambda_ent"):
            sinkhorn(cost, a, a, 0.0)
        with pytest.raises(ValueError, match="tol"):
            sinkhorn(cost, a, a, 0.5, tol=0.0)
        with pytest.raises(ValueError, match="shape"):
            sinkhorn(np.zeros((3, 2)), a, a, 0.5)


class TestTransportLmo:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_enumeration_on_random_3x3(self, seed):
        rng = make_rng(seed)
        cost = rng.random((3, 3))
        a = _hist(rng, 3)
        b = _hist(rng, 3)
        gamma = transport_lmo(cost, a, b)
        _, best = lmo_by_enumeration(cost, a, b)
        assert abs(float(np.vdot(gamma, cost)) - best) <= 1e-10
        assert gamma.min() >= 0.0
        assert marginal_violation(gamma, a, b) <= 1e-12

    def test_identity_cost_uniform_marginals(self):
        gamma = transport_lmo(1.0 - np.eye(3), uniform_histogram(3),
                              uniform_histogram(3))
        np.testing.assert_allclose(gamma, np.eye(3) / 3.0, atol=1e-12)

    def test_matches_linprog_medium(self):
        rng = make_rng(31)
        cost = rng.random((6, 7))
        a = _hist(rng, 6)
        b = _hist(rng, 7)
        gamma = transport_lmo(cost, a, b)
        _, lp_value = lmo_by_linprog(cost, a, b)
        assert abs(float(np.vdot(gamma, cost)) - lp_value) <= 1e-9
        assert marginal_violation(gamma, a, b) <= 1e-12

    def test_dual_certificate(self):
        rng = make_rng(37)
        cost = rng.random((8, 11))
        a = _hist(rng, 8)
        b = _hist(rng, 11)
        gamma, (u, v) = transport_lmo(cost, a, b, return_duals=True)
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-9
        # strong duality and complementary slackness
        primal = float(np.vdot(gamma, cost))
        dual = float(a @ u + b @ v)
        assert abs(primal - dual) <= 1e-9
        assert float(np.vdot(gamma, reduced)) <= 1e-9

    def test_warm_basis_matches_cold_solve(self):
        rng = make_rng(41)
        a = _hist(rng, 7)
        b = _hist(rng, 9)
        cost1 = rng.random((7, 9))
        cost2 = rng.random((7, 9))
        _, basis = transport_lmo(cost1, a, b, return_basis=True)
        warm = transport_lmo(cost2, a, b, basis=basis)
        cold = transport_lmo(cost2, a, b)
        assert abs(float(np.vdot(warm, cost2))
                   - float(np.vdot(cold, cost2))) <= 1e-12
        assert warm.min() >= 0.0
        assert marginal_violation(warm, a, b) <= 1e-12

    def test_marginal_lengths_must_match_cost(self):
        a = uniform_histogram(3)
        with pytest.raises(ValueError, match="cost shape"):
            transport_lmo(np.zeros((3, 3)), [1.0], a)
        with pytest.raises(ValueError, match="cost shape"):
            transport_lmo(np.zeros((3, 3)), uniform_histogram(2), a)

    def test_warm_basis_wrong_size_raises(self):
        a = uniform_histogram(3)
        with pytest.raises(ValueError, match="basis"):
            transport_lmo(np.zeros((3, 3)), a, a, basis=[(0, 0), (1, 1)])

    @pytest.mark.parametrize("basis, message", [
        ([(0, 0)] * 5, "repeat"),
        ([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)], "cycle"),
        ([(0, 0), (0, 1), (1, 1), (1, 2), (5, 2)], "out of range"),
        ("from 3x4", "out of range"),
        ([(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)], "span"),
        ([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)], "not feasible"),
    ], ids=["repeated", "cycle", "far-cell", "transposed-shape", "split",
            "infeasible"])
    def test_malformed_warm_basis_raises(self, basis, message):
        rng = make_rng(47)
        if basis == "from 3x4":
            _, basis = transport_lmo(rng.random((3, 4)), uniform_histogram(3),
                                     uniform_histogram(4), return_basis=True)
            cost, a, b = rng.random((4, 3)), uniform_histogram(4), uniform_histogram(3)
        else:
            cost, a, b = rng.random((3, 3)), uniform_histogram(3), uniform_histogram(3)
        with pytest.raises(ValueError, match=message):
            transport_lmo(cost, a, b, basis=basis)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_property_vertex_certified_and_warm_start_exact(self, data):
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
        cost, other = integer_cost(), integer_cost()
        gamma, basis, (u, v) = transport_lmo(cost, a, b, return_basis=True,
                                             return_duals=True)
        assert gamma.min() >= 0.0
        assert marginal_violation(gamma, a, b) <= 1e-12
        assert np.count_nonzero(gamma) <= r + c - 1
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-9
        primal = float(np.vdot(gamma, cost))
        assert abs(primal - float(a @ u + b @ v)) <= 1e-9
        assert float(np.vdot(gamma, reduced)) <= 1e-9
        # a warm start from another cost's optimal basis reaches the same value
        _, other_basis = transport_lmo(other, a, b, return_basis=True)
        warm = transport_lmo(cost, a, b, basis=other_basis)
        assert abs(float(np.vdot(warm, cost)) - primal) <= 1e-12

    def test_degenerate_uniform_marginals(self):
        # uniform-to-uniform with a Monge cost: many ties, still exact
        x = np.linspace(0.0, 1.0, 6)[:, None]
        cost = squared_distances(x, x + 0.37)
        a = uniform_histogram(6)
        gamma = transport_lmo(cost, a, a)
        _, lp_value = lmo_by_linprog(cost, a, a)
        assert abs(float(np.vdot(gamma, cost)) - lp_value) <= 1e-9

    def test_single_row_and_single_column(self):
        rng = make_rng(43)
        b = _hist(rng, 5)
        cost = rng.random((1, 5))
        gamma = transport_lmo(cost, uniform_histogram(1), b)
        np.testing.assert_allclose(gamma, b[None, :], atol=1e-12)
        gamma_t = transport_lmo(cost.T, b, uniform_histogram(1))
        np.testing.assert_allclose(gamma_t, b[:, None], atol=1e-12)

    def test_nonfinite_cost_raises(self):
        a = uniform_histogram(2)
        cost = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            transport_lmo(cost, a, a)


def test_solves_load_no_heavy_scipy_modules():
    """The library needs only scipy.special: scipy.optimize alone adds
    about 21 MB of resident memory on import."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
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
        heavy = ("scipy.optimize", "scipy.linalg", "scipy.sparse.linalg")
        print(",".join(m for m in heavy if m in sys.modules))
    """)
    src = os.path.dirname(os.path.dirname(gcgs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


class TestEntropyAndLaplacian:
    def test_negentropy_uniform_plan(self):
        gamma = np.full((2, 2), 0.25)
        assert negentropy(gamma) == pytest.approx(np.log(0.25), rel=1e-12)

    def test_negentropy_zero_entries_contribute_nothing(self):
        gamma = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert negentropy(gamma) == pytest.approx(np.log(0.5), rel=1e-12)

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
            lambda_s=0.7,
            lambda_t=1.3,
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
        expected = (0.7 * (((Ls + Ls.T) @ gamma @ Xt) @ Xt.T)
                    + 1.3 * (Xs @ (Xs.T @ (gamma @ (Lt + Lt.T)))))
        assert np.array_equal(laplacian_reg_grad(gamma, problem), expected)

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
        with pytest.raises(ValueError, match="lambda_ent"):
            TransportProblem(np.zeros((2, 2)), uniform_histogram(2),
                             uniform_histogram(2), lambda_ent=0.0)

    def test_negative_lambda_lap(self):
        with pytest.raises(ValueError, match="lambda_lap"):
            TransportProblem(np.zeros((2, 2)), uniform_histogram(2),
                             uniform_histogram(2), lambda_ent=0.5,
                             lambda_lap=-1.0)

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
        with pytest.raises(ValueError, match="k"):
            knn_laplacian(X, 0)
        with pytest.raises(ValueError, match="k"):
            knn_laplacian(X, 4)

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
        with pytest.raises(ValueError, match="noise"):
            make_cluster_data(9, 9, noise=-0.1)

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

    def _cluster_problem(self, seed=15, n=12):
        Xs, Xt, mu_s, mu_t = make_cluster_data(n, n, seed=seed)
        return TransportProblem(
            cost=squared_distances(Xs, Xt),
            mu_s=mu_s,
            mu_t=mu_t,
            lambda_ent=0.05,
            lambda_lap=1.0,
            lap_s=knn_laplacian(Xs, 3),
            lap_t=knn_laplacian(Xt, 3),
            Xs=Xs,
            Xt=Xt,
        )

    def test_oracle_is_sinkhorn_on_adjusted_cost(self):
        problem = self._entropic_problem()
        split = ot_split(problem, sinkhorn_tol=1e-9)
        x = np.outer(problem.mu_s, problem.mu_t)
        s = split.partial_oracle(x, split.f_grad(x))
        direct = sinkhorn(problem.cost, problem.mu_s, problem.mu_t,
                          problem.lambda_ent, tol=1e-9)
        np.testing.assert_array_equal(s, direct)

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

    def test_negative_raw_gap_has_its_own_termination(self):
        # the inexact Sinkhorn oracle returns a raw gap of about -1e-11 at
        # iteration 3, which must not pass for a certified gap_tol stop
        problem = self._cluster_problem(seed=0, n=20)
        split = ot_split(problem)
        result = solve(split, np.outer(problem.mu_s, problem.mu_t),
                       SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=3))
        assert result.termination == "negative_gap"
        assert result.trace[-1].k == 3 and result.trace[-1].surrogate_gap == 0.0
        x = result.x_final
        grad_f = split.f_grad(x)
        assert surrogate_gap(x, split.partial_oracle(x, grad_f), grad_f, split) < 0.0

    @pytest.mark.parametrize("rule", ["exact", "armijo", "fixed"])
    def test_split_solves_start_from_a_vertex(self, rule):
        # a vertex carries exact zeros, where the unfloored entropy
        # gradient is undefined
        problem = self._cluster_problem(seed=0, n=20)
        mu_s, mu_t = problem.mu_s, problem.mu_t
        vertex = transport_lmo(problem.cost, mu_s, mu_t)
        assert vertex.min() == 0.0
        result = solve(ot_split(problem), vertex,
                       SolverConfig(step_rule=rule, gap_tol=0.0, max_iter=5))
        assert len(result.trace) == 6
        assert result.x_final.min() >= 0.0
        assert marginal_violation(result.x_final, mu_s, mu_t) <= 1e-9
        assert result.objectives()[-1] < result.objectives()[0]

    def test_cg_split_gradient_finite_at_vertices(self):
        # LP vertices carry exact zeros; the floored entropy gradient
        # must stay finite there
        problem = self._cluster_problem()
        split = ot_cg_split(problem)
        vertex = transport_lmo(problem.cost, problem.mu_s, problem.mu_t)
        assert vertex.min() == 0.0
        assert np.all(np.isfinite(split.f_grad(vertex)))
        assert np.isfinite(split.value(vertex))

