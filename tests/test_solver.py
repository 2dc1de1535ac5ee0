from dataclasses import replace

import numpy as np
import pytest

from gcgs.numerics import EvaluationError, make_rng
from gcgs.solver import (OracleError, SolverConfig, SplitObjective, StallError,
                         cg_adapter, check_fixed_point, estimate_curvature,
                         solve, step_armijo, step_exact, step_fixed,
                         surrogate_gap)


def interval_quadratic():
    """f(x) = x^2, g = 0 on [-1, 1]; LMO returns the endpoint -sign(grad)."""
    return SplitObjective(
        f_eval=lambda x: float(x[0] ** 2),
        f_grad=lambda x: 2.0 * x,
        g_eval=lambda x: 0.0,
        g_grad=np.zeros_like,
        partial_oracle=lambda x, g: np.array([-1.0 if g[0] > 0 else 1.0]),
    )


def ridge_on_ball(lam=1.0, tau=1.0, c=None):
    """f(x) = <c, x>, g(x) = lam ||x||^2 over the L1 ball (projection oracle)."""
    from gcgs.elasticnet import project_l1
    c = np.array([1.0, -2.0]) if c is None else c
    return SplitObjective(
        f_eval=lambda x: float(c @ x),
        f_grad=lambda x: c.copy(),
        g_eval=lambda x: lam * float(x @ x),
        g_grad=lambda x: 2.0 * lam * x,
        partial_oracle=lambda x, g: project_l1(-g / (2 * lam), tau),
    )


class TestSurrogateGap:
    def test_hand_arithmetic(self):
        obj = ridge_on_ball()
        x = np.array([0.1, 0.1])
        s = np.array([0.0, 0.5])
        grad = obj.f_grad(x)
        expected = -((grad @ (s - x)) + (0.25 - 0.02))
        assert surrogate_gap(x, s, grad, obj) == pytest.approx(expected, abs=1e-15)

    def test_nonnegative_at_oracle_output(self):
        obj = ridge_on_ball()
        rng = make_rng(0)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 2)
            s = obj.partial_oracle(x, obj.f_grad(x))
            assert surrogate_gap(x, s, obj.f_grad(x), obj) >= -1e-12

    def test_zero_at_fixed_point(self):
        obj = ridge_on_ball()
        res = solve(obj, np.zeros(2), SolverConfig(gap_tol=1e-12, max_iter=500))
        gap, dist = check_fixed_point(obj, res.x_final)
        assert abs(gap) <= 1e-10
        assert dist <= 1e-5


class TestSteps:
    def test_fixed_sequence(self):
        assert step_fixed(0) == 1.0
        assert step_fixed(1) == pytest.approx(2.0 / 3.0)
        assert step_fixed(98) == pytest.approx(0.02)
        with pytest.raises(ValueError):
            step_fixed(-1)

    def test_exact_on_quadratic_chord(self):
        # F(x) = x^2 along x = 0.8 + a * (-1.8): minimizer a = 0.8 / 1.8
        obj = interval_quadratic()
        a = step_exact(obj, np.array([0.8]), np.array([-1.8]))
        assert abs(a - 0.8 / 1.8) < 1e-8

    def test_exact_zero_direction(self):
        obj = interval_quadratic()
        assert step_exact(obj, np.array([0.5]), np.array([0.0])) == 0.0

    def test_exact_prefers_closed_form(self):
        calls = []
        obj = interval_quadratic()
        obj.exact_step = lambda x, d: calls.append(1) or 0.25
        assert step_exact(obj, np.array([0.8]), np.array([-1.8])) == 0.25
        assert calls

    def test_armijo_accepts_full_step_on_linear_descent(self):
        obj = ridge_on_ball(lam=1e-8)  # essentially linear objective
        x = np.zeros(2)
        d = np.array([0.0, 1.0])  # slope -2 direction
        assert step_armijo(obj, x, d, obj.f_grad(x)) == 1.0

    def test_armijo_backtracks(self):
        # F = x^2, x=1, d=-4, slope -8: alpha=1 gives F(-3)=9, alpha=0.5
        # gives F(-1)=1 (no strict decrease); alpha=0.25 lands at 0
        obj = interval_quadratic()
        a = step_armijo(obj, np.array([1.0]), np.array([-4.0]),
                        np.array([2.0]))
        assert a == 0.25

    def test_armijo_stalls_on_ascent(self):
        obj = interval_quadratic()
        with pytest.raises(StallError):
            step_armijo(obj, np.array([0.5]), np.array([1.0]), np.array([1.0]))


class TestSolve:
    def test_interval_quadratic_converges(self):
        obj = interval_quadratic()
        res = solve(obj, np.array([1.0]), SolverConfig(step_rule="exact",
                                                       gap_tol=1e-9,
                                                       max_iter=2000))
        assert res.termination == "gap_tol"
        assert abs(res.x_final[0]) < 1e-4

    def test_ridge_converges_all_step_rules(self):
        for rule in ("exact", "armijo", "fixed"):
            obj = ridge_on_ball()
            cfg = SolverConfig(step_rule=rule, gap_tol=1e-7, max_iter=5000)
            res = solve(obj, np.array([0.3, 0.3]), cfg)
            assert res.termination == "gap_tol", rule
            # optimum of <c,x> + ||x||^2 over the ball: -c/2 = (-0.5, 1.0)
            # projected; interior since ||(-0.5,1)||_1 = 1.5 > 1 -> boundary
            assert res.trace[-1].surrogate_gap <= 1e-7

    def test_trace_contiguous_and_monotone_clock(self):
        obj = ridge_on_ball()
        res = solve(obj, np.zeros(2), SolverConfig(max_iter=50, gap_tol=1e-12))
        ks = [r.k for r in res.trace]
        assert ks == list(range(len(ks)))
        elapsed = [r.elapsed_s for r in res.trace]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))

    def test_gap_column_nonnegative(self):
        obj = ridge_on_ball()
        res = solve(obj, np.zeros(2), SolverConfig(max_iter=200, gap_tol=1e-10))
        assert all(r.surrogate_gap >= 0.0 for r in res.trace)

    def test_record_trace_off(self):
        obj = ridge_on_ball()
        cfg = SolverConfig(max_iter=20)
        full = solve(obj, np.zeros(2), cfg)
        res = solve(obj, np.zeros(2), replace(cfg, record_trace=False))
        # only the final record is kept, so the outcome stays readable
        assert len(res.trace) == 1 and len(full.trace) > 1
        last, kept = full.trace[-1], res.trace[0]
        assert (kept.k, kept.objective, kept.surrogate_gap, kept.alpha) == (
            last.k, last.objective, last.surrogate_gap, last.alpha)
        assert res.termination == full.termination
        np.testing.assert_array_equal(res.x_final, full.x_final)

    def test_max_iter_termination(self):
        obj = interval_quadratic()
        res = solve(obj, np.array([1.0]), SolverConfig(step_rule="fixed",
                                                       gap_tol=0.0, max_iter=7))
        assert res.termination == "max_iter"
        assert res.trace[-1].k == 7

    def test_stalled_on_vanishing_direction(self):
        # oracle output differs from the iterate by less than the step
        # floor but still has a positive gap, so only the stall rule fires
        obj = SplitObjective(
            f_eval=lambda x: float(x @ x),
            f_grad=lambda x: 2 * x,
            g_eval=lambda x: 0.0,
            g_grad=np.zeros_like,
            partial_oracle=lambda x, g: x - 1e-16,
        )
        res = solve(obj, np.array([0.4]), SolverConfig(gap_tol=0.0, max_iter=50))
        assert res.termination == "stalled"

    def test_armijo_reuses_the_held_objective(self):
        obj = interval_quadratic()
        f_eval, evals = obj.f_eval, []
        obj.f_eval = lambda x: evals.append(x) or f_eval(x)
        res = solve(obj, np.array([0.9]),
                    SolverConfig(step_rule="armijo", gap_tol=1e-6, max_iter=50))
        # one evaluation per iterate plus one per trial step 0.5^j
        trials = sum(round(-np.log2(rec.alpha)) + 1 for rec in res.trace[:-1])
        assert len(res.trace) > 2
        assert len(evals) == len(res.trace) + trials

    def test_oracle_error_carries_iteration(self):
        obj = interval_quadratic()
        obj.partial_oracle = lambda x, g: (_ for _ in ()).throw(ValueError("boom"))
        with pytest.raises(OracleError) as err:
            solve(obj, np.array([1.0]), SolverConfig(max_iter=10))
        assert err.value.iteration == 0

    def test_nonfinite_objective_raises(self):
        obj = interval_quadratic()
        obj.f_eval = lambda x: float("nan")
        with pytest.raises(EvaluationError):
            solve(obj, np.array([1.0]), SolverConfig(max_iter=10))

    def test_residual_stopping(self):
        # f is linear so the oracle is constant at the optimum
        # project_l1(-c/2, 1) = (-0.25, 0.75); the residual rule is
        # checked before the gap rule and fires on arrival
        obj = ridge_on_ball()
        opt = np.array([-0.25, 0.75])
        obj.residual = lambda x, grad_F: float(np.max(np.abs(x - opt)))
        cfg = SolverConfig(max_iter=5000, gap_tol=0.0, residual_tol=1e-3)
        res = solve(obj, np.zeros(2), cfg)
        assert res.termination == "fp_residual"
        assert res.trace[-1].extra_residual <= 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(step_rule="newton")
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=-1e-3)
        with pytest.raises(ValueError, match="gap_tol"):
            SolverConfig(gap_tol=float("nan"))
        for bad in (-1e-3, float("nan")):
            with pytest.raises(ValueError, match="residual_tol"):
                SolverConfig(residual_tol=bad)
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=2.5)


class TestCgAdapter:
    def test_solves_same_problem(self):
        from gcgs.elasticnet import l1_lmo
        obj = ridge_on_ball()
        cg = cg_adapter(obj, lambda g: l1_lmo(g, 1.0))
        res = solve(cg, np.zeros(2), SolverConfig(step_rule="exact",
                                                  gap_tol=1e-6, max_iter=20000))
        ref = solve(obj, np.zeros(2), SolverConfig(step_rule="exact",
                                                   gap_tol=1e-9, max_iter=5000))
        assert res.trace[-1].objective == pytest.approx(
            ref.trace[-1].objective, abs=1e-5)

    def test_preserves_residual_and_exact_step(self):
        obj = ridge_on_ball()
        obj.residual = lambda x: 0.0
        obj.exact_step = lambda x, d: 0.5
        cg = cg_adapter(obj, lambda g: g)
        assert cg.residual is obj.residual
        assert cg.exact_step is obj.exact_step

    def test_zero_g_part(self):
        obj = ridge_on_ball()
        cg = cg_adapter(obj, lambda g: g)
        x = np.array([0.2, -0.1])
        assert cg.g_eval(x) == 0.0
        assert np.array_equal(cg.g_grad(x), np.zeros(2))
        assert cg.f_eval(x) == pytest.approx(obj.value(x))


class TestCurvature:
    def test_diagonal_quadratic_exact_value(self):
        # f = sum a_i x_i^2 over the L1 ball: C_F = 8 tau^2 max(a)
        a = np.array([0.5, 2.0, 1.0])
        tau = 1.5
        obj = SplitObjective(
            f_eval=lambda x: float(a @ (x * x)),
            f_grad=lambda x: 2.0 * a * x,
            g_eval=lambda x: 0.0,
            g_grad=np.zeros_like,
            partial_oracle=lambda x, g: x,
        )
        i_star = int(np.argmax(a))
        pairs = [(tau * np.eye(3)[i_star], -tau * np.eye(3)[i_star])]
        rng = make_rng(0)
        for _ in range(30):
            x = rng.uniform(-1, 1, 3)
            x *= tau / max(1.0, np.abs(x).sum())
            s = rng.uniform(-1, 1, 3)
            s *= tau / max(1.0, np.abs(s).sum())
            pairs.append((x, s))
        it = iter(pairs * 10)
        est = estimate_curvature(obj, lambda r: next(it), rng,
                                 n_samples=len(pairs))
        assert est == pytest.approx(8 * tau ** 2 * a.max(), rel=1e-12)

    def test_rejects_empty_sampling(self):
        obj = interval_quadratic()
        with pytest.raises(ValueError):
            estimate_curvature(obj, lambda r: (0, 0), make_rng(0), n_samples=0)
