from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import expit

import gcgs.solver
from gcgs.numerics import EvaluationError, make_rng
from gcgs.solver import (OracleError, SolverConfig, SpectralProjectedGradient,
                         SplitObjective, StallError,
                         cg_adapter, check_fixed_point, iterate_cache, solve,
                         step_armijo, step_exact, step_fixed, surrogate_gap)


def interval_quadratic():
    """f(x) = x^2, g = 0 on [-1, 1]; LMO returns the endpoint -sign(grad)."""
    return SplitObjective(
        f_eval=lambda x: float(x[0] ** 2),
        f_grad=lambda x: 2.0 * x,
        g_eval=lambda x: 0.0,
        g_grad=np.zeros_like,
        partial_oracle=lambda x, g, warm: (np.array([-1.0 if g[0] > 0 else 1.0]), None),
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
        partial_oracle=lambda x, g, warm: (project_l1(-g / (2 * lam), tau), None),
    )


def armijo_evaluations(alphas, warm=True):
    """Objective evaluations of the Armijo searches that ended at ``alphas``.

    Each search starts from the previous accepted step (from 1 for the
    first one, and for all of them when ``warm`` is off). From
    ``start = 2^-m``, a search ending at ``2^-j`` with ``j <= m`` tries
    ``start`` and each doubling up to ``2^-j``, then the rejected
    ``2^-(j-1)`` unless ``j = 0``; with ``j = m + 1``, ``start`` is
    rejected and the notch below it accepted: 2 trials; with ``j > m + 1``
    both are rejected and the scan from 1 down to ``2^-j`` skips them:
    ``j + 1`` trials.
    """
    total, m = 0, 0
    for alpha in alphas:
        j = round(-np.log2(alpha))
        if j <= m:
            total += 1 + (m - j) + (j > 0)
        else:
            total += 2 if j == m + 1 else j + 1
        m = j if warm else 0
    return total


def trace_bits(result):
    """Objective, gap, step and residual of every record, ``x_final`` and
    the termination, as bytes: equal only for bitwise-identical runs."""
    rows = [(r.objective, r.surrogate_gap, r.alpha, r.extra_residual)
            for r in result.trace]
    return (np.array(rows, dtype=float).tobytes(), result.x_final.tobytes(),
            result.termination)


def run_with_cold_armijo(monkeypatch, run):
    """``run()`` with every Armijo search of the solver started at 1."""
    step_armijo_warm = gcgs.solver.step_armijo
    with monkeypatch.context() as patch:
        patch.setattr(gcgs.solver, "step_armijo",
                      lambda *args, **kw: step_armijo_warm(*args, **{**kw, "start": 1.0}))
        return run()


def assert_cold_armijo_gives_the_same_run(monkeypatch, run):
    """``run()`` is bitwise unchanged when every Armijo search starts at 1.

    Returns the default (warm-started) result.
    """
    warm = run()
    assert trace_bits(warm) == trace_bits(run_with_cold_armijo(monkeypatch, run))
    return warm


def assert_chord_steps_agree(split, x0, max_iter):
    """``split.exact_step`` matches golden section along a golden-section run.

    Runs ``max_iter`` exact steps of ``split`` with its ``exact_step``
    removed, so every step is a golden-section search, and checks the
    split's own step at each of those iterates: within 1e-6 of the
    golden-section step, and no worse in objective beyond 1e-12
    relative. Later iterates of two runs drift apart (an inexact oracle
    amplifies ~1e-8 step differences), so runs are compared at identical
    iterates instead of trace by trace. Golden section compares values,
    so it resolves a step only to about sqrt(eps |F| / phi''): near an
    optimum, where the chord is flat, that exceeds 1e-6, so ``max_iter``
    must end the run before then.
    """
    golden = replace(split, exact_step=None)
    iterates = []
    oracle = golden.partial_oracle

    def spied(x, grad_f, warm):
        s, warm = oracle(x, grad_f, warm)
        iterates.append((x.copy(), s - x))
        return s, warm

    golden.partial_oracle = spied
    result = solve(golden, x0, SolverConfig(step_rule="exact", gap_tol=0.0,
                                            max_iter=max_iter))
    steps = [r.alpha for r in result.trace[:-1]]
    assert len(steps) == max_iter
    for (x, d), alpha_golden in zip(iterates, steps):
        alpha = split.exact_step(x, d)
        assert abs(alpha - alpha_golden) <= 1e-6
        f_golden = split.value(x + alpha_golden * d)
        assert split.value(x + alpha * d) <= f_golden + 1e-12 * max(1.0, abs(f_golden))


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
            s, _ = obj.partial_oracle(x, obj.f_grad(x), None)
            assert surrogate_gap(x, s, obj.f_grad(x), obj) >= -1e-12

    def test_a_given_chord_gives_the_same_bits(self):
        obj = ridge_on_ball()
        rng = make_rng(1)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 2)
            grad = obj.f_grad(x)
            s, _ = obj.partial_oracle(x, grad, None)
            gap = surrogate_gap(x, s, grad, obj)
            assert surrogate_gap(x, s, grad, obj, d=s - x) == gap
            assert surrogate_gap(x, s, grad, obj, obj.g_eval(x), s - x) == gap

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

    def test_exact_rejects_nonfinite_closed_form(self):
        # min(max(nan, 0), 1) is NaN: without the check the iterate turns
        # all-NaN and the failure surfaces one iteration later elsewhere
        obj = interval_quadratic()
        obj.exact_step = lambda x, d: np.nan
        with pytest.raises(EvaluationError, match="exact step"):
            step_exact(obj, np.array([0.8]), np.array([-1.8]))
        with pytest.raises(EvaluationError, match="exact step"):
            solve(obj, np.array([0.8]), SolverConfig(step_rule="exact", max_iter=3))

    def test_armijo_accepts_full_step_on_linear_descent(self):
        obj = ridge_on_ball(lam=1e-8)  # essentially linear objective
        x = np.zeros(2)
        d = np.array([0.0, 1.0])  # slope -2 direction
        assert step_armijo(obj, x, d, obj.f_grad(x), obj.value(x))[0] == 1.0

    def test_armijo_backtracks(self):
        # F = x^2, x=1, d=-4, slope -8: alpha=1 gives F(-3)=9, alpha=0.5
        # gives F(-1)=1 (no strict decrease); alpha=0.25 lands at 0
        obj = interval_quadratic()
        a, point, value = step_armijo(obj, np.array([1.0]), np.array([-4.0]),
                                      np.array([2.0]), obj.value(np.array([1.0])))
        assert a == 0.25
        # the accepted trial point and its objective, read-only
        assert point.tolist() == [0.0] and value == 0.0
        assert not point.flags.writeable

    def test_armijo_stalls_on_ascent(self):
        obj = interval_quadratic()
        with pytest.raises(StallError):
            step_armijo(obj, np.array([0.5]), np.array([1.0]), np.array([1.0]),
                        obj.value(np.array([0.5])))

    @pytest.mark.parametrize("start,trials", [
        (1.0, [1.0, 0.5, 0.25]),
        (0.5, [0.5, 0.25]),  # rejected: the notch below is accepted
        (0.25, [0.25, 0.5]),
        (0.125, [0.125, 0.25, 0.5]),
        (2.0 ** -10, [2.0 ** -j for j in range(10, 0, -1)]),
    ])
    def test_armijo_warm_start_brackets_the_cold_step(self, start, trials):
        # the setting of test_armijo_backtracks: steps up to 0.25 accepted
        obj = interval_quadratic()
        f_eval, tried = obj.f_eval, []
        obj.f_eval = lambda x: tried.append((x[0] - 1.0) / -4.0) or f_eval(x)
        a, point, value = step_armijo(obj, np.array([1.0]), np.array([-4.0]),
                                      np.array([2.0]), f_ref=1.0, start=start)
        assert a == 0.25
        # the accepted trial, not the last one tried, is returned
        assert point.tolist() == [0.0] and value == 0.0
        assert tried == trials
        assert armijo_evaluations([start, a]) - armijo_evaluations([start]) == len(trials)

    def test_armijo_rejected_notch_below_restarts_the_scan_from_1(self):
        # F = x^2, x = 1, d = -16: only steps up to 1/16 are accepted, so
        # from 1/2 the notch below fails too, and the scan from 1 skips
        # both trials already made
        obj = interval_quadratic()
        f_eval, tried = obj.f_eval, []
        obj.f_eval = lambda x: tried.append((x[0] - 1.0) / -16.0) or f_eval(x)
        a = step_armijo(obj, np.array([1.0]), np.array([-16.0]), np.array([2.0]),
                        f_ref=1.0, start=0.5)[0]
        assert a == 0.0625
        assert tried == [0.5, 0.25, 1.0, 0.125, 0.0625]
        assert armijo_evaluations([0.5, a]) - armijo_evaluations([0.5]) == len(tried)

    @pytest.mark.parametrize("start", [0.3, 2.0, 2.0 ** -51, 0.0, -0.5, np.nan])
    def test_armijo_start_must_be_on_the_grid(self, start):
        obj = interval_quadratic()
        with pytest.raises(ValueError, match="start"):
            step_armijo(obj, np.array([1.0]), np.array([-4.0]),
                        np.array([2.0]), obj.value(np.array([1.0])), start=start)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_armijo_start_never_changes_the_step_on_convex_chords(self, data):
        # F convex in 1-D: a quadratic, or a sum of logistic terms plus a
        # ridge, so every chord is convex and the accepted steps form an
        # interval [0, a_max]. Every warm start returns the cold step,
        # and makes no more trials than the search that rescanned from 1
        # right after a rejected start, wherever rounding cannot decide a
        # trial: where the reference exceeds F(x), or the start's
        # first-order decrease is, by far more than F's rounding error
        # (1e-10 relative)
        num = dict(allow_nan=False, allow_infinity=False)
        if data.draw(st.booleans(), label="logistic"):
            size = data.draw(st.integers(1, 6), label="terms")
            terms = st.lists(st.floats(-5.0, 5.0, **num), min_size=size, max_size=size)
            t = np.array(data.draw(terms, label="t"))
            u = np.array(data.draw(terms, label="u"))
            ridge = data.draw(st.floats(0.0, 1.0, **num), label="ridge")
            f_eval = lambda x: float(np.logaddexp(0.0, -(t + u * x[0])).sum()
                                     + ridge * x[0] ** 2)
            f_grad = lambda x: np.array([float(-(u @ expit(-(t + u * x[0])))
                                               + 2.0 * ridge * x[0])])
        else:
            c = data.draw(st.floats(1e-3, 1e3, **num), label="curvature")
            m = data.draw(st.floats(-10.0, 10.0, **num), label="minimizer")
            f_eval = lambda x: 0.5 * c * (x[0] - m) ** 2
            f_grad = lambda x: c * (x - m)
        obj = SplitObjective(f_eval=f_eval, f_grad=f_grad,
                             g_eval=lambda x: 0.0, g_grad=np.zeros_like,
                             partial_oracle=lambda x, g, warm: (x, None))
        x = np.array([data.draw(st.floats(-10.0, 10.0, **num), label="x")])
        g = obj.grad(x)
        assume(abs(g[0]) >= 1e-6)
        size = 10.0 ** data.draw(st.floats(-3.0, 3.0, **num), label="log10 |dx|")
        dx = -np.sign(g) * size
        fx = obj.value(x)
        scale = max(1.0, abs(fx))
        excess = data.draw(st.one_of(st.just(0.0), st.floats(1e-10, 1.0, **num)),
                           label="excess") * scale
        f_ref = fx + excess

        # the trials of that older search, from the verdict on every step
        slope = float(np.vdot(g, dx))
        accepts = [obj.value(x + 2.0 ** -i * dx)
                   <= f_ref + gcgs.solver._ARMIJO_SIGMA * 2.0 ** -i * slope
                   for i in range(51)]

        def rescan_trials(j):
            if accepts[j]:
                top = j
                while top > 0 and accepts[top - 1]:
                    top -= 1
                return 1 + (j - top) + (top > 0)
            rescan = [i for i in range(51) if i != j]
            return 1 + next((n for n, i in enumerate(rescan, 1) if accepts[i]),
                            len(rescan))

        trials = []
        f_eval = obj.f_eval
        obj.f_eval = lambda x: trials.append(x) or f_eval(x)

        def search(start, direction, reference):
            trials.clear()
            try:
                return step_armijo(obj, x, direction, g, f_ref=reference, start=start)[0]
            except StallError:
                return "stall"

        cold = search(1.0, dx, f_ref)
        for j in range(51):
            if excess > 0.0 or 2.0 ** -j * abs(g[0]) * size >= 1e-10 * scale:
                assert search(2.0 ** -j, dx, f_ref) == cold
                assert len(trials) <= rescan_trials(j)
        # an ascent steep enough to show at the smallest step stalls
        # from every start
        ascent = np.sign(g) * 2.0 ** 60 * scale / abs(g)
        for j in range(51):
            assert search(2.0 ** -j, ascent, fx) == "stall"

    def test_armijo_warm_start_below_the_rounding_floor_can_stop_short(self):
        # the known limitation: where the chord's decrease is far below
        # F's rounding error, acceptance is decided by rounding and is
        # not monotone, so a search from a tiny start can stop at a
        # rejected doubling that the scan from 1 never reaches
        t, u = np.zeros(3), np.array([0.0, 0.1, 0.0])
        obj = SplitObjective(
            f_eval=lambda x: float(np.logaddexp(0.0, -(t + u * x[0])).sum()
                                   + 0.5 * x[0] ** 2),
            f_grad=lambda x: np.array([float(-(u @ expit(-(t + u * x[0])))
                                             + x[0])]),
            g_eval=lambda x: 0.0, g_grad=np.zeros_like,
            partial_oracle=lambda x, g, warm: (x, None))
        x, dx = np.array([0.651497783107514]), np.array([-0.1])
        g = obj.grad(x)
        assert step_armijo(obj, x, dx, g, obj.value(x))[0] == 1.0
        assert step_armijo(obj, x, dx, g, obj.value(x), start=2.0 ** -50)[0] == 2.0 ** -50
        assert obj.value(x + 2.0 ** -49 * dx) > obj.value(x)  # rounding
        # a reference above F(x) by more than its rounding accepts the
        # whole bracket, and the warm start is exact again
        f_ref = obj.value(x) + 1e-10
        assert step_armijo(obj, x, dx, g, f_ref=f_ref, start=2.0 ** -50)[0] == 1.0


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
            partial_oracle=lambda x, g, warm: (x - 1e-16, None),
        )
        res = solve(obj, np.array([0.4]), SolverConfig(gap_tol=0.0, max_iter=50))
        assert res.termination == "stalled"

    def test_armijo_reuses_the_held_objective(self):
        obj = interval_quadratic()
        f_eval, evals = obj.f_eval, []
        obj.f_eval = lambda x: evals.append(x) or f_eval(x)
        res = solve(obj, np.array([0.9]),
                    SolverConfig(step_rule="armijo", gap_tol=1e-6, max_iter=50))
        # F(x0), then only the trials of each search: every iterate
        # after x0 is an accepted trial, whose objective the search holds
        alphas = [rec.alpha for rec in res.trace[:-1]]
        assert len(res.trace) > 2 and min(alphas) < 1.0
        assert len(evals) == 1 + armijo_evaluations(alphas)

    def test_oracle_state_is_carried_from_call_to_call(self):
        # the first call gets None and each later one what the call
        # before returned; a probe starts cold and keeps nothing
        obj = interval_quadratic()
        oracle, received, returned = obj.partial_oracle, [], []

        def spied(x, grad_f, warm):
            received.append(warm)
            returned.append(object())
            return oracle(x, grad_f, None)[0], returned[-1]

        obj.partial_oracle = spied
        res = solve(obj, np.array([1.0]),
                    SolverConfig(step_rule="fixed", gap_tol=0.0, max_iter=7))
        assert len(res.trace) == len(received) == 8
        assert received[0] is None
        assert all(w is r for w, r in zip(received[1:], returned))
        check_fixed_point(obj, res.x_final)
        assert received[-1] is None

    def test_oracle_error_carries_iteration(self):
        obj = interval_quadratic()
        obj.partial_oracle = lambda x, g, warm: (_ for _ in ()).throw(ValueError("boom"))
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
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gap_tol must be finite"):
                SolverConfig(gap_tol=bad)
        for bad in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="residual_tol must be finite"):
                SolverConfig(residual_tol=bad)
        for bad in (2.5, True):  # True used to run as max_iter=1
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                SolverConfig(max_iter=bad)


class TestSpectralStep:
    @pytest.mark.parametrize("s,y,step", [
        (None, None, 1.0),              # the start
        ([1.0, 0.0], [2.0, 0.0], 0.5),  # <s, s> / <s, y>
        ([1.0, 0.0], [0.0, 1.0], 1e10),  # <s, y> = 0
        ([1.0, 0.0], [-1.0, 0.0], 1e10),  # <s, y> < 0
        ([1e-6, 0.0], [1e6, 0.0], 1e-10),  # clipped from 1e-12 below
        ([1.0, 0.0], [1e-12, 0.0], 1e10),  # and from 1e12 above
    ])
    def test_step_is_a_function_of_the_previous_iterate(self, s, y, step):
        projected = []
        policy = SpectralProjectedGradient(lambda v: projected.append(v) or v + 1.0)
        x, grad_F = np.array([0.5, -0.25]), np.array([0.75, 1.5])
        d = (x - grad_F + 1.0) - x  # the fixed-point step solve passes
        previous = None if s is None else (x - s, grad_F - y)
        for _ in range(2):  # the same arguments give the same direction
            direction = policy.direction(x, grad_F, d, previous)
            np.testing.assert_array_equal(direction, (x - step * grad_F + 1.0) - x)
            if s is None:  # the start's step a = 1 is d itself
                assert direction is d and not projected
            else:
                np.testing.assert_array_equal(projected.pop(), x - step * grad_F)


class TestIterateCache:
    @staticmethod
    def _counted():
        calls = []
        return calls, iterate_cache(lambda x: calls.append(x) or float(np.sum(x)))

    def test_frozen_points_are_computed_once(self):
        calls, cached = self._counted()
        x = np.array([1.0, 2.0])
        x.flags.writeable = False
        assert cached(x) == cached(x) == 3.0
        assert len(calls) == 1
        # an equal array is not the same point
        y = np.array([1.0, 2.0])
        y.flags.writeable = False
        assert cached(y) == 3.0 and len(calls) == 2

    def test_keeps_the_last_two_points(self):
        calls, cached = self._counted()
        points = [np.full(2, float(i)) for i in range(3)]
        for p in points:
            p.flags.writeable = False
        for p in points:
            cached(p)
        cached(points[1])
        cached(points[2])
        assert len(calls) == 3
        cached(points[0])
        assert len(calls) == 4

    def test_never_trusts_arrays_that_can_change(self):
        calls, cached = self._counted()
        x = np.array([1.0, 2.0])
        assert cached(x) == 3.0
        x[0] = 5.0  # writeable: recomputed on every call
        assert cached(x) == 7.0
        x.flags.writeable = False
        assert cached(x) == 7.0
        x.flags.writeable = True  # writeable again: no longer trusted
        x[0] = 0.0
        assert cached(x) == 2.0
        base = np.array([1.0, 1.0])
        view = base[:]
        view.flags.writeable = False  # read-only, but its base is not
        assert cached(view) == 2.0
        base[0] = 4.0
        assert cached(view) == 5.0
        assert len(calls) == 6
        assert cached([1.0, 2.0]) == 3.0  # not an array at all

    def test_solve_freezes_iterates_and_returns_a_writeable_point(self):
        points = []
        obj = interval_quadratic()
        f_grad = obj.f_grad
        obj.f_grad = lambda x: points.append(x) or f_grad(x)
        for rule in ("exact", "armijo", "fixed"):
            x0 = np.array([0.9])
            res = solve(obj, x0, SolverConfig(step_rule=rule, gap_tol=0.0,
                                              max_iter=5))
            # writeable again once the run is over
            assert not any(p.flags.writeable for p in points[:-1])
            assert res.x_final is points[-1] and res.x_final.flags.writeable
            assert x0.flags.writeable and x0[0] == 0.9
            points.clear()


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
        # g = 0 has no gradient callable: grad F is grad f itself
        obj = ridge_on_ball()
        cg = cg_adapter(obj, lambda g: g)
        x = np.array([0.2, -0.1])
        assert cg.g_eval(x) == 0.0
        assert cg.g_grad is None
        assert np.array_equal(cg.grad(x), obj.grad(x))
        assert cg.f_eval(x) == pytest.approx(obj.value(x))

    @pytest.mark.parametrize("rule", ["exact", "armijo", "fixed"])
    def test_no_g_gradient_runs_the_zero_gradient_trace(self, rule):
        from gcgs.elasticnet import l1_lmo
        cg = cg_adapter(ridge_on_ball(c=np.array([1.0, -2.0, 0.0, 0.5])),
                        lambda g: l1_lmo(g, 1.0))
        cfg = SolverConfig(step_rule=rule, gap_tol=0.0, max_iter=200)
        with_zeros = replace(cg, g_grad=np.zeros_like)
        assert (trace_bits(solve(cg, np.zeros(4), cfg))
                == trace_bits(solve(with_zeros, np.zeros(4), cfg)))


class TestShippedSplits:
    def test_exact_steps_never_reach_golden_section(self, monkeypatch):
        # every split the library builds supplies its own exact step; the
        # golden-section search (about 53 evaluations per step) is only
        # for other objectives
        from gcgs import elasticnet as en
        from gcgs import transport as tr

        def forbidden(phi):
            raise AssertionError("golden-section search reached")

        monkeypatch.setattr(gcgs.solver, "golden_section_min", forbidden)
        Xs, Xt, mu_s, mu_t = tr.make_cluster_data(12, 12, seed=0)
        transport = tr.TransportProblem(
            tr.squared_distances(Xs, Xt), mu_s, mu_t, lambda_ent=0.05,
            lambda_lap=1e3, lap_s=tr.knn_laplacian(Xs, 3),
            lap_t=tr.knn_laplacian(Xt, 3), Xs=Xs, Xt=Xt)
        runs = [(split, np.outer(mu_s, mu_t)) for split in (
            tr.ot_split(transport, sinkhorn_tol=1e-5, sinkhorn_max_iter=50000),
            tr.ot_cg_split(transport))]
        rng = make_rng(5)
        Z = rng.standard_normal((30, 6))
        y = rng.integers(0, 2, size=30) * 2.0 - 1.0
        for loss in en.LOSSES:
            problem = en.ElasticNetProblem(Z=Z, y=y, loss=loss, tau=1.5)
            runs += [(en.en_split(problem), np.zeros(6)),
                     (en.en_cg_split(problem), np.zeros(6))]
        for split, x0 in runs:
            result = solve(split, x0, SolverConfig(step_rule="exact",
                                                   gap_tol=0.0, max_iter=3))
            assert len(result.trace) == 4
            assert all(0.0 < r.alpha for r in result.trace[:-1])

