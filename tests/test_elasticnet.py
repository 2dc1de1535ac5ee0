"""Tests for the elastic-net stack: projection, oracles, solvers, data.

Expected values come from independent oracles defined below: a dual
bisection for the L1 projection, a dense 2-D grid search for the
regularized subproblem, ridge closed forms for unconstrained runs, and
central finite differences for gradients.
"""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

import gcgs.solver
from gcgs import elasticnet
from gcgs.numerics import golden_section_min, make_rng
from gcgs.solver import (ProjectedGradient, SolverConfig,
                         SpectralProjectedGradient, SplitObjective,
                         cg_adapter, solve, surrogate_gap)
from gcgs.elasticnet import (
    LOSSES,
    Dataset,
    ElasticNetProblem,
    _logistic,
    en_cg_split,
    en_oracle,
    en_split,
    fixed_point_residual,
    l1_lmo,
    load_csv_dataset,
    loss_eval,
    loss_grad,
    make_toy_classification,
    objective,
    objective_grad,
    pg_solve,
    problem_from_dataset,
    project_l1,
    spg_solve,
)
from test_numerics import finite_diff_grad
from test_solver import (armijo_evaluations, assert_chord_steps_agree,
                         assert_cold_armijo_gives_the_same_run,
                         run_with_cold_armijo, trace_bits)


def save_csv_dataset(path, dataset, label_column="label"):
    """Write raw features and labels as CSV (header row, full precision).

    No split column is written: ``load_csv_dataset`` re-derives the split.
    """
    d = dataset.Z.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{j}" for j in range(d)] + [label_column])
        for i in range(dataset.Z.shape[0]):
            # repr of a Python float round-trips exactly
            writer.writerow([repr(float(v)) for v in dataset.Z[i]]
                            + [repr(float(dataset.y[i]))])


def project_l1_bisection(v, tau):
    """L1-ball projection via bisection on the dual threshold.

    The projection soft-thresholds at the theta >= 0 solving
    sum(max(|v_i| - theta, 0)) = tau whenever v lies outside the ball;
    that sum is continuous and decreasing in theta, so bisection on
    [0, max|v|] pins it down to machine precision.
    """
    v = np.asarray(v, dtype=np.float64)
    if np.abs(v).sum() <= tau:
        return v.copy()
    lo, hi = 0.0, float(np.abs(v).max())
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        if np.maximum(np.abs(v) - theta, 0.0).sum() > tau:
            lo = theta
        else:
            hi = theta
    theta = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


def project_l1_sorting_reference(v, tau):
    """The sort-based projection as first written, one numpy call a step.

    ``project_l1`` must return these bytes, signed zeros included.
    """
    v = np.asarray(v, dtype=np.float64)
    mag = np.abs(v)
    if mag.sum() <= tau:
        return v.copy()
    u = np.sort(mag)[::-1]
    cssv = np.cumsum(u) - tau
    j = np.arange(1, u.size + 1)
    rho = np.nonzero(u * j > cssv)[0][-1]
    theta = cssv[rho] / (rho + 1.0)
    return np.sign(v) * np.maximum(mag - theta, 0.0)


def assert_l1_projection(v, tau, p):
    """``p`` is the L1-ball projection of ``v`` up to rounding at ``max|v|``.

    Checks the optimality conditions with the absolute tolerance
    ``delta = 8 n eps max|v|``: ``||p||_1 <= tau + delta``; ``p``
    shrinks every entry of ``v`` toward zero without changing its sign,
    the nonzero entries by the same ``theta`` (to ``delta``), where
    ``theta`` is the largest shrink; and either ``theta <= delta`` (the
    interior, where ``p`` is ``v``) or ``||p||_1 >= tau - delta`` (the
    sphere).
    """
    mag = np.abs(v)
    delta = 8.0 * v.size * np.finfo(float).eps * float(mag.max())
    assert p.shape == v.shape and np.all(np.isfinite(p))
    l1 = float(np.abs(p).sum())
    assert l1 <= tau + delta
    assert np.all(np.sign(p) * np.sign(v) >= 0.0) and np.all(np.abs(p) <= mag)
    shrink = mag - np.abs(p)
    theta = float(shrink.max())
    assert np.all(shrink[p != 0.0] >= theta - delta)
    assert theta <= delta or l1 >= tau - delta


def l1_lmo_reference(g, tau):
    """The vertex oracle as first written."""
    g = np.asarray(g, dtype=np.float64)
    i = int(np.argmax(np.abs(g)))
    s = np.zeros_like(g)
    if g[i] == 0.0:
        s[0] = tau
    else:
        s[i] = -tau * np.sign(g[i])
    return s


def en_subproblem_by_grid(grad, lam, tau, n_grid=801):
    """Dense grid minimizer of <grad, s> + lam s's over the 2-D L1 ball."""
    t = np.linspace(-tau, tau, n_grid)
    s1, s2 = np.meshgrid(t, t, indexing="ij")
    feasible = np.abs(s1) + np.abs(s2) <= tau + 1e-12
    q = grad[0] * s1 + grad[1] * s2 + lam * (s1 ** 2 + s2 ** 2)
    q[~feasible] = np.inf
    i, j = np.unravel_index(np.argmin(q), q.shape)
    return np.array([t[i], t[j]]), float(q[i, j])


def ridge_solution(Z, y, lam):
    """Closed-form minimizer of 0.5||Zx - y||^2 + lam x'x."""
    d = Z.shape[1]
    return np.linalg.solve(Z.T @ Z + 2.0 * lam * np.eye(d), Z.T @ y)


def _small_problem(seed=0, n=40, d=12, lam=1.0, tau=2.0, loss="squared"):
    rng = make_rng(seed)
    Z = rng.standard_normal((n, d))
    if loss == "squared":
        y = rng.standard_normal(n)
    else:
        y = rng.integers(0, 2, size=n) * 2.0 - 1.0
    return ElasticNetProblem(Z=Z, y=y, loss=loss, lam=lam, tau=tau)


class TestProjectL1:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tau", [0.5, 1.0, 3.0])
    def test_matches_bisection_oracle(self, seed, tau):
        rng = make_rng(seed)
        v = 3.0 * rng.standard_normal(rng.integers(1, 40))
        np.testing.assert_allclose(project_l1(v, tau),
                                   project_l1_bisection(v, tau), atol=1e-9)

    def test_interior_point_returned_unchanged(self):
        v = np.array([0.3, -0.2, 0.1])
        p = project_l1(v, 1.0)
        np.testing.assert_array_equal(p, v)
        p[0] = 99.0  # the result must be a private copy
        assert v[0] == 0.3

    def test_hand_checked_example(self):
        np.testing.assert_allclose(project_l1(np.array([3.0, 1.0]), 2.0),
                                   [2.0, 0.0], atol=1e-12)

    def test_projection_optimality(self):
        rng = make_rng(9)
        v = 4.0 * rng.standard_normal(8)
        tau = 1.5
        p = project_l1(v, tau)
        assert abs(np.abs(p).sum() - tau) <= 1e-9
        for _ in range(20):
            w = rng.standard_normal(8)
            w = project_l1(w, tau)
            assert np.sum((v - p) ** 2) <= np.sum((v - w) ** 2) + 1e-12

    def test_tau_validation(self):
        for tau in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                project_l1(np.ones(3), tau)

    def test_rejects_matrices(self):
        with pytest.raises(ValueError, match="1-D"):
            project_l1(np.ones((2, 2)), 1.0)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(v=hnp.arrays(np.float64, st.integers(1, 40), elements=st.one_of(
               st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, -1.0]))),
           tau=st.floats(1e-3, 1e3))
    def test_same_bytes_as_the_sorting_reference(self, v, tau):
        # ties, zeros of either sign and interior points included
        assert (project_l1(v, tau).tobytes()
                == project_l1_sorting_reference(v, tau).tobytes())

    @pytest.mark.parametrize("v, tau", [
        ([1e20, 1e20], 1.0), ([1e17, 3.0], 1.0), ([1e308, -1e308, 1.0], 2.0),
        ([1e308, 1e308], 1.0)])
    def test_rounding_and_overflow_extremes(self, v, tau):
        # tau below half an ulp of max|v| rejects every threshold, and
        # |v|_1 overflows in the last two cases, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = project_l1(np.array(v), tau)
        assert_l1_projection(np.array(v), tau, p)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(v=hnp.arrays(np.float64, st.integers(1, 40), elements=st.one_of(
               st.floats(-1e308, 1e308), st.floats(-1e3, 1e3),
               st.sampled_from([0.0, 1e20, -1e20, 1e308, -1e308, 3.0]))),
           tau=st.one_of(st.floats(1e-3, 1e3), st.floats(1e-300, 1e300)))
    def test_property_projection_at_any_magnitude(self, v, tau):
        assert_l1_projection(v, tau, project_l1(v, tau))

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(v=hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-1e3, 1e3)),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    def test_non_finite_entries_raise(self, v, bad, data):
        v[data.draw(st.integers(0, v.size - 1), label="position")] = bad
        with pytest.raises(ValueError, match="non-finite"):
            project_l1(v, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            l1_lmo(v, 1.0)


class TestSubproblemOracle:
    @pytest.mark.parametrize("seed,lam,tau", [
        (0, 0.5, 1.0), (1, 2.0, 1.0), (2, 0.5, 3.0),
        (3, 1.0, 0.4), (4, 5.0, 2.0),
    ])
    def test_matches_grid_search(self, seed, lam, tau):
        rng = make_rng(seed)
        grad = 3.0 * rng.standard_normal(2)
        problem = ElasticNetProblem(Z=np.eye(2), y=np.zeros(2),
                                    lam=lam, tau=tau)
        s = en_oracle(problem, np.zeros(2), grad)
        s_grid, q_grid = en_subproblem_by_grid(grad, lam, tau)
        # the exact minimizer can never lose to any grid point
        q_s = float(grad @ s) + lam * float(s @ s)
        assert q_s <= q_grid + 1e-12
        np.testing.assert_allclose(s, s_grid, atol=2.0 * tau / 800)

    def test_interior_case_is_scaled_gradient(self):
        problem = ElasticNetProblem(Z=np.eye(2), y=np.zeros(2),
                                    lam=2.0, tau=10.0)
        grad = np.array([1.0, -3.0])
        np.testing.assert_allclose(
            en_oracle(problem, np.zeros(2), grad), -grad / 4.0, atol=1e-15)


class TestL1Lmo:
    def test_picks_largest_gradient_coordinate(self):
        np.testing.assert_array_equal(
            l1_lmo(np.array([3.0, -1.0]), 2.0), [-2.0, 0.0])
        np.testing.assert_array_equal(
            l1_lmo(np.array([1.0, -4.0]), 2.0), [0.0, 2.0])

    def test_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(
            l1_lmo(np.array([2.0, -2.0]), 1.0), [-1.0, 0.0])

    def test_zero_gradient_convention(self):
        np.testing.assert_array_equal(
            l1_lmo(np.zeros(3), 1.5), [1.5, 0.0, 0.0])

    def test_dominates_all_vertices(self):
        rng = make_rng(21)
        tau = 1.3
        for _ in range(30):
            g = rng.standard_normal(6)
            best = min(sign * tau * g[i]
                       for i in range(6) for sign in (-1.0, 1.0))
            assert float(g @ l1_lmo(g, tau)) <= best + 1e-12

    def test_tau_validation(self):
        for tau in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                l1_lmo(np.ones(2), tau)

    def test_rejects_matrices(self):
        with pytest.raises(ValueError, match="1-D"):
            l1_lmo(np.ones((2, 2)), 1.0)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(g=hnp.arrays(np.float64, st.integers(1, 30), elements=st.one_of(
               st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 2.0, -2.0]))),
           tau=st.floats(1e-3, 1e3))
    def test_same_bytes_as_the_reference(self, g, tau):
        assert l1_lmo(g, tau).tobytes() == l1_lmo_reference(g, tau).tobytes()


class TestLosses:
    def test_values_at_zero(self):
        rng = make_rng(2)
        n = 15
        Z = rng.standard_normal((n, 4))
        y = rng.standard_normal(n)
        sq = ElasticNetProblem(Z=Z, y=y, loss="squared", lam=1.0, tau=1.0)
        assert loss_eval(sq, np.zeros(4)) == pytest.approx(
            0.5 * float(y @ y), rel=1e-12)
        labels = rng.integers(0, 2, size=n) * 2.0 - 1.0
        logit = ElasticNetProblem(Z=Z, y=labels, loss="logistic",
                                  lam=1.0, tau=1.0)
        assert loss_eval(logit, np.zeros(4)) == pytest.approx(
            n * np.log(2.0), rel=1e-12)
        hinge = ElasticNetProblem(Z=Z, y=labels, loss="squared_hinge",
                                  lam=1.0, tau=1.0)
        assert loss_eval(hinge, np.zeros(4)) == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("loss", ["squared", "logistic", "squared_hinge"])
    def test_grad_matches_finite_diff(self, loss):
        problem = _small_problem(seed=4, n=12, d=5, loss=loss)
        rng = make_rng(5)
        x = 0.3 * rng.standard_normal(5)
        fd = finite_diff_grad(lambda v: loss_eval(problem, v), x)
        np.testing.assert_allclose(loss_grad(problem, x), fd,
                                   rtol=1e-5, atol=1e-7)

    def test_objective_adds_ridge_term(self):
        problem = _small_problem(seed=6, lam=0.7)
        rng = make_rng(7)
        x = rng.standard_normal(12)
        assert objective(problem, x) - loss_eval(problem, x) == pytest.approx(
            0.7 * float(x @ x), rel=1e-12)
        np.testing.assert_allclose(
            objective_grad(problem, x) - loss_grad(problem, x),
            1.4 * x, atol=1e-12)

    def test_problem_validation(self):
        Z = np.eye(3)
        with pytest.raises(ValueError, match="labels"):
            ElasticNetProblem(Z=Z, y=np.array([0.0, 1.0, -1.0]),
                              loss="logistic", lam=1.0, tau=1.0)
        with pytest.raises(ValueError, match="unknown loss"):
            ElasticNetProblem(Z=Z, y=np.ones(3), loss="huber",
                              lam=1.0, tau=1.0)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam"):
                ElasticNetProblem(Z=Z, y=np.ones(3), lam=bad, tau=1.0)
            with pytest.raises(ValueError, match="tau"):
                ElasticNetProblem(Z=Z, y=np.ones(3), lam=1.0, tau=bad)
        with pytest.raises(ValueError, match="row counts"):
            ElasticNetProblem(Z=Z, y=np.ones(4), lam=1.0, tau=1.0)
        with pytest.raises(ValueError, match="no feature column"):
            ElasticNetProblem(Z=np.ones((3, 0)), y=np.ones(3), lam=1.0, tau=1.0)

    def test_logistic_matches_scipy_expit(self):
        z = np.linspace(-700.0, 700.0, 200001)
        np.testing.assert_allclose(_logistic(z), expit(z), rtol=1e-15, atol=0.0)

    def test_logistic_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _logistic(np.array([-1e3, 1e3, -np.inf, np.inf]))
        assert out.tolist() == [0.0, 1.0, 0.0, 1.0]


class TestFixedPointResidual:
    def test_zero_at_unconstrained_optimum(self):
        problem = _small_problem(seed=8, tau=1e3)
        x_star = ridge_solution(problem.Z, problem.y, problem.lam)
        assert np.abs(x_star).sum() < problem.tau  # genuinely interior
        assert fixed_point_residual(
            problem, x_star, objective_grad(problem, x_star)) <= 1e-10

    def test_positive_away_from_optimum(self):
        problem = _small_problem(seed=8)
        x = np.zeros(12)
        assert fixed_point_residual(problem, x, objective_grad(problem, x)) > 1e-2


class TestEnSplit:
    def test_value_and_grad_match_objective(self):
        problem = _small_problem(seed=10)
        split = en_split(problem)
        rng = make_rng(11)
        x = 0.1 * rng.standard_normal(12)
        assert split.value(x) == pytest.approx(objective(problem, x), rel=1e-13)
        np.testing.assert_allclose(split.grad(x), objective_grad(problem, x),
                                   atol=1e-12)

    def test_exact_step_matches_golden_section(self):
        problem = _small_problem(seed=12)
        split = en_split(problem)
        rng = make_rng(13)
        x = project_l1(rng.standard_normal(12), problem.tau)
        d = project_l1(rng.standard_normal(12), problem.tau) - x
        alpha = split.exact_step(x, d)
        alpha_gs = golden_section_min(lambda a: split.value(x + a * d))
        assert abs(alpha - alpha_gs) <= 1e-6

    def test_exact_step_clips_to_unit_interval(self):
        problem = ElasticNetProblem(Z=np.eye(2), y=np.array([10.0, 0.0]),
                                    lam=0.01, tau=20.0)
        split = en_split(problem)
        x = np.zeros(2)
        d = np.array([1.0, 0.0])  # unconstrained minimizer far beyond 1
        assert split.exact_step(x, d) == 1.0
        assert split.exact_step(x, -d) == 0.0

    def test_cgs_reaches_ridge_solution_when_ball_is_large(self):
        problem = _small_problem(seed=14, tau=1e3)
        result = solve(en_split(problem), np.zeros(12),
                       SolverConfig(step_rule="exact", gap_tol=0.0,
                                    residual_tol=1e-8, max_iter=5000))
        assert result.termination == "fp_residual"
        np.testing.assert_allclose(
            result.x_final, ridge_solution(problem.Z, problem.y, problem.lam),
            atol=1e-6)

    def test_cgs_respects_active_constraint(self):
        problem = _small_problem(seed=14, tau=0.5)
        result = solve(en_split(problem), np.zeros(12),
                       SolverConfig(step_rule="exact", gap_tol=0.0,
                                    residual_tol=1e-7, max_iter=5000))
        assert result.termination == "fp_residual"
        assert np.abs(result.x_final).sum() <= 0.5 * (1.0 + 1e-10)

    def test_start_at_optimum_stops_at_iteration_zero(self):
        problem = _small_problem(seed=14, tau=1e3)
        x_star = ridge_solution(problem.Z, problem.y, problem.lam)
        result = solve(en_split(problem), x_star,
                       SolverConfig(residual_tol=1e-8, max_iter=100))
        assert result.termination == "fp_residual"
        assert len(result.trace) == 1 and result.trace[0].k == 0

    def test_chord_step_agrees_with_golden_section(self):
        for loss in ("logistic", "squared_hinge"):
            problem = _small_problem(seed=16, d=6, loss=loss, tau=1.5)
            split = en_split(problem)
            # the splitting run nears its optimum within a few steps, where
            # golden section no longer resolves the step to 1e-6
            assert_chord_steps_agree(split, np.zeros(6), max_iter=5)
            assert_chord_steps_agree(en_cg_split(problem), np.zeros(6),
                                     max_iter=12)
            result = solve(split, np.zeros(6),
                           SolverConfig(step_rule="exact", gap_tol=1e-9,
                                        max_iter=300))
            objs = result.objectives()
            assert np.all(np.diff(objs) <= 1e-12)
            assert objs[-1] < objs[0]


class TestCgSplit:
    def test_moves_regularizer_into_smooth_part(self):
        problem = _small_problem(seed=18)
        split = en_cg_split(problem)
        rng = make_rng(19)
        x = 0.1 * rng.standard_normal(12)
        assert split.g_eval(x) == 0.0
        assert split.f_eval(x) == pytest.approx(objective(problem, x), rel=1e-13)

    def test_oracle_returns_ball_vertices(self):
        problem = _small_problem(seed=18)
        split = en_cg_split(problem)
        x = np.zeros(12)
        s = split.partial_oracle(x, split.f_grad(x))
        assert np.count_nonzero(s) == 1
        assert abs(np.abs(s).sum() - problem.tau) <= 1e-12

    def test_descends_with_exact_steps(self):
        problem = _small_problem(seed=18, tau=0.8)
        result = solve(en_cg_split(problem), np.zeros(12),
                       SolverConfig(step_rule="exact", gap_tol=1e-10,
                                    max_iter=60))
        objs = result.objectives()
        assert np.all(np.diff(objs) <= 1e-12)
        assert objs[-1] < objs[0]
        assert np.all(result.gaps() >= 0.0)


class TestBaselines:
    def _cfg(self, tol=1e-8, max_iter=5000):
        return SolverConfig(residual_tol=tol, max_iter=max_iter)

    def test_spg_matches_ridge_closed_form(self):
        problem = _small_problem(seed=20, tau=1e3)
        result = spg_solve(problem, np.zeros(12), self._cfg())
        assert result.termination == "fp_residual"
        np.testing.assert_allclose(
            result.x_final, ridge_solution(problem.Z, problem.y, problem.lam),
            atol=1e-6)

    def test_pg_matches_ridge_closed_form(self):
        # monotone Armijo cannot certify decreases below rounding noise
        # in F, which floors the reachable residual near sqrt(eps*F*L);
        # 1e-5 sits safely above that floor
        problem = _small_problem(seed=20, tau=1e3)
        result = pg_solve(problem, np.zeros(12), self._cfg(tol=1e-5))
        assert result.termination == "fp_residual"
        np.testing.assert_allclose(
            result.x_final, ridge_solution(problem.Z, problem.y, problem.lam),
            atol=1e-4)

    def test_all_solvers_agree_on_active_constraint(self):
        problem = _small_problem(seed=22, tau=0.8)
        cfg = SolverConfig(step_rule="exact", gap_tol=0.0,
                           residual_tol=1e-7, max_iter=20000)
        runs = [
            solve(en_split(problem), np.zeros(12), cfg),
            spg_solve(problem, np.zeros(12), cfg),
            pg_solve(problem, np.zeros(12), cfg),
        ]
        values = [objective(problem, r.x_final) for r in runs]
        for r in runs:
            assert r.termination == "fp_residual"
        assert max(values) - min(values) <= 1e-8 * max(1.0, values[0])

    def test_baselines_require_residual_tol(self):
        problem = _small_problem(seed=24)
        with pytest.raises(ValueError, match="residual_tol"):
            spg_solve(problem, np.zeros(12), SolverConfig())
        with pytest.raises(ValueError, match="residual_tol"):
            pg_solve(problem, np.zeros(12), SolverConfig())

    def test_infeasible_start_raises(self):
        problem = _small_problem(seed=24, tau=1.0)
        with pytest.raises(ValueError, match="L1 ball"):
            spg_solve(problem, np.ones(12), self._cfg())
        with pytest.raises(ValueError, match="L1 ball"):
            pg_solve(problem, np.ones(12), self._cfg())

    def test_spg_from_optimum_takes_no_steps(self):
        problem = _small_problem(seed=20, tau=1e3)
        x_star = ridge_solution(problem.Z, problem.y, problem.lam)
        result = spg_solve(problem, x_star, self._cfg())
        assert len(result.trace) == 1 and result.trace[0].alpha == 0.0

    def test_spg_handles_logistic_loss(self):
        problem = _small_problem(seed=26, d=8, loss="logistic", tau=1.5)
        result = spg_solve(problem, np.zeros(8),
                           SolverConfig(residual_tol=1e-6, max_iter=2000))
        assert result.termination == "fp_residual"
        objs = result.objectives()
        assert objs[-1] < objs[0]

    @pytest.mark.parametrize("run,projections", [(pg_solve, 2), (spg_solve, 3)])
    def test_work_per_iteration_and_recorded_gap(self, monkeypatch, run,
                                                  projections):
        calls = {"loss_grad": [], "project_l1": [], "loss_eval": []}
        for name, log in calls.items():
            fn = getattr(elasticnet, name)
            monkeypatch.setattr(
                elasticnet, name,
                lambda *a, _fn=fn, _log=log: _log.append(a) or _fn(*a))
        problem = _small_problem(seed=28, tau=0.8)
        result = run(problem, np.zeros(12), self._cfg(tol=1e-6))
        monkeypatch.undo()
        n = len(result.trace)
        assert result.termination == "fp_residual" and n > 10
        # one gradient per iterate; projections: the oracle, the residual
        # (shared with the direction by pg) and the spectral direction,
        # which the last iterate never takes
        assert len(calls["loss_grad"]) == n
        assert len(calls["project_l1"]) == projections * n - (projections - 2)
        # the objective at x0 plus the Armijo trials (every later iterate
        # is an accepted trial); pg warm-starts each search at the last
        # step, spg starts every search at 1
        alphas = [rec.alpha for rec in result.trace[:-1]]
        trials = armijo_evaluations(alphas, warm=run is pg_solve)
        assert len(calls["loss_eval"]) == 1 + trials
        # the recorded gap is the splitting certificate at each iterate
        split = en_split(problem)
        for rec, (_, x, _) in zip(result.trace, calls["loss_grad"]):
            grad_f = loss_grad(problem, x)
            gap = surrogate_gap(x, en_oracle(problem, x, grad_f), grad_f, split)
            assert rec.surrogate_gap == max(gap, 0.0)

    @pytest.mark.parametrize("make_split,projections",
                             [(en_split, 2), (en_cg_split, 1)])
    def test_splits_take_one_gradient_per_iterate(self, monkeypatch,
                                                   make_split, projections):
        calls = {"loss_grad": [], "project_l1": []}
        for name, log in calls.items():
            fn = getattr(elasticnet, name)
            monkeypatch.setattr(
                elasticnet, name,
                lambda *a, _fn=fn, _log=log: _log.append(a) or _fn(*a))
        problem = _small_problem(seed=28, tau=0.8)
        cfg = SolverConfig(step_rule="exact", gap_tol=0.0, residual_tol=1e-6,
                           max_iter=300)
        result = solve(make_split(problem), np.zeros(12), cfg)
        monkeypatch.undo()
        n = len(result.trace)
        assert n > 10
        # the loop's one gradient feeds the residual; projections: the
        # residual, plus the oracle for the splitting (cg's is a vertex)
        assert len(calls["loss_grad"]) == n
        assert len(calls["project_l1"]) == projections * n
        for rec, (_, x, _) in zip(result.trace, calls["loss_grad"]):
            assert rec.extra_residual == fixed_point_residual(
                problem, x, objective_grad(problem, x))

    @staticmethod
    def _armijo_run(problem, solver, tol):
        cfg = SolverConfig(step_rule="armijo", gap_tol=0.0, residual_tol=tol,
                           max_iter=3000)
        x0 = np.zeros(problem.Z.shape[1])
        if solver in ("pg", "spg"):
            return lambda: (pg_solve if solver == "pg" else spg_solve)(problem, x0, cfg)
        split = en_split if solver == "cgs" else en_cg_split
        return lambda: solve(split(problem), x0, cfg)

    @pytest.mark.parametrize("seed,tau,loss,tol,solver", [
        # pg reaches the rounding floor of F here; cgs is the next test
        *[(22, 0.8, "squared", 1e-7, s) for s in ("pg", "spg", "cg")],
        *[(28, 0.8, "squared", 1e-6, s) for s in ("pg", "spg", "cgs", "cg")],
        *[(16, 1.5, "logistic", 1e-6, s) for s in ("pg", "spg", "cgs", "cg")],
    ])
    def test_armijo_warm_start_keeps_the_cold_trace(self, monkeypatch, seed,
                                                     tau, loss, tol, solver):
        problem = _small_problem(seed=seed, tau=tau, loss=loss)
        result = assert_cold_armijo_gives_the_same_run(
            monkeypatch, self._armijo_run(problem, solver, tol))
        if solver != "spg":  # spg starts every search at 1
            assert min(rec.alpha for rec in result.trace[:-1]) < 1.0

    def test_armijo_warm_start_parts_from_the_cold_trace_only_at_the_rounding_floor(
            self, monkeypatch):
        # Armijo cgs reaches iterates where F is flat to its last bits.
        # There rounding decides the Armijo test, so a search from a tiny
        # warm start can stop short of the step of the scan from 1 (at
        # iterate 460 with numpy 2.4 and OpenBLAS: 2^-32 against 2^-3)
        # and the runs part; up to there they agree bitwise, and they
        # stop at the same objective to rounding
        problem = _small_problem(seed=22, tau=0.8)
        run = self._armijo_run(problem, "cgs", 1e-7)
        warm, cold = run(), run_with_cold_armijo(monkeypatch, run)
        rows = [[(r.objective, r.surrogate_gap, r.alpha, r.extra_residual)
                 for r in result.trace] for result in (warm, cold)]
        k = next((i for i, (a, b) in enumerate(zip(*rows)) if a != b), None)
        if k is not None:
            assert rows[0][k][:2] == rows[1][k][:2] and rows[0][k][3] == rows[1][k][3]
            assert warm.trace[k].alpha < cold.trace[k].alpha
            f = warm.trace[k].objective
            for result in (warm, cold):
                assert abs(result.trace[k + 1].objective - f) <= 4 * np.spacing(f)
        assert warm.termination == cold.termination == "fp_residual"
        f_warm, f_cold = (objective(problem, r.x_final) for r in (warm, cold))
        assert abs(f_warm - f_cold) <= 1e-14 * f_cold

    def test_armijo_work_on_the_cli_toy_problem(self, monkeypatch):
        # the CLI's default elastic net: squared loss, lambda 1, tau 2;
        # starting each search at 1 costs pg 10.78 and Armijo cg 14.95
        # evaluations per iterate here. Warm starts that rescanned from 1
        # after a rejected start cost 3.56 and 7.67; trying the notch
        # below the rejected start first costs 2.19 and 3.04
        dataset = make_toy_classification(200, 100, 10, seed=0)
        problem = problem_from_dataset(dataset, "squared", 1.0, 2.0)
        cfg = SolverConfig(step_rule="armijo", gap_tol=0.0, residual_tol=1e-5,
                           max_iter=10000)
        for run, bound in [(lambda: pg_solve(problem, np.zeros(100), cfg), 2.5),
                           (lambda: solve(en_cg_split(problem), np.zeros(100), cfg), 3.5)]:
            evals = []
            with monkeypatch.context() as patch:
                patch.setattr(elasticnet, "loss_eval",
                              lambda *a, _fn=loss_eval: evals.append(1) or _fn(*a))
                result = run()
            assert len(evals) <= bound * len(result.trace)

    def test_traces_record_residuals_and_clamped_gaps(self):
        problem = _small_problem(seed=28, tau=0.8)
        result = pg_solve(problem, np.zeros(12), self._cfg(tol=1e-6))
        for rec in result.trace:
            assert rec.extra_residual is not None
            assert rec.surrogate_gap >= 0.0
        assert result.trace[-1].extra_residual <= 1e-6


def plain_split(problem):
    """``en_split`` from plain calls: every value is computed afresh.

    Its exact step is ``en_split``'s own formula on a fresh split and a
    writeable copy of the point, so nothing is shared between calls.
    """
    lam, tau = problem.lam, problem.tau
    return SplitObjective(
        f_eval=lambda x: loss_eval(problem, x),
        f_grad=lambda x: loss_grad(problem, x),
        g_eval=lambda x: lam * float(x @ x),
        g_grad=lambda x: 2.0 * lam * x,
        partial_oracle=lambda x, gf: project_l1(-gf / (2.0 * lam), tau),
        exact_step=lambda x, d: en_split(problem).exact_step(x.copy(), d),
        residual=lambda x, grad_F: float(
            np.abs(project_l1(x - grad_F, tau) - x).max()),
    )


def run_with_recomputed_armijo_points(monkeypatch, run):
    """``run()`` with every Armijo step's point and objective recomputed.

    The solver then evaluates ``F`` at each new iterate itself, as a
    loop that does not carry the accepted trial would.
    """
    step_armijo = gcgs.solver.step_armijo

    def recomputed(obj, x, dx, *args, **kwargs):
        alpha = step_armijo(obj, x, dx, *args, **kwargs)[0]
        point = x + alpha * dx
        return alpha, point, obj.value(point)

    with monkeypatch.context() as patch:
        patch.setattr(gcgs.solver, "step_armijo", recomputed)
        return run()


class TestOnePointOnce:
    """Each point of a solve is evaluated once, and nothing goes stale."""

    @staticmethod
    def _run(problem, solver, rule, split_of):
        x0 = np.zeros(problem.Z.shape[1])
        cfg = SolverConfig(step_rule=rule, gap_tol=0.0, residual_tol=1e-6,
                           max_iter=300)
        split = split_of(problem)
        if solver in ("pg", "spg"):
            policy = (ProjectedGradient if solver == "pg"
                      else SpectralProjectedGradient)
            return lambda: solve(split, x0, cfg, policy=policy(
                lambda v: project_l1(v, problem.tau)))
        if solver == "cg":
            split = cg_adapter(split, lambda g: l1_lmo(g, problem.tau))
        return lambda: solve(split, x0, cfg)

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("solver,rule", [
        ("cgs", "exact"), ("cgs", "armijo"), ("cg", "exact"),
        ("cg", "armijo"), ("pg", "armijo"), ("spg", "armijo")])
    def test_traces_match_plain_evaluation(self, monkeypatch, loss, solver, rule):
        problem = _small_problem(seed=28, tau=0.8, loss=loss)
        result = self._run(problem, solver, rule, en_split)()
        reference = run_with_recomputed_armijo_points(
            monkeypatch, self._run(problem, solver, rule, plain_split))
        assert trace_bits(result) == trace_bits(reference)
        if solver in ("pg", "spg"):
            shipped = (pg_solve if solver == "pg" else spg_solve)(
                problem, np.zeros(12), SolverConfig(residual_tol=1e-6, max_iter=300))
            assert trace_bits(shipped) == trace_bits(result)

    @pytest.mark.parametrize("solver,rule", [
        ("cgs", "exact"), ("cg", "exact"), ("cgs", "armijo"), ("pg", "armijo")])
    def test_one_image_per_point(self, monkeypatch, solver, rule):
        images = []
        iterate_cache = elasticnet.iterate_cache
        monkeypatch.setattr(elasticnet, "iterate_cache", lambda fn: iterate_cache(
            lambda x: images.append(x) or fn(x)))
        problem = _small_problem(seed=16, d=6, loss="logistic", tau=1.5)
        result = self._run(problem, solver, rule, en_split)()
        monkeypatch.undo()
        n = len(result.trace)
        assert n > 10
        if rule == "exact":
            # f_grad, f_eval and the exact step share the iterate's Z @ x
            assert len(images) == n
        else:
            # x0, then each Armijo trial once: every later iterate is an
            # accepted trial, whose Z @ x the loop's gradient reuses
            alphas = [rec.alpha for rec in result.trace[:-1]]
            assert len(images) == 1 + armijo_evaluations(alphas)

    def test_one_g_per_point_of_an_exact_run(self):
        # cgs with the exact step: g at the iterate feeds both the gap and
        # the objective, g at the oracle output feeds the gap
        problem = _small_problem(seed=16, d=6, loss="logistic", tau=1.5)
        split = en_split(problem)
        g_eval, oracle = split.g_eval, split.partial_oracle
        seen, points = [], []
        split.g_eval = lambda x: seen.append(x) or g_eval(x)
        split.partial_oracle = lambda x, gf: points.extend((x, oracle(x, gf))) or points[-1]
        cfg = SolverConfig(step_rule="exact", gap_tol=0.0, residual_tol=1e-6,
                           max_iter=300)
        n = len(solve(split, np.zeros(6), cfg).trace)
        assert n > 10 and len(seen) == len(points) == 2 * n
        for k in range(n):
            pair = {id(seen[2 * k]), id(seen[2 * k + 1])}
            assert pair == {id(points[2 * k]), id(points[2 * k + 1])}

    @pytest.mark.parametrize("loss", LOSSES)
    def test_arrays_changed_in_place_get_fresh_values(self, loss):
        problem = _small_problem(seed=30, d=6, loss=loss)
        split = en_split(problem)
        rng = make_rng(31)
        d = project_l1(rng.standard_normal(6), problem.tau)

        def fresh(x):
            return (loss_eval(problem, x), loss_grad(problem, x).tobytes(),
                    en_split(problem).exact_step(x.copy(), d))

        def seen(x):
            return (split.f_eval(x), split.f_grad(x).tobytes(),
                    split.exact_step(x, d))

        x = project_l1(rng.standard_normal(6), problem.tau)
        assert seen(x) == fresh(x)
        x *= 0.5  # a writeable array is never trusted
        assert seen(x) == fresh(x)
        # a frozen point is cached until someone makes it writeable again
        x.flags.writeable = False
        assert seen(x) == fresh(x)
        x.flags.writeable = True
        x[0] += 0.25
        assert seen(x) == fresh(x)
        # a read-only view does not own its data: its base can change
        base = x.copy()
        view = base[:]
        view.flags.writeable = False
        assert seen(view) == fresh(view)
        base[1] -= 0.25
        assert seen(view) == fresh(view)

    @pytest.mark.parametrize("solver,rule", [
        ("cgs", "exact"), ("cg", "armijo"), ("pg", "armijo"), ("spg", "armijo")])
    def test_x_final_is_writeable_and_never_stale(self, solver, rule):
        problem = _small_problem(seed=28, tau=0.8, loss="logistic")
        split = en_split(problem)
        x0 = np.zeros(12)
        cfg = SolverConfig(step_rule=rule, gap_tol=0.0, residual_tol=1e-6,
                           max_iter=50)
        if solver in ("pg", "spg"):
            result = (pg_solve if solver == "pg" else spg_solve)(problem, x0, cfg)
        else:
            result = solve(split if solver == "cgs" else en_cg_split(problem), x0, cfg)
        x = result.x_final
        assert x.flags.writeable and x0.flags.writeable
        value = split.f_eval(x)
        assert value == loss_eval(problem, x)
        x *= 0.5
        assert split.f_eval(x) == loss_eval(problem, x) != value


class TestToyData:
    def test_shapes_and_split(self):
        ds = make_toy_classification(25, 7, 3, seed=0)
        assert ds.Z.shape == (25, 7)
        assert ds.y.shape == (25,)
        assert int(np.sum(ds.split == "train")) == 20
        assert int(np.sum(ds.split == "test")) == 5
        assert np.all(np.isin(ds.y, (-1.0, 1.0)))

    def test_deterministic_per_seed(self):
        a = make_toy_classification(20, 5, 2, seed=3)
        b = make_toy_classification(20, 5, 2, seed=3)
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.y, b.y)
        c = make_toy_classification(20, 5, 2, seed=4)
        assert not np.array_equal(a.Z, c.Z)

    def test_informative_columns_correlate_with_labels(self):
        ds = make_toy_classification(400, 10, 5, seed=5)
        corr = np.abs(np.mean(ds.y[:, None] * ds.Z, axis=0))
        assert np.all(corr[:5] > 0.5)   # informative: |mean| near 1
        assert np.all(corr[5:] < 0.5)   # noise: mean near 0

    def test_validation(self):
        with pytest.raises(ValueError, match="T <= d"):
            make_toy_classification(20, 3, 4)
        with pytest.raises(ValueError, match="N >= 10"):
            make_toy_classification(5, 3, 2)

    def test_design_normalizes_on_train_stats(self):
        ds = make_toy_classification(50, 6, 2, seed=7)
        Zn, y = ds.design("train")
        assert y.size == 40
        np.testing.assert_allclose(Zn.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Zn.std(axis=0), 1.0, atol=1e-8)
        Zt, _ = ds.design("test")
        manual = (ds.Z[ds.split == "test"] - ds.feature_mean) / ds.feature_std
        np.testing.assert_array_equal(Zt, manual)

    def test_constant_feature_stays_finite(self):
        Z = np.column_stack([np.ones(10), np.arange(10.0)])
        y = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        split = np.array(["train"] * 8 + ["test"] * 2)
        ds = Dataset(Z=Z, y=y, split=split)
        Zn, _ = ds.design("train")
        assert np.all(np.isfinite(Zn))

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="row counts"):
            Dataset(Z=np.zeros((3, 2)), y=np.zeros(2),
                    split=np.array(["train"] * 3))
        with pytest.raises(ValueError, match="split"):
            Dataset(Z=np.zeros((2, 2)), y=np.zeros(2),
                    split=np.array(["train", "holdout"]))

    def test_split_without_train_rows_raises(self):
        # training statistics need at least one training row
        with pytest.raises(ValueError, match="no 'train' row"):
            Dataset(Z=np.ones((3, 2)), y=[1.0, -1.0, 1.0], split=["test"] * 3)

    def test_problem_from_dataset_uses_train_rows(self):
        ds = make_toy_classification(50, 6, 2, seed=9)
        problem = problem_from_dataset(ds, "logistic", lam=0.5, tau=2.0)
        assert problem.Z.shape == (40, 6)
        assert problem.lam == 0.5 and problem.tau == 2.0


class TestCsvDataset:
    def test_roundtrip_is_exact(self, tmp_path):
        ds = make_toy_classification(12, 5, 2, seed=3)
        path = tmp_path / "toy.csv"
        save_csv_dataset(path, ds)
        back = load_csv_dataset(path)
        np.testing.assert_array_equal(back.Z, ds.Z)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.split, ds.split)

    def test_label_column_by_name(self, tmp_path):
        ds = make_toy_classification(12, 3, 1, seed=4)
        path = tmp_path / "named.csv"
        save_csv_dataset(path, ds, label_column="target")
        back = load_csv_dataset(path, label_column="target")
        np.testing.assert_array_equal(back.y, ds.y)
        with pytest.raises(ValueError, match="no column named 'label'"):
            load_csv_dataset(path)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,1.0\n3.0,oops,-1.0\n")
        with pytest.raises(ValueError, match="row 3, column 2"):
            load_csv_dataset(path)

    def test_short_row_reports_location(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("f0,f1,label\n1.0,1.0\n")
        with pytest.raises(ValueError, match="row 2 has 2 fields"):
            load_csv_dataset(path)

    def test_non_binary_labels_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("f0,label\n1.0,0.5\n2.0,1.0\n")
        with pytest.raises(ValueError, match="labels must be"):
            load_csv_dataset(path)

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv_dataset(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text("f0,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv_dataset(header_only)

    def test_single_row_cannot_split(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("f0,label\n1.0,1.0\n")
        with pytest.raises(ValueError, match="too few rows"):
            load_csv_dataset(path)

    def test_four_rows_split_three_one(self, tmp_path):
        path = tmp_path / "four.csv"
        path.write_text("f0,label\n1.0,1.0\n2.0,-1.0\n3.0,1.0\n4.0,-1.0\n")
        ds = load_csv_dataset(path)
        assert list(ds.split) == ["train", "train", "train", "test"]
