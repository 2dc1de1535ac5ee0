"""Acceptance suite: one test per advertised guarantee of the library.

Each test checks an end-to-end property at a pinned tolerance: descent
and feasibility of the splitting iteration, certificate soundness and
dominance, the 2 C_F / (k + 2) rate, oracle/projection exactness
against independent references, gradient correctness, and the
qualitative solver-comparison claims on the two application stacks.
Each test prints a single summary line when it passes.

Reference values come from the independent oracles in test_ot /
test_elasticnet (entropic bisection, vertex enumeration, dual
bisection) plus closed forms and finite differences defined here.
"""

import itertools
from dataclasses import replace

import numpy as np

from gcgs.numerics import make_rng
from gcgs.solver import (
    SolverConfig,
    SplitObjective,
    cg_adapter,
    check_fixed_point,
    solve,
    surrogate_gap,
)
from gcgs import elasticnet as en
from gcgs import transport as tr

from test_ot import entropic_plan_2x2, lmo_by_enumeration, spy_kernel_builds
from test_elasticnet import project_l1_bisection
from test_numerics import finite_diff_grad


def _hist(rng, n):
    w = 0.2 + rng.random(n)
    return w / w.sum()


def _spy(split):
    """Wrap a split objective so every oracle call records (x, s)."""
    pairs = []
    base = split.partial_oracle

    def oracle(x, grad_f, warm):
        s, warm = base(x, grad_f, warm)
        pairs.append((x.copy(), s.copy()))
        return s, warm

    return replace(split, partial_oracle=oracle), pairs


def _full_scale_problem(seed):
    """100x100 cluster transport instance with the default parameters."""
    Xs, Xt, mu_s, mu_t = tr.make_cluster_data(100, 100, n_clusters=3,
                                              noise=0.05, seed=seed)
    cost = tr.squared_distances(Xs, Xt)
    return tr.TransportProblem(
        cost, mu_s, mu_t, lambda_ent=1.7e-2, lambda_lap=1e3,
        lap_s=tr.knn_laplacian(Xs, 10), lap_t=tr.knn_laplacian(Xt, 10),
        Xs=Xs, Xt=Xt)


def _descent_violations(split, result, pairs):
    """Worst slope excess and worst relative objective increase."""
    worst_slope = -np.inf
    for x, s in pairs:
        grad_F = split.grad(x)
        slope = float(np.vdot(grad_F, s - x))
        worst_slope = max(
            worst_slope,
            slope - 1e-12 * max(1.0, float(np.linalg.norm(grad_F))))
    objs = result.objectives()
    increases = np.diff(objs) - 1e-12 * np.maximum(1.0, np.abs(objs[:-1]))
    worst_inc = float(increases.max()) if increases.size else -np.inf
    return worst_slope, worst_inc


def test_01_descent_direction_and_monotone_objective():
    # transport at full scale, both line-search rules
    problem = _full_scale_problem(seed=42)
    x0 = tr.sinkhorn(problem.cost, problem.mu_s, problem.mu_t,
                     problem.lambda_ent, tol=1e-5, max_iter=50000)
    worst_slope, worst_inc = -np.inf, -np.inf
    for rule in ("exact", "armijo"):
        split = tr.ot_split(problem, sinkhorn_tol=1e-5,
                            sinkhorn_max_iter=50000, warm_start=True)
        spied, pairs = _spy(split)
        result = solve(spied, x0, SolverConfig(step_rule=rule,
                                               gap_tol=0.0, max_iter=15))
        ws, wi = _descent_violations(split, result, pairs)
        worst_slope, worst_inc = max(worst_slope, ws), max(worst_inc, wi)

    # 20 random elastic-net instances over all losses
    master = make_rng(100)
    for inst in range(20):
        n = int(master.integers(20, 61))
        d = int(master.integers(5, 31))
        loss = en.LOSSES[inst % 3]
        lam = float(0.3 + 2.7 * master.random())
        tau = float(0.5 + 2.5 * master.random())
        Z = master.standard_normal((n, d))
        y = (master.standard_normal(n) if loss == "squared"
             else master.integers(0, 2, size=n) * 2.0 - 1.0)
        problem = en.ElasticNetProblem(Z=Z, y=y, loss=loss, lam=lam, tau=tau)
        for rule in ("exact", "armijo"):
            spied, pairs = _spy(en.en_split(problem))
            result = solve(spied, np.zeros(d),
                           SolverConfig(step_rule=rule, gap_tol=1e-11,
                                        max_iter=25))
            ws, wi = _descent_violations(en.en_split(problem), result, pairs)
            worst_slope, worst_inc = max(worst_slope, ws), max(worst_inc, wi)

    assert worst_slope <= 0.0
    assert worst_inc <= 0.0
    print(f"ACCEPTANCE 1: PASS - descent slope excess {worst_slope:.2e}, "
          f"objective increase excess {worst_inc:.2e} "
          "(transport 100x100 + 20 elastic-net instances, exact and armijo)")


def test_02_surrogate_gap_bounds_suboptimality():
    rng = make_rng(2)
    Z = rng.standard_normal((50, 20))
    y = rng.standard_normal(50)
    problem = en.ElasticNetProblem(Z=Z, y=y, lam=0.1, tau=1.0)

    ref = en.spg_solve(problem, np.zeros(20),
                       SolverConfig(residual_tol=1e-12, max_iter=100000))
    assert ref.termination == "fp_residual"
    f_ref = en.objective(problem, ref.x_final)

    result = solve(en.en_split(problem), np.zeros(20),
                   SolverConfig(step_rule="exact", gap_tol=1e-12,
                                max_iter=2000))
    excess = [(rec.objective - f_ref) - rec.surrogate_gap
              for rec in result.trace]
    worst = max(excess)
    assert worst <= 1e-8
    assert f_ref <= min(r.objective for r in result.trace) + 1e-8
    print(f"ACCEPTANCE 2: PASS - F(x_k) - F_ref <= gap_k with worst slack "
          f"{worst:.2e} over {len(result.trace)} iterates "
          f"(reference residual {ref.trace[-1].extra_residual:.1e})")


def test_03_splitting_certificate_dominates_full_linearization():
    rng = make_rng(3)
    cost = rng.random((20, 20))
    a, b = _hist(rng, 20), _hist(rng, 20)
    problem = tr.TransportProblem(cost, a, b, lambda_ent=0.05)

    cg = tr.ot_cg_split(problem)
    spied, pairs = _spy(cg)
    solve(spied, np.outer(a, b),
          SolverConfig(step_rule="armijo", gap_tol=0.0, max_iter=25))

    cgs = tr.ot_split(problem, sinkhorn_tol=1e-12)
    margins = []
    for x, s_cg in pairs:
        gap_cg = surrogate_gap(x, s_cg, cg.f_grad(x), cg)
        grad_f = cgs.f_grad(x)
        s_star, _ = cgs.partial_oracle(x, grad_f, None)
        gap_cgs = surrogate_gap(x, s_star, grad_f, cgs)
        margins.append(gap_cg - gap_cgs)
    assert all(m >= -1e-12 for m in margins)
    assert all(m > 0.0 for m in margins[:-1])  # strict off the final point
    print(f"ACCEPTANCE 3: PASS - partial-linearization gap dominated by the "
          f"full-linearization gap at {len(margins)} shared points, "
          f"margins in [{min(margins):.2e}, {max(margins):.2e}]")


def _quadratic_over_l1_ball(coeffs, tau):
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return SplitObjective(
        f_eval=lambda x: float(coeffs @ (x * x)),
        f_grad=lambda x: 2.0 * coeffs * x,
        g_eval=lambda x: 0.0,
        g_grad=np.zeros_like,
        partial_oracle=lambda x, gf, warm: (en.l1_lmo(gf, tau), None))


def test_04_fixed_step_rate_bound():
    # 1-D: f = x^2 on [-1, 1]; the curvature constant is 8 exactly
    # (worst chord d = 2 gives 2 * d^2 f'' / 2 = 8)
    r1 = solve(_quadratic_over_l1_ball([1.0], 1.0), np.array([1.0]),
               SolverConfig(step_rule="fixed", gap_tol=0.0, max_iter=1000))
    c1 = 8.0
    excess1 = max(o - 2.0 * c1 / (k + 2.0)
                  for k, o in enumerate(r1.objectives()))

    # 10-D diagonal quadratic over a tau-ball: C_F = 8 tau^2 max(a)
    rng = make_rng(4)
    coeffs = 0.5 + 1.5 * rng.random(10)
    tau = 1.5
    c10 = 8.0 * tau * tau * float(coeffs.max())
    x0 = np.zeros(10)
    x0[0] = tau
    r10 = solve(_quadratic_over_l1_ball(coeffs, tau), x0,
                SolverConfig(step_rule="fixed", gap_tol=0.0, max_iter=1000))
    excess10 = max(o - 2.0 * c10 / (k + 2.0)
                   for k, o in enumerate(r10.objectives()))

    assert excess1 <= 1e-12
    assert excess10 <= 1e-12
    print(f"ACCEPTANCE 4: PASS - F(x_k) <= 2 C_F/(k+2) for k <= 1000; "
          f"worst excess {excess1:.2e} (1-D), {excess10:.2e} (10-D)")


def test_05_small_gap_implies_fixed_point():
    checks = []

    # strictly convex elastic-net
    rng = make_rng(2)
    Z = rng.standard_normal((50, 20))
    y = rng.standard_normal(50)
    problem = en.ElasticNetProblem(Z=Z, y=y, lam=2.0, tau=2.0)
    result = solve(en.en_split(problem), np.zeros(20),
                   SolverConfig(step_rule="exact", gap_tol=1e-8,
                                max_iter=50000))
    assert result.termination == "gap_tol"
    gap, dist = check_fixed_point(en.en_split(problem), result.x_final)
    checks.append(("elastic-net", gap, dist))

    # entropic transport, no Laplacian term
    rng = make_rng(55)
    cost = rng.random((20, 20))
    a, b = _hist(rng, 20), _hist(rng, 20)
    prob_e = tr.TransportProblem(cost, a, b, lambda_ent=1.0)
    result = solve(tr.ot_split(prob_e, sinkhorn_tol=1e-11), np.outer(a, b),
                   SolverConfig(step_rule="exact", gap_tol=1e-9, max_iter=50))
    assert result.termination == "gap_tol"
    gap, dist = check_fixed_point(tr.ot_split(prob_e, sinkhorn_tol=1e-11),
                                  result.x_final)
    checks.append(("entropic transport", gap, dist))

    # entropic + Laplacian transport
    Xs, Xt, mu_s, mu_t = tr.make_cluster_data(12, 12, seed=0)
    prob_l = tr.TransportProblem(
        tr.squared_distances(Xs, Xt), mu_s, mu_t,
        lambda_ent=1.0, lambda_lap=1.0,
        lap_s=tr.knn_laplacian(Xs, 3), lap_t=tr.knn_laplacian(Xt, 3),
        Xs=Xs, Xt=Xt)
    result = solve(tr.ot_split(prob_l, sinkhorn_tol=1e-11, warm_start=True),
                   np.outer(mu_s, mu_t),
                   SolverConfig(step_rule="exact", gap_tol=1e-9,
                                max_iter=500))
    assert result.termination == "gap_tol"
    gap, dist = check_fixed_point(tr.ot_split(prob_l, sinkhorn_tol=1e-11),
                                  result.x_final)
    checks.append(("Laplacian transport", gap, dist))

    for name, gap, dist in checks:
        assert gap <= 1e-8, name
        assert dist <= 1e-4, name
    detail = ", ".join(f"{n}: gap {g:.1e} dist {d:.1e}"
                       for n, g, d in checks)
    print(f"ACCEPTANCE 5: PASS - {detail}")


def test_06_sinkhorn_marginal_accuracy(monkeypatch):
    rng = make_rng(6)
    lams = [0.3, 0.1, 1.7e-2]
    worst = 0.0
    # 40 instances at moderate regularization
    for i in range(40):
        r = int(rng.integers(2, 51))
        c = int(rng.integers(2, 81))
        cost = rng.random((r, c))
        a, b = _hist(rng, r), _hist(rng, c)
        gamma = tr.sinkhorn(cost, a, b, lams[i % 3], tol=1e-9,
                            max_iter=30000)
        worst = max(worst, tr.marginal_violation(gamma, a, b))
    # 10 instances whose plain kernel exp(-C/lambda - 1) underflows, so the
    # scalings outgrow the bound and are absorbed into the potentials
    kernels = spy_kernel_builds(monkeypatch)
    for _ in range(10):
        r = int(rng.integers(2, 51))
        c = int(rng.integers(2, 81))
        cost = rng.random((r, c))
        a, b = _hist(rng, r), _hist(rng, c)
        assert np.exp(-cost / 1.3e-3 - 1.0).min() == 0.0
        gamma = tr.sinkhorn(cost, a, b, 1.3e-3, tol=1e-9, max_iter=30000)
        worst = max(worst, tr.marginal_violation(gamma, a, b))
    absorptions = len(kernels) - 10  # one initial kernel per call
    assert absorptions > 0
    assert worst <= 1e-9

    # closed-form agreement on 2x2 instances via the bisection oracle
    worst2 = 0.0
    for seed in range(5):
        rng2 = make_rng(60 + seed)
        cost = rng2.random((2, 2))
        a, b = _hist(rng2, 2), _hist(rng2, 2)
        for lam in (1.0, 0.4, 0.15):
            gamma = tr.sinkhorn(cost, a, b, lam, tol=1e-12)
            oracle = entropic_plan_2x2(cost, a, b, lam)
            worst2 = max(worst2, float(np.abs(gamma - oracle).max()))
    assert worst2 <= 1e-6
    print(f"ACCEPTANCE 6: PASS - 50 instances up to 50x80 with violation "
          f"<= {worst:.2e} (incl. 10 underflowing kernels at lambda 1.3e-3, "
          f"{absorptions} absorptions); "
          f"2x2 bisection agreement {worst2:.2e}")


def test_07_transport_lmo_exactness():
    rng = make_rng(7)
    worst_value = 0.0
    for _ in range(100):
        cost = rng.random((3, 3))
        a, b = _hist(rng, 3), _hist(rng, 3)
        gamma, _ = tr.transport_lmo(cost, a, b)
        _, best = lmo_by_enumeration(cost, a, b)
        worst_value = max(worst_value,
                          abs(float(np.vdot(gamma, cost)) - best))
    assert worst_value <= 1e-10

    min_reduced = 0.0
    for _ in range(100):
        cost = rng.random((20, 20))
        a, b = _hist(rng, 20), _hist(rng, 20)
        gamma, (u, v) = tr.transport_lmo(cost, a, b)
        min_reduced = min(min_reduced,
                          float((cost - u[:, None] - v[None, :]).min()))
    assert min_reduced >= -1e-9
    print(f"ACCEPTANCE 7: PASS - 100 3x3 enumeration matches to "
          f"{worst_value:.2e}; 100 20x20 dual reduced costs >= "
          f"{min_reduced:.2e}")


def test_08_l1_projection_exactness():
    rng = make_rng(8)
    worst_diff, worst_excess = 0.0, -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        v = scale * rng.standard_normal(n)
        tau = float(10.0 ** rng.uniform(-1.0, 0.7))
        p = en.project_l1(v, tau)
        worst_diff = max(worst_diff,
                         float(np.abs(p - project_l1_bisection(v, tau)).max()))
        worst_excess = max(worst_excess, float(np.abs(p).sum()) - tau)
    assert worst_diff <= 1e-10
    assert worst_excess <= 1e-10
    print(f"ACCEPTANCE 8: PASS - 1000 projections match the dual bisection "
          f"to {worst_diff:.2e}; worst ball excess {worst_excess:.2e}")


def _rel_error(analytic, reference):
    return float(np.max(np.abs(analytic - reference))
                 / max(1.0, float(np.max(np.abs(reference)))))


def test_09_analytic_gradients_match_finite_differences():
    rng = make_rng(9)
    worst = {"entropy": 0.0, "laplacian": 0.0,
             "squared": 0.0, "logistic": 0.0, "squared_hinge": 0.0}

    for _ in range(20):
        gamma = 0.1 + rng.random((5, 6))
        fd = finite_diff_grad(lambda v: tr.negentropy(v.reshape(5, 6)),
                              gamma.ravel())
        worst["entropy"] = max(worst["entropy"], _rel_error(
            tr.negentropy_grad(gamma).ravel(), fd))

    Xs = rng.random((8, 2))
    Xt = rng.random((6, 2))
    problem = tr.TransportProblem(
        tr.squared_distances(Xs, Xt), tr.uniform_histogram(8),
        tr.uniform_histogram(6), lambda_ent=0.1, lambda_lap=1.0,
        lap_s=tr.knn_laplacian(Xs, 3), lap_t=tr.knn_laplacian(Xt, 3),
        Xs=Xs, Xt=Xt)
    for _ in range(20):
        gamma = rng.random((8, 6))
        fd = finite_diff_grad(
            lambda v: tr.laplacian_reg(v.reshape(8, 6), problem),
            gamma.ravel())
        worst["laplacian"] = max(worst["laplacian"], _rel_error(
            tr.laplacian_reg_grad(gamma, problem).ravel(), fd))

    for loss in en.LOSSES:
        Z = rng.standard_normal((30, 12))
        y = (rng.standard_normal(30) if loss == "squared"
             else rng.integers(0, 2, size=30) * 2.0 - 1.0)
        prob = en.ElasticNetProblem(Z=Z, y=y, loss=loss, lam=1.0, tau=1.0)
        for _ in range(20):
            x = 0.5 * rng.standard_normal(12)
            fd = finite_diff_grad(lambda v: en.loss_eval(prob, v), x)
            worst[loss] = max(worst[loss],
                              _rel_error(en.loss_grad(prob, x), fd))

    for name, err in worst.items():
        assert err <= 1e-5, (name, err)
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    print(f"ACCEPTANCE 9: PASS - max relative gradient errors: {detail}")


def test_10_splitting_beats_full_linearization_on_transport():
    results = []
    for seed in range(5):
        problem = _full_scale_problem(seed)
        x0 = tr.sinkhorn(problem.cost, problem.mu_s, problem.mu_t,
                         problem.lambda_ent, tol=1e-5, max_iter=50000)
        cfg = SolverConfig(step_rule="armijo", gap_tol=0.0, max_iter=200)
        r_cgs = solve(tr.ot_split(problem, sinkhorn_tol=1e-5,
                                  sinkhorn_max_iter=50000, warm_start=True),
                      x0, cfg)
        r_cg = solve(tr.ot_cg_split(problem), x0, cfg)
        f_cgs = r_cgs.trace[-1].objective
        f_cg = r_cg.trace[-1].objective
        results.append((seed, f_cgs, f_cg))
        assert f_cgs <= f_cg, (seed, f_cgs, f_cg)
    detail = "; ".join(f"seed {s}: {a:.4f} vs {b:.4f}"
                       for s, a, b in results)
    print(f"ACCEPTANCE 10: PASS - splitting final objective <= classic "
          f"conditional gradient after 200 iterations on all 5 seeds "
          f"({detail})")


def test_11_constrained_solvers_agree_on_toy_classification():
    dataset = en.make_toy_classification(200, 100, 10, seed=3)
    problem = en.problem_from_dataset(dataset, "squared", lam=1.0, tau=2.0)
    x0 = np.zeros(100)
    cfg = SolverConfig(step_rule="exact", gap_tol=0.0,
                       residual_tol=1e-5, max_iter=10000)

    runs = {
        "cgs": solve(en.en_split(problem), x0, cfg),
        "spg": en.spg_solve(problem, x0, cfg),
        "pg": en.pg_solve(problem, x0, cfg),
    }
    finals = {}
    for name, r in runs.items():
        assert r.termination == "fp_residual", name
        assert r.trace[-1].k <= 10000
        finals[name] = en.objective(problem, r.x_final)
    spread = max(finals.values()) - min(finals.values())
    rel = spread / max(1.0, max(finals.values()))
    assert rel <= 1e-6

    # the vertex-stepping baseline is expected to miss the tolerance
    r_cg = solve(en.en_cg_split(problem), x0, cfg)
    cg_res = en.fixed_point_residual(problem, r_cg.x_final,
                                     en.objective_grad(problem, r_cg.x_final))
    iters = {k: r.trace[-1].k for k, r in runs.items()}
    print(f"ACCEPTANCE 11: PASS - cgs/spg/pg reach residual 1e-5 in "
          f"{iters['cgs']}/{iters['spg']}/{iters['pg']} iterations, "
          f"objective spread {rel:.2e} relative; classic CG ends at "
          f"{r_cg.termination} with residual {cg_res:.1e}")


def test_12_zero_g_reduction_is_bitwise_identical():
    rng = make_rng(12)
    coeffs = 0.5 + 1.5 * rng.random(8)
    tau = 1.2
    base = _quadratic_over_l1_ball(coeffs, tau)
    adapted = cg_adapter(base, lambda gF: en.l1_lmo(gF, tau))

    for rule in ("fixed", "exact", "armijo"):
        sequences = []
        for split in (base, adapted):
            spied, pairs = _spy(split)
            x0 = np.zeros(8)
            x0[0] = tau
            result = solve(spied, x0, SolverConfig(step_rule=rule,
                                                   gap_tol=0.0, max_iter=20))
            sequences.append((pairs, result))
        (pairs_a, res_a), (pairs_b, res_b) = sequences
        assert len(pairs_a) == len(pairs_b)
        for (xa, sa), (xb, sb) in zip(pairs_a, pairs_b):
            assert np.array_equal(xa, xb)
            assert np.array_equal(sa, sb)
        assert [r.alpha for r in res_a.trace] == [r.alpha for r in res_b.trace]
        assert [r.objective for r in res_a.trace] == [
            r.objective for r in res_b.trace]
        assert [r.surrogate_gap for r in res_a.trace] == [
            r.surrogate_gap for r in res_b.trace]
        assert np.array_equal(res_a.x_final, res_b.x_final)
    print("ACCEPTANCE 12: PASS - with g = 0 the splitting solver and the "
          "adapted classic solver produce bitwise-identical iterate "
          "sequences under fixed, exact and armijo steps")


def _check_linear_rate(name, run, f_star, L, mu):
    """Asserts both bounds of test 13 on ``run``; returns a summary line.

    Every iterate is checked while ``h_k > 1e-8 max(1, |F*|)``, with
    ``1e-12 max(1, |F*|)`` of slack for the error in ``F*``.
    """
    q = L / (L + mu)
    scale = max(1.0, abs(f_star))
    h = run.objectives() - f_star
    gaps = run.gaps()
    checked = int(np.argmax(h <= 1e-8 * scale))
    assert h[checked] <= 1e-8 * scale, name
    for k in range(checked):
        assert h[k + 1] <= q * h[k] + 1e-12 * scale, (name, k)
        assert gaps[k] <= (L + mu) / mu * (h[k] + 1e-12 * scale), (name, k)
    ratios = h[1:checked + 1] / h[:checked]
    return (f"{name}: q = {q:.6f}, worst ratio {ratios.max():.5f} over {checked} "
            f"iterates, gap/h <= {np.max(gaps[:checked] / h[:checked]):.1f} "
            f"(bound {(L + mu) / mu:.1f})")


def test_13_linear_rate_under_strong_convexity():
    """The paper's linear rate when ``g`` is strongly convex.

    Let ``f`` be L-smooth and ``g`` mu-strongly convex in the 2-norm
    (Frobenius norm for plans) on the feasible set, ``s`` the partial
    oracle's point, ``d = s - x`` and ``gap`` the surrogate gap at
    ``x``. The descent lemma for ``f`` and the chord inequality for
    ``g`` give

        F(x + a d) <= F(x) - a gap + (a/2) |d|^2 (a (L + mu) - mu).

    At ``a = mu / (L + mu)`` the last term vanishes, and since
    ``gap >= F - F*`` the exact step, no worse than any fixed one, gives
    ``h_{k+1} <= q h_k`` with ``q = L / (L + mu)`` for ``h_k = F(x_k) -
    F*``. As ``F(x + a d) >= F*``, also ``gap_k <= ((L + mu) / mu) h_k``.

    Elastic net: the CLI's data with lam 1 and tau 2, so ``mu = 2 lam``,
    and ``L = |Z|_2^2`` for the squared loss or ``|Z|_2^2 / 4`` for the
    logistic loss. ``F*`` comes from SPG at residual 1e-13.

    Transport: ``make_cluster_data(20, 20, seed=0)``, kNN 3,
    ``lambda_ent`` 1 and ``lambda_lap`` 1e3. The negentropy's Hessian is
    ``diag(1 / gamma)`` and on the polytope ``gamma_ij <= min(a_i,
    b_j)``, so ``mu = lambda_ent / max_ij min(a_i, b_j)``. The Laplacian
    term's Hessian is ``D -> 2 (L_s D X_t X_t^T + X_s X_s^T D L_t)``, so
    ``L <= 2 lambda_lap (|L_s| |X_t|^2 + |X_s|^2 |L_t|)`` in 2-norms;
    the cost term is linear. The oracle is warm Sinkhorn at tol 1e-12
    and ``F*`` the last objective of a run at tol 1e-13 and gap_tol
    1e-15, both from the product plan.

    ``q`` comes from these constants, never from the run.
    """
    dataset = en.make_toy_classification(200, 100, 10, seed=0)
    x0 = np.zeros(100)
    lines = []
    for loss, curvature in (("squared", 1.0), ("logistic", 0.25)):
        problem = en.problem_from_dataset(dataset, loss, lam=1.0, tau=2.0)
        L = curvature * np.linalg.norm(problem.Z, 2) ** 2
        ref = en.spg_solve(problem, x0, SolverConfig(
            gap_tol=0.0, residual_tol=1e-13, max_iter=100000))
        run = solve(en.en_split(problem), x0,
                    SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=5000))
        lines.append(_check_linear_rate(
            loss, run, en.objective(problem, ref.x_final), L, 2.0 * problem.lam))

    Xs, Xt, a, b = tr.make_cluster_data(20, 20, seed=0)
    problem = tr.TransportProblem(
        tr.squared_distances(Xs, Xt), a, b, lambda_ent=1.0, lambda_lap=1e3,
        lap_s=tr.knn_laplacian(Xs, 3), lap_t=tr.knn_laplacian(Xt, 3), Xs=Xs, Xt=Xt)
    L = 2.0 * problem.lambda_lap * (
        np.linalg.norm(problem.lap_s, 2) * np.linalg.norm(Xt, 2) ** 2
        + np.linalg.norm(Xs, 2) ** 2 * np.linalg.norm(problem.lap_t, 2))
    mu = problem.lambda_ent / np.minimum.outer(a, b).max()
    product = np.outer(a, b)
    ref = solve(tr.ot_split(problem, sinkhorn_tol=1e-13, warm_start=True), product,
                SolverConfig(step_rule="exact", gap_tol=1e-15, max_iter=5000))
    assert ref.termination == "gap_tol"
    run = solve(tr.ot_split(problem, sinkhorn_tol=1e-12, warm_start=True), product,
                SolverConfig(step_rule="exact", gap_tol=0.0, max_iter=5000))
    lines.append(_check_linear_rate(
        "transport", run, ref.trace[-1].objective, L, mu))
    print("ACCEPTANCE 13: PASS - exact-step splitting contracts F - F* by "
          "q = L / (L + mu) or better each iterate; " + "; ".join(lines))
