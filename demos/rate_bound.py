"""The 2 C_F / (k + 2) rate of the fixed step against the linear rate.

Runs the splitting solver with the open-loop step 2 / (k + 2) on a
diagonal quadratic over an L1 ball, where the curvature constant has
the closed form C_F = 8 tau^2 max(a). The objective stays below the
theoretical envelope at every iteration.

Then, on the elastic-net data of ``gcgs enet`` (squared loss, lam 1,
tau 2), it contrasts the three step rules by the per-iterate ratio
(F_{k+1} - F*) / (F_k - F*). With f L-smooth (L = |Z|_2^2) and
g = lam |x|^2 mu-strongly convex (mu = 2 lam), the exact step contracts
by q = L / (L + mu) or better (acceptance test 13 derives it); the
Armijo step's measured ratio is shown with no bound claimed.

Run with:  python3 demos/rate_bound.py
"""

import numpy as np

from gcgs import elasticnet as en
from gcgs.solver import SolverConfig, SplitObjective, solve
from gcgs.elasticnet import l1_lmo


def quadratic_over_l1_ball(coeffs, tau):
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return SplitObjective(
        f_eval=lambda x: float(coeffs @ (x * x)),
        f_grad=lambda x: 2.0 * coeffs * x,
        g_eval=lambda x: 0.0,
        g_grad=None,
        partial_oracle=lambda x, gf, warm: (l1_lmo(gf, tau), None))


def rate_contrast():
    dataset = en.make_toy_classification(200, 100, 10, seed=0)
    problem = en.problem_from_dataset(dataset, "squared", lam=1.0, tau=2.0)
    L = np.linalg.norm(problem.Z, 2) ** 2
    mu = 2.0 * problem.lam
    q = L / (L + mu)
    x0 = np.zeros(problem.Z.shape[1])
    ref = en.spg_solve(problem, x0, SolverConfig(gap_tol=0.0, residual_tol=1e-13,
                                                 max_iter=100000))
    f_star = en.objective(problem, ref.x_final)
    print(f"elastic-net data of `gcgs enet`: L = {L:.1f}, mu = {mu:.1f}, "
          f"F* = {f_star:.10f} (SPG)")
    print("ratios (F_{k+1} - F*) / (F_k - F*) while F_k - F* > 1e-8 max(1, |F*|):")
    for rule, claim in (("exact", f"<= q = L / (L + mu) = {q:.5f}"),
                        ("armijo", "no bound claimed"),
                        ("fixed", "not linear; only 2 C_F/(k+2) is guaranteed")):
        run = solve(en.en_split(problem), x0,
                    SolverConfig(step_rule=rule, gap_tol=0.0, max_iter=5000))
        h = run.objectives() - f_star
        # up to the first iterate at the floor
        h = h[:np.flatnonzero(h > 1e-8 * max(1.0, abs(f_star)))[-1] + 2]
        ratios = h[1:] / h[:-1]
        print(f"  {rule:>6}: worst {ratios.max():.5f}, median "
              f"{np.median(ratios):.5f} over {ratios.size} iterates ({claim})")


def main():
    rng = np.random.default_rng(4)
    coeffs = 0.5 + 1.5 * rng.random(10)
    tau = 1.5
    c_f = 8.0 * tau * tau * float(coeffs.max())
    print(f"f(x) = sum a_i x_i^2 over ||x||_1 <= {tau}, "
          f"a in [{coeffs.min():.3f}, {coeffs.max():.3f}]")
    print(f"closed-form curvature constant C_F = 8 tau^2 max(a) "
          f"= {c_f:.4f}\n")

    obj = quadratic_over_l1_ball(coeffs, tau)
    x0 = np.zeros(10)
    x0[0] = tau  # start at a vertex, the worst case for the bound
    result = solve(obj, x0, SolverConfig(step_rule="fixed", gap_tol=0.0,
                                         max_iter=2000))

    print(f"{'iter':>6}  {'F(x_k)':>12}  {'2 C_F/(k+2)':>12}  {'ratio':>6}")
    worst = -np.inf
    for rec in result.trace:
        bound = 2.0 * c_f / (rec.k + 2.0)
        worst = max(worst, rec.objective - bound)
        if rec.k in (0, 1, 2, 4, 8, 16, 64, 256, 1024, 2000):
            print(f"{rec.k:>6}  {rec.objective:>12.6f}  {bound:>12.6f}  "
                  f"{rec.objective / bound:>6.3f}")
    print(f"\nworst F(x_k) - bound over the run: {worst:.3e} "
          "(negative: the envelope is never crossed)")

    print()
    rate_contrast()


if __name__ == "__main__":
    main()
