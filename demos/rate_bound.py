"""The 2 C_F / (k + 2) convergence rate of the fixed-step schedule.

Runs the splitting solver with the open-loop step 2 / (k + 2) on a
diagonal quadratic over an L1 ball, where the curvature constant has
the closed form C_F = 8 tau^2 max(a). The objective stays below the
theoretical envelope at every iteration, and a sampled estimate of the
curvature constant approaches the closed form from below.

Run with:  python3 demos/rate_bound.py
"""

import numpy as np

from gcgs.solver import SolverConfig, SplitObjective, estimate_curvature, solve
from gcgs.elasticnet import l1_lmo, project_l1


def quadratic_over_l1_ball(coeffs, tau):
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return SplitObjective(
        f_eval=lambda x: float(coeffs @ (x * x)),
        f_grad=lambda x: 2.0 * coeffs * x,
        g_eval=lambda x: 0.0,
        g_grad=None,
        partial_oracle=lambda x, gf: l1_lmo(gf, tau))


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

    # sampled curvature estimate over random feasible chords
    def sampler(r):
        def point():
            return project_l1(tau * r.standard_normal(10), tau)
        return point(), point()

    est = estimate_curvature(obj, sampler, np.random.default_rng(0),
                             n_samples=2000)
    print(f"sampled curvature estimate: {est:.4f} <= C_F = {c_f:.4f} "
          f"({100.0 * est / c_f:.1f}% of the closed form)")


if __name__ == "__main__":
    main()
