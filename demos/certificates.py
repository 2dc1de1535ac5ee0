"""Surrogate gaps as computable optimality certificates.

Two demonstrations on small problems:

1. The surrogate gap of the splitting iteration upper-bounds the true
   suboptimality F(x_k) - F*, so it can be used as a trustworthy
   stopping criterion without knowing F*.
2. At any shared point, the splitting gap (which keeps the regularizer
   exact inside the subproblem) is no larger than the classic
   conditional gradient gap (which linearizes everything), i.e. the
   splitting certificate is uniformly sharper.

Run with:  python3 demos/certificates.py
"""

from dataclasses import replace

import numpy as np

from gcgs.solver import SolverConfig, solve, surrogate_gap
from gcgs import elasticnet as en
from gcgs import transport as tr


def gap_bounds_suboptimality():
    print("1. gap >= F(x_k) - F*  (elastic net, squared loss)")
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((60, 25))
    y = rng.standard_normal(60)
    problem = en.ElasticNetProblem(Z=Z, y=y, lam=0.5, tau=1.5)

    # high-accuracy reference optimum from the projected spectral method
    ref = en.spg_solve(problem, np.zeros(25),
                       SolverConfig(residual_tol=1e-12, max_iter=100000))
    f_star = en.objective(problem, ref.x_final)
    print(f"   reference objective F* = {f_star:.10f}")

    result = solve(en.en_split(problem), np.zeros(25),
                   SolverConfig(step_rule="exact", gap_tol=1e-10,
                                max_iter=5000))
    print(f"   {'iter':>5}  {'F(x_k) - F*':>12}  {'surrogate gap':>13}")
    marks = {0, 1, 2, 5, 10, 20, 50, result.trace[-1].k}
    for rec in result.trace:
        if rec.k in marks:
            print(f"   {rec.k:>5}  {rec.objective - f_star:>12.3e}  "
                  f"{rec.surrogate_gap:>13.3e}")
    ok = all(rec.objective - f_star <= rec.surrogate_gap + 1e-10
             for rec in result.trace)
    print(f"   bound holds at every iterate: {ok}\n")


def _spy_oracle(split, pairs):
    def oracle(x, grad_f, warm):
        s, warm = split.partial_oracle(x, grad_f, warm)
        pairs.append((x.copy(), s.copy()))
        return s, warm
    return replace(split, partial_oracle=oracle)


def splitting_gap_is_sharper():
    print("2. splitting gap <= classic gap at shared points "
          "(entropic transport)")
    rng = np.random.default_rng(3)
    cost = rng.random((15, 15))
    w = 0.2 + rng.random(15)
    a = w / w.sum()
    w = 0.2 + rng.random(15)
    b = w / w.sum()
    problem = tr.TransportProblem(cost, a, b, lambda_ent=0.05)

    # record the iterates the classic solver actually visits
    cg = tr.ot_cg_split(problem)
    pairs = []
    solve(_spy_oracle(cg, pairs), np.outer(a, b),
          SolverConfig(step_rule="armijo", gap_tol=0.0, max_iter=15))

    cgs = tr.ot_split(problem, sinkhorn_tol=1e-12)
    print(f"   {'iter':>5}  {'classic gap':>12}  {'splitting gap':>13}  "
          f"{'ratio':>6}")
    for k, (x, s_cg) in enumerate(pairs):
        gap_cg = surrogate_gap(x, s_cg, cg.f_grad(x), cg)
        grad_f = cgs.f_grad(x)
        gap_cgs = surrogate_gap(x, cgs.partial_oracle(x, grad_f, None)[0],
                                grad_f, cgs)
        print(f"   {k:>5}  {gap_cg:>12.4e}  {gap_cgs:>13.4e}  "
              f"{gap_cgs / gap_cg if gap_cg > 0 else float('nan'):>6.3f}")


def main():
    gap_bounds_suboptimality()
    splitting_gap_is_sharper()


if __name__ == "__main__":
    main()
