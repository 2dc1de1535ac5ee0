"""Regularized optimal transport: splitting versus full linearization.

Builds a clustered point-cloud transport problem with entropic and
graph-Laplacian regularization, then runs the conditional gradient
splitting solver (Sinkhorn subproblems) and the classic conditional
gradient solver (vertex subproblems) from the same warm start. The
splitting solver makes much larger progress per iteration because each
of its subproblems already accounts for the entropy term.

Run with:  python3 demos/ot_convergence.py
"""

import time

import numpy as np

from gcgs.solver import SolverConfig, solve
from gcgs import transport as tr


def build_problem(seed=0):
    Xs, Xt, mu_s, mu_t = tr.make_cluster_data(40, 40, n_clusters=3,
                                              noise=0.05, seed=seed)
    cost = tr.squared_distances(Xs, Xt)
    return tr.TransportProblem(
        cost, mu_s, mu_t, lambda_ent=1.7e-2, lambda_lap=1e3,
        lap_s=tr.knn_laplacian(Xs, 10), lap_t=tr.knn_laplacian(Xt, 10),
        Xs=Xs, Xt=Xt)


def report(name, result, problem, elapsed):
    gamma = result.x_final
    print(f"\n{name}")
    print(f"  {'iter':>4}  {'objective':>12}  {'surrogate gap':>13}")
    for rec in result.trace:
        if rec.k % 10 == 0 or rec.k == result.trace[-1].k:
            print(f"  {rec.k:>4}  {rec.objective:>12.6f}  "
                  f"{rec.surrogate_gap:>13.3e}")
    print(f"  terminated: {result.termination} after {elapsed:.1f}s")
    print(f"  marginal violation of the final plan: "
          f"{tr.marginal_violation(gamma, problem.mu_s, problem.mu_t):.2e}")


def main():
    problem = build_problem(seed=0)
    print("40x40 clustered transport problem, "
          f"lambda_ent={problem.lambda_ent}, lambda_lap={problem.lambda_lap}")

    # warm start both solvers from the purely entropic plan
    x0 = tr.sinkhorn(problem.cost, problem.mu_s, problem.mu_t,
                     problem.lambda_ent, tol=1e-5, max_iter=50000)
    print(f"warm start: entropic plan with objective "
          f"{tr.ot_objective(x0, problem):.6f}")

    cfg = SolverConfig(step_rule="armijo", gap_tol=0.0, max_iter=50)

    t0 = time.perf_counter()
    r_cgs = solve(tr.ot_split(problem, sinkhorn_tol=1e-5,
                              sinkhorn_max_iter=50000, warm_start=True),
                  x0, cfg)
    report("conditional gradient splitting (Sinkhorn oracle)",
           r_cgs, problem, time.perf_counter() - t0)

    t0 = time.perf_counter()
    r_cg = solve(tr.ot_cg_split(problem), x0, cfg)
    report("classic conditional gradient (vertex oracle)",
           r_cg, problem, time.perf_counter() - t0)

    f_cgs = r_cgs.trace[-1].objective
    f_cg = r_cg.trace[-1].objective
    print(f"\nafter {cfg.max_iter} iterations: splitting {f_cgs:.6f} "
          f"vs classic {f_cg:.6f} "
          f"(advantage {f_cg - f_cgs:+.6f})")


if __name__ == "__main__":
    main()
