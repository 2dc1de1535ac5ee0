"""Elastic-net classification: four solvers race to the same answer.

Generates a toy classification dataset, fits an L1-constrained
ridge-penalized squared-loss model with four solvers, and reports
iterations, wall time and the final objective for each. The splitting
solver, spectral projected gradient and projected gradient all reach
the same fixed point; the classic conditional gradient crawls because
it only moves toward vertices of the L1 ball.

Run with:  python3 demos/enet_solver_race.py
"""

import time

import numpy as np

from gcgs.solver import SolverConfig, solve
from gcgs import elasticnet as en


def accuracy(dataset, x, subset):
    Z, y = dataset.design(subset)
    return float(np.mean(np.sign(Z @ x) == y))


def main():
    dataset = en.make_toy_classification(300, 60, 8, seed=7)
    problem = en.problem_from_dataset(dataset, "squared", lam=1.0, tau=2.0)
    n_train = int(np.sum(dataset.split == "train"))
    print(f"toy classification: {n_train} train rows, "
          f"{dataset.Z.shape[0] - n_train} test rows, "
          f"{dataset.Z.shape[1]} features (8 informative)")
    print("model: squared loss + 1.0 * ||x||^2 subject to ||x||_1 <= 2.0\n")

    x0 = np.zeros(60)
    cfg = SolverConfig(step_rule="exact", gap_tol=0.0,
                       residual_tol=1e-6, max_iter=20000)

    runs = {}
    for name, runner in [
            ("splitting", lambda: solve(en.en_split(problem), x0, cfg)),
            ("spg", lambda: en.spg_solve(problem, x0, cfg)),
            ("pg", lambda: en.pg_solve(problem, x0, cfg)),
            ("classic cg", lambda: solve(en.en_cg_split(problem), x0, cfg)),
    ]:
        t0 = time.perf_counter()
        result = runner()
        runs[name] = (result, time.perf_counter() - t0)

    print(f"{'solver':<12} {'iters':>6} {'time':>7} {'objective':>12} "
          f"{'residual':>10} {'stop':>12}")
    for name, (result, elapsed) in runs.items():
        res = en.fixed_point_residual(problem, result.x_final,
                                      en.objective_grad(problem, result.x_final))
        print(f"{name:<12} {result.trace[-1].k:>6} {elapsed:>6.2f}s "
              f"{en.objective(problem, result.x_final):>12.6f} "
              f"{res:>10.1e} {result.termination:>12}")

    x_best = runs["splitting"][0].x_final
    print(f"\nsplitting solution: {np.count_nonzero(np.abs(x_best) > 1e-8)} "
          f"of 60 coefficients nonzero, ||x||_1 = {np.abs(x_best).sum():.4f}")
    print(f"train accuracy {accuracy(dataset, x_best, 'train'):.3f}, "
          f"test accuracy {accuracy(dataset, x_best, 'test'):.3f}")


if __name__ == "__main__":
    main()
