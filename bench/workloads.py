"""The benchmark's three workloads: ``ot``, ``enet`` and ``entropic``.

Each workload builds its inputs from the run's seed (``setup``), lists
the solves of one pass (``solves``: the caller runs them in a closed
loop, each solve starting when the previous one returned) and checks
every returned solution (``check``). Solves go through the same public
functions that ``gcgs.cli.run_ot`` and ``run_enet`` call, with the CLI
defaults for every parameter not set here.

The seed relabels the points (sources and targets for transport, samples
and features for the elastic net) of fixed reference instances. A
relabelled instance is the same optimization problem in another storage
order, so every seed asks for the same amount of work while the arrays,
summation orders and the transportation simplex's starting basis change.
Fresh geometry per seed is not affordable: the time to the target varies
by a factor of about three between cluster instances, and averaging that
out would take some twenty 100x100 instances per run.
"""

import itertools
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from gcgs import elasticnet as en
from gcgs import solver as gs
from gcgs import transport as tr

# Sinkhorn iteration cap used by ``gcgs ot`` for the initial point and oracle.
SINKHORN_MAX_ITER = 50000
# The CLI's Sinkhorn tolerance; transport plans are gated against it too.
SINKHORN_TOL = 1e-5
# The CLI's default seed, which picks the reference instances.
INSTANCE_SEED = 0

# Fixed inputs of the speed probes (see ``probe`` on each workload).
_PROBE_RNG = np.random.default_rng(2024)
_PROBE_LOG_KERNEL = -50.0 * _PROBE_RNG.random((100, 100))
_PROBE_COST = _PROBE_RNG.random((100, 100))
_PROBE_ADJACENCY = [[(7 * i + 13 * j + 1) % 200 for j in range(3)] for i in range(200)]
_PROBE_Z = _PROBE_RNG.standard_normal((160, 100))
_PROBE_Y = _PROBE_RNG.standard_normal(160)
# (size, sweeps) of the entropic probe: roughly the workload's time by size
_PROBE_SIZES = ((100, 12), (200, 10), (300, 8), (400, 4))
_PROBE_COSTS = {n: _PROBE_RNG.random((n, n)) for n, _ in _PROBE_SIZES}


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@dataclass
class Solve:
    """One timed solve and what the correctness gate found."""

    solver: str
    label: str
    seconds: float = 0.0
    result: object = None
    feasibility: float = 0.0
    failures: list = field(default_factory=list)
    iterations: int = None  # final iteration index of a solver run
    records: int = 0  # iterates in its trace
    termination: str = None


def timed_solve(tracer, solver, label, fn):
    """Run ``fn`` as one solve; a raised error is recorded, not propagated."""
    rec = Solve(solver, label)
    t0 = time.perf_counter()
    try:
        with tracer.solve(solver):
            rec.result = fn()
    except Exception as err:  # counted in error_rate by the gate
        rec.failures.append(f"raised {type(err).__name__}: {err}")
    rec.seconds = time.perf_counter() - t0
    return rec


def relabel(seed, *arrays):
    """Randomly reorder the rows of each array (one permutation per array)."""
    rng = np.random.default_rng(seed)
    return [a[rng.permutation(a.shape[0])] for a in arrays]


def plan_feasibility(plan, mu_s, mu_t):
    """(worst marginal violation, most negative entry as a positive number)."""
    plan = np.asarray(plan)
    viol = max(float(np.max(np.abs(plan.sum(axis=1) - mu_s))),
               float(np.max(np.abs(plan.sum(axis=0) - mu_t))))
    return viol, max(-float(plan.min()), 0.0)


def check_plan(rec, plan, mu_s, mu_t, tol):
    """Gate: a transport plan is nonnegative and meets its marginals to ``tol``."""
    viol, neg = plan_feasibility(plan, mu_s, mu_t)
    rec.feasibility = max(rec.feasibility, viol, neg)
    if neg > 0.0:
        rec.failures.append(f"plan has a negative entry ({-neg:.3e})")
    if not viol <= tol:
        rec.failures.append(f"marginal violation {viol:.3e} exceeds {tol:.1e}")


class OT:
    """Regularized transport: ``cgs`` then ``cg`` on the full-scale instance.

    The instance is the acceptance suite's ``_full_scale_problem``
    (100x100, 3 clusters, entropic and Laplacian terms). Both solvers stop
    at ``rel_gap`` times their own initial gap, as the CLI's relative
    ``gap_tol`` rule does, or at their iteration cap.
    """

    name = "ot"
    reference_probe_s = 5.6e-3  # uncontended ``probe()`` on the baseline machine

    def __init__(self, n=100, k_neighbors=10, lambda_ent=1.7e-2, lambda_lap=1e3,
                 rel_gap=7.5e-2, caps=(("cgs", 40), ("cg", 5))):
        self.n, self.k_neighbors = n, k_neighbors
        self.lambda_ent, self.lambda_lap = lambda_ent, lambda_lap
        self.rel_gap = rel_gap
        self.caps = caps

    def _split(self, problem, solver):
        if solver == "cgs":
            return tr.ot_split(problem, sinkhorn_tol=SINKHORN_TOL,
                               sinkhorn_max_iter=SINKHORN_MAX_ITER, warm_start=True)
        return tr.ot_cg_split(problem, warm_start=True)

    def setup(self, seed, tracer):
        Xs, Xt, mu_s, mu_t = tr.make_cluster_data(
            self.n, self.n, n_clusters=3, noise=0.05, seed=INSTANCE_SEED)
        Xs, Xt = relabel(seed, Xs, Xt)
        cost = tr.squared_distances(Xs, Xt)
        k = self.k_neighbors
        problem = tr.TransportProblem(
            cost, mu_s, mu_t, lambda_ent=self.lambda_ent,
            lambda_lap=self.lambda_lap, lap_s=tr.knn_laplacian(Xs, k),
            lap_t=tr.knn_laplacian(Xt, k), Xs=Xs, Xt=Xt)
        x0 = tr.sinkhorn(cost, mu_s, mu_t, problem.lambda_ent,
                         tol=SINKHORN_TOL, max_iter=SINKHORN_MAX_ITER)
        gap_tol = {}
        for solver, _ in self.caps:
            gap0, _ = gs.check_fixed_point(tracer.split(self._split(problem, solver)), x0)
            gap_tol[solver] = self.rel_gap * max(gap0, 0.0)
        return {"problem": problem, "x0": x0, "gap_tol": gap_tol}

    def prepare(self, inst):
        """Nothing beyond the set-up is needed to check transport plans."""

    @staticmethod
    def probe():
        """Time of fixed work shaped like this workload, without the library.

        Log-domain scaling sweeps on a 100x100 kernel (the ``cgs`` oracle)
        and Python graph walks plus a dense argmin (the simplex in ``cg``).
        """
        def work():
            f, g = np.zeros(100), np.zeros(100)
            for _ in range(40):
                m = (_PROBE_LOG_KERNEL + g[None, :]).max(axis=1)
                f = -(m + np.log(np.exp(_PROBE_LOG_KERNEL + g[None, :] - m[:, None]).sum(axis=1)))
                m = (_PROBE_LOG_KERNEL + f[:, None]).max(axis=0)
                g = -(m + np.log(np.exp(_PROBE_LOG_KERNEL + f[:, None] - m[None, :]).sum(axis=0)))
            for _ in range(20):
                seen, stack = [False] * 200, [0]
                while stack:
                    for other in _PROBE_ADJACENCY[stack.pop()]:
                        if not seen[other]:
                            seen[other] = True
                            stack.append(other)
                int(np.argmin(_PROBE_COST - f[:, None]))
        return timed(work)

    def solves(self, inst, tracer):
        for solver, cap in self.caps:
            cfg = gs.SolverConfig(step_rule="exact", max_iter=cap,
                                  gap_tol=inst["gap_tol"][solver])
            split = tracer.split(self._split(inst["problem"], solver))
            yield solver, solver, partial(gs.solve, split, inst["x0"], cfg)

    def check(self, inst, rec):
        problem = inst["problem"]
        check_plan(rec, rec.result.x_final, problem.mu_s, problem.mu_t, SINKHORN_TOL)
        objs = np.array([r.objective for r in rec.result.trace])
        if objs.size == 0:
            rec.failures.append("empty trace")
            return
        excess = np.diff(objs) - 1e-12 * np.maximum(1.0, np.abs(objs[:-1]))
        if excess.size and excess.max() > 0.0:
            rec.failures.append(f"objective increased by {excess.max():.3e}")


def enet_objective(problem, x):
    """F(x) computed here, independently of the library, for the gate."""
    t = problem.Z @ x
    if problem.loss == "squared":
        loss = 0.5 * float((t - problem.y) @ (t - problem.y))
    elif problem.loss == "logistic":
        loss = float(np.logaddexp(0.0, -problem.y * t).sum())
    else:
        loss = float(np.sum(np.maximum(0.0, 1.0 - problem.y * t) ** 2))
    return loss + problem.lam * float(x @ x)


class ENet:
    """L1-constrained elastic net: four solvers on the CLI's toy problem.

    Squared loss (lambda 1, tau 2) runs cgs, cg, spg and pg; a logistic
    instance (lambda 0.05, tau 3) runs cgs, cg and spg. Every solver stops
    at the CLI's fixed-point residual 1e-5 or its 10000-iteration cap;
    cgs and cg also stop at ``rel_gap`` times their initial gap. That
    target is tight because the initial gap is several hundred times the
    optimal objective here.
    """

    name = "enet"
    reference_probe_s = 5.7e-3
    problems = (("squared", 1.0, 2.0, ("cgs", "cg", "spg", "pg")),
                ("logistic", 0.05, 3.0, ("cgs", "cg", "spg")))
    residual_tol = 1e-5  # the CLI's default
    rel_gap = 1e-9
    agree_rtol = 1e-6  # acceptance test 11's tolerance

    def __init__(self, n_samples=200, n_features=100, n_informative=10,
                 max_iter=10000):
        self.shape = (n_samples, n_features, n_informative)
        self.max_iter = max_iter

    @staticmethod
    def _split(problem, solver):
        return en.en_split(problem) if solver == "cgs" else en.en_cg_split(problem)

    def setup(self, seed, tracer):
        dataset = en.make_toy_classification(*self.shape, seed=INSTANCE_SEED)
        rows, cols = relabel(seed, *(np.arange(n) for n in dataset.Z.shape))
        dataset = en.Dataset(Z=dataset.Z[rows][:, cols], y=dataset.y[rows],
                             split=dataset.split[rows])
        cases = []
        for loss, lam, tau, solvers in self.problems:
            problem = en.problem_from_dataset(dataset, loss, lam, tau)
            x0 = np.zeros(problem.Z.shape[1])
            gap_tol = {}
            for solver in solvers:
                if solver in ("cgs", "cg"):
                    gap0, _ = gs.check_fixed_point(
                        tracer.split(self._split(problem, solver)), x0)
                    gap_tol[solver] = self.rel_gap * max(gap0, 0.0)
            cases.append({"loss": loss, "problem": problem, "x0": x0,
                          "solvers": solvers, "gap_tol": gap_tol})
        return cases

    def prepare(self, cases):
        """Reference objective from a tight SPG solve (residual 1e-10)."""
        for case in cases:
            cfg = gs.SolverConfig(gap_tol=0.0, residual_tol=1e-10, max_iter=10000)
            ref = en.spg_solve(case["problem"], case["x0"], cfg)
            case["f_ref"] = enet_objective(case["problem"], ref.x_final)

    @staticmethod
    def probe():
        """Time of fixed work shaped like this workload, without the library.

        Projected-gradient steps onto an L1 ball on a 160x100 design.
        """
        def work():
            x = np.zeros(100)
            for _ in range(200):
                v = x - 1e-3 * (_PROBE_Z.T @ (_PROBE_Z @ x - _PROBE_Y) + 2.0 * x)
                mag = np.abs(v)
                if mag.sum() > 2.0:
                    u = np.sort(mag)[::-1]
                    css = np.cumsum(u) - 2.0
                    rho = np.nonzero(u * np.arange(1, 101) > css)[0][-1]
                    v = np.sign(v) * np.maximum(mag - css[rho] / (rho + 1.0), 0.0)
                float(np.max(np.abs(v - x)))
                x = v
        return timed(work)

    def solves(self, cases, tracer):
        for case in cases:
            problem, x0 = case["problem"], case["x0"]
            for solver in case["solvers"]:
                cfg = gs.SolverConfig(step_rule="exact", max_iter=self.max_iter,
                                      gap_tol=case["gap_tol"].get(solver, 0.0),
                                      residual_tol=self.residual_tol)
                if solver in ("cgs", "cg"):
                    fn = partial(gs.solve, tracer.split(self._split(problem, solver)), x0, cfg)
                else:
                    fn = partial(en.spg_solve if solver == "spg" else en.pg_solve,
                                 problem, x0, cfg)
                yield solver, f"{case['loss']}/{solver}", fn

    def check(self, cases, rec):
        case = next(c for c in cases if rec.label.startswith(c["loss"] + "/"))
        problem, result, f_ref = case["problem"], rec.result, case["f_ref"]
        x = result.x_final
        excess = max(float(np.abs(x).sum()) - problem.tau, 0.0)
        rec.feasibility = max(rec.feasibility, excess)
        if excess > 1e-9:
            rec.failures.append(f"||x||_1 exceeds tau by {excess:.3e}")
        f = enet_objective(problem, x)
        gap = result.trace[-1].surrogate_gap
        if not f - f_ref <= gap + 1e-9:
            rec.failures.append(f"F - F_ref = {f - f_ref:.3e} exceeds the reported gap {gap:.3e}")
        converged = result.termination in ("gap_tol", "fp_residual")
        if converged and not abs(f - f_ref) <= self.agree_rtol * max(1.0, abs(f_ref)):
            rec.failures.append(f"converged objective is {f - f_ref:.3e} off the reference")


class Entropic:
    """A batch of cold standalone Sinkhorn solves on cluster costs.

    One solve per (size, lambda_ent) cell, each on its own cluster
    geometry. The lambdas keep the Gibbs kernel above exp(-700), so every
    solve runs the plain scaling path.
    """

    name = "entropic"
    reference_probe_s = 4.7e-3

    def __init__(self, sizes=(100, 200, 300, 400), lambdas=(1e-1, 3e-2, 1e-2)):
        self.cells = list(itertools.product(sizes, lambdas))

    def setup(self, seed, tracer):
        cases = []
        for i, (n, lam) in enumerate(self.cells):
            Xs, Xt, mu_s, mu_t = tr.make_cluster_data(n, n, seed=i)
            Xs, Xt = relabel([seed, i], Xs, Xt)
            cases.append({"label": f"n{n}/lambda{lam:g}", "lam": lam, "mu_s": mu_s,
                          "mu_t": mu_t, "cost": tr.squared_distances(Xs, Xt)})
        return cases

    def prepare(self, cases):
        """Nothing beyond the set-up is needed to check transport plans."""

    @staticmethod
    def probe():
        """Time of fixed work shaped like this workload, without the library.

        The steps of a plain scaling solve (kernel exponentiation, scaling
        sweeps with their checks, plan formation) at sizes 100 to 400,
        with fewer sweeps at larger sizes.
        """
        def work():
            for n, sweeps in _PROBE_SIZES:
                a = np.full(n, 1.0 / n)
                K = np.exp(-_PROBE_COSTS[n] / 0.2)
                v = np.ones(n)
                Kv = K @ v
                for _ in range(sweeps):
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        u = a / Kv
                        v = a / (K.T @ u)
                        Kv = K @ v
                        rows = u * Kv
                    bool(np.all(np.isfinite(u)) and np.all(np.isfinite(v)))
                    float(np.max(np.abs(rows - a)))
                np.maximum(u[:, None] * K * v[None, :], 1e-300)
        return timed(work)

    def solves(self, cases, tracer):
        for c in cases:
            yield "sinkhorn", c["label"], partial(
                tr.sinkhorn, c["cost"], c["mu_s"], c["mu_t"], c["lam"],
                tol=SINKHORN_TOL, max_iter=SINKHORN_MAX_ITER)

    def check(self, cases, rec):
        case = next(c for c in cases if c["label"] == rec.label)
        check_plan(rec, rec.result, case["mu_s"], case["mu_t"], SINKHORN_TOL)


WORKLOADS = {w.name: w for w in (OT, ENet, Entropic)}
