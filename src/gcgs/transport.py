# -*- coding: utf-8 -*-
"""
Entropic and Laplacian regularized optimal transport.

The problem minimized over the transport polytope
{gamma >= 0, gamma 1 = mu_s, gamma^T 1 = mu_t} is

    F(gamma) = <gamma, C>_F + lambda_lap * Omega_lap(gamma)
               + lambda_ent * Omega_ent(gamma)

with Omega_ent the negentropy sum(gamma * log(gamma)) and Omega_lap a
quadratic graph-Laplacian term penalizing distortion of transported
sample positions. The split used by the solver linearizes the cost and
Laplacian parts; the resulting subproblem is entropic transport with an
adjusted cost and is solved by Sinkhorn-Knopp scaling. An exact
transportation-simplex linear minimizer supports the classic
conditional gradient baseline.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import xlogy

from .numerics import as_matrix, make_rng
from .solver import SplitObjective, cg_adapter

# Output plans and entropy-gradient arguments are floored here.
_PLAN_FLOOR = 1e-300

# Sinkhorn checks every _CHECK_EVERY sweeps and absorbs log-scalings
# beyond _ABSORB_BOUND into the potentials (exp overflows past 709).
_CHECK_EVERY = 10
_ABSORB_BOUND = 100.0


class ConvergenceError(RuntimeError):
    """Sinkhorn hit its iteration cap; carries the achieved violation."""

    def __init__(self, violation: float, max_iter: int):
        super().__init__(
            f"sinkhorn did not converge in {max_iter} iterations "
            f"(marginal violation {violation:.3e})")
        self.violation = violation


class DegeneracyError(RuntimeError):
    """Transportation simplex exceeded its pivot budget."""


def as_histogram(weights) -> np.ndarray:
    """Validate and return a probability histogram as a float64 array."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"histogram must be 1-D, got shape {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("histogram weights must be finite and nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"histogram weights sum to {w.sum()!r}, expected 1")
    return w


def uniform_histogram(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def marginal_violation(gamma: np.ndarray, mu_s: np.ndarray, mu_t: np.ndarray) -> float:
    """Infinity-norm violation of the prescribed row/column sums."""
    row = np.max(np.abs(gamma.sum(axis=1) - mu_s))
    col = np.max(np.abs(gamma.sum(axis=0) - mu_t))
    return float(max(row, col))


# ---------------------------------------------------------------------------
# Regularizers and problem definition
# ---------------------------------------------------------------------------

def negentropy(gamma: np.ndarray) -> float:
    """sum(gamma * log(gamma)) with the convention 0 log 0 = 0."""
    return float(np.sum(xlogy(gamma, gamma)))


def negentropy_grad(gamma: np.ndarray) -> np.ndarray:
    """Elementwise 1 + log(gamma); defined only for positive plans."""
    if np.any(gamma <= 0):
        i, j = np.argwhere(gamma <= 0)[0]
        raise ValueError(
            f"negentropy gradient undefined at nonpositive entry ({i}, {j})")
    return 1.0 + np.log(gamma)


@dataclass
class TransportProblem:
    """Cost, marginals and regularization data for one transport instance.

    ``lambda_ent`` weights the negentropy term and must be positive;
    ``lambda_lap`` weights the Laplacian term and may be zero, in which
    case the graph fields may be omitted. ``lambda_s`` / ``lambda_t``
    are the inner weights of the two Laplacian traces.
    """

    cost: np.ndarray
    mu_s: np.ndarray
    mu_t: np.ndarray
    lambda_ent: float
    lambda_lap: float = 0.0
    lap_s: Optional[np.ndarray] = None
    lap_t: Optional[np.ndarray] = None
    Xs: Optional[np.ndarray] = None
    Xt: Optional[np.ndarray] = None
    lambda_s: float = 1.0
    lambda_t: float = 1.0

    def __post_init__(self):
        self.cost = as_matrix(self.cost)
        self.mu_s = as_histogram(self.mu_s)
        self.mu_t = as_histogram(self.mu_t)
        r, c = self.cost.shape
        if self.mu_s.shape != (r,) or self.mu_t.shape != (c,):
            raise ValueError("marginal lengths do not match the cost matrix")
        if self.lambda_ent <= 0:
            raise ValueError("lambda_ent must be positive")
        if self.lambda_lap < 0:
            raise ValueError("lambda_lap must be nonnegative")
        if self.lambda_lap > 0:
            checked = []
            for name, L, n in (("lap_s", self.lap_s, r), ("lap_t", self.lap_t, c)):
                if L is None:
                    raise ValueError(f"{name} required when lambda_lap > 0")
                L = as_matrix(L)
                if L.shape != (n, n):
                    raise ValueError(f"{name} must be {n}x{n}")
                if np.max(np.abs(L - L.T)) > 1e-8:
                    raise ValueError(f"{name} must be symmetric")
                if np.max(np.abs(L.sum(axis=1))) > 1e-8:
                    raise ValueError(f"{name} rows must sum to 0")
                # symmetric part, so the gradient below can use 2 L
                checked.append(0.5 * (L + L.T))
            self.lap_s, self.lap_t = checked
            if self.Xs is None or self.Xt is None:
                raise ValueError("sample positions required when lambda_lap > 0")
            self.Xs = as_matrix(self.Xs)
            self.Xt = as_matrix(self.Xt)


def laplacian_reg(gamma: np.ndarray, problem: TransportProblem) -> float:
    """Value of the position-preserving Laplacian regularizer."""
    if problem.lambda_lap == 0.0 or problem.lap_s is None:
        return 0.0
    A = gamma @ problem.Xt
    term_s = problem.lambda_s * float(np.sum(A * (problem.lap_s @ A)))
    B = gamma.T @ problem.Xs
    term_t = problem.lambda_t * float(np.sum(B * (problem.lap_t @ B)))
    return term_s + term_t


def laplacian_reg_grad(gamma: np.ndarray, problem: TransportProblem) -> np.ndarray:
    """Gradient of :func:`laplacian_reg` with respect to the plan."""
    if problem.lambda_lap == 0.0 or problem.lap_s is None:
        return np.zeros_like(gamma)
    Ls, Lt = problem.lap_s, problem.lap_t
    Xs, Xt = problem.Xs, problem.Xt
    g_s = 2.0 * problem.lambda_s * ((Ls @ gamma @ Xt) @ Xt.T)
    g_t = 2.0 * problem.lambda_t * (Xs @ (Xs.T @ (gamma @ Lt)))
    return g_s + g_t


def ot_objective(gamma: np.ndarray, problem: TransportProblem) -> float:
    """Full objective: transport cost + weighted regularizers."""
    return (float(np.vdot(gamma, problem.cost))
            + problem.lambda_lap * laplacian_reg(gamma, problem)
            + problem.lambda_ent * negentropy(gamma))


def ot_split(problem: TransportProblem, sinkhorn_tol: float = 1e-9,
             sinkhorn_max_iter: int = 10000,
             warm_start: bool = False) -> SplitObjective:
    """Split objective whose partial oracle is Sinkhorn on the adjusted cost.

    The smooth part collects the linear cost and the Laplacian term; the
    entropy stays exact in the subproblem, which therefore reduces to
    entropic transport with cost ``C + lambda_lap * grad(Omega_lap)``.
    The entropy gradient takes the plan floored at 1e-300, so it stays
    finite on plans with zero entries such as transport-simplex vertices.
    With ``warm_start`` the oracle reuses its previous scaling
    potentials; such an objective holds per-solve state and must not be
    shared across concurrent solves.
    """
    state = {"potentials": None}

    def f_eval(gamma):
        return (float(np.vdot(gamma, problem.cost))
                + problem.lambda_lap * laplacian_reg(gamma, problem))

    def f_grad(gamma):
        return problem.cost + problem.lambda_lap * laplacian_reg_grad(gamma, problem)

    def oracle(gamma, grad_f):
        plan, pots = sinkhorn(
            grad_f, problem.mu_s, problem.mu_t, problem.lambda_ent,
            tol=sinkhorn_tol, max_iter=sinkhorn_max_iter,
            potentials=state["potentials"], return_potentials=True)
        if warm_start:
            state["potentials"] = pots
        return plan

    return SplitObjective(
        f_eval=f_eval,
        f_grad=f_grad,
        g_eval=lambda gamma: problem.lambda_ent * negentropy(gamma),
        g_grad=lambda gamma: problem.lambda_ent * negentropy_grad(
            np.maximum(gamma, _PLAN_FLOOR)),
        partial_oracle=oracle,
        residual=lambda gamma, grad_F: marginal_violation(
            gamma, problem.mu_s, problem.mu_t),
    )


def ot_cg_split(problem: TransportProblem, warm_start: bool = True) -> SplitObjective:
    """Classic conditional gradient formulation of the same problem.

    Fully linearizes the objective of :func:`ot_split` and calls the
    exact transportation simplex as linear minimization oracle. Vertices
    of the polytope carry exact zeros; the split's floored entropy
    gradient keeps the full gradient finite there.
    """
    state = {"basis": None}

    def lmo(grad_F):
        plan, basis = transport_lmo(
            grad_F, problem.mu_s, problem.mu_t,
            basis=state["basis"] if warm_start else None, return_basis=True)
        if warm_start:
            state["basis"] = basis
        return plan

    return cg_adapter(ot_split(problem), lmo)


# ---------------------------------------------------------------------------
# Sinkhorn-Knopp scaling
# ---------------------------------------------------------------------------

def _stabilized_kernel(log_kernel, f, g):
    """Re-centred ``(K, f, g)`` with ``K = exp(log_kernel + f ⊕ g)``.

    Every row of ``K`` peaks at 1 (a shift of ``f`` that the next row
    scaling undoes) and columns peaking below ``exp(-_ABSORB_BOUND)`` are
    lifted to it, so no row or column of ``K`` is zero.
    """
    L = log_kernel + f[:, None] + g[None, :]
    shift = L.max(axis=1)
    L -= shift[:, None]
    lift = np.maximum(-_ABSORB_BOUND - L.max(axis=0), 0.0)
    L += lift[None, :]
    return np.exp(L, out=L), f - shift, g + lift


def sinkhorn(cost_adj: np.ndarray, mu_s, mu_t, lambda_ent: float,
             tol: float = 1e-9, max_iter: int = 10000, potentials=None,
             return_potentials: bool = False):
    """Entropic transport plan by stabilized Sinkhorn-Knopp scaling.

    Minimizes ``<gamma, cost_adj> + lambda_ent * sum(gamma log gamma)``
    over the transport polytope of the histograms ``mu_s``, ``mu_t``.
    The plan is ``exp(-cost_adj/lambda_ent - 1 + f ⊕ g)``; the sweeps
    scale ``u``, ``v`` on a kernel stabilized by the potentials ``f``,
    ``g`` (Schmitzer 2019; Peyré & Cuturi 2019, §4.4). Every
    ``_CHECK_EVERY`` sweeps, and at the cap, scalings whose log passes
    ``_ABSORB_BOUND`` are absorbed into the potentials, and non-finite
    ones roll back to the last checked scalings, which are absorbed
    instead. So any ``lambda_ent > 0`` with a finite
    ``cost_adj / lambda_ent`` runs the same plain sweeps.

    Returns the plan, with entries floored at 1e-300, once its marginal
    violation (infinity norm) is at most ``tol``; after ``max_iter``
    sweeps raises :class:`ConvergenceError` carrying the achieved
    violation. Warm ``potentials`` from a previous call, shaped (r,) and
    (c,) and finite where the marginals are positive, are re-centred by
    a max-shift. ``return_potentials`` also returns the final
    ``(f, g)``, which are ``-inf`` at zero marginals.
    """
    a = as_histogram(mu_s)
    b = as_histogram(mu_t)
    cost_adj = np.asarray(cost_adj, dtype=np.float64)
    if cost_adj.shape != (a.size, b.size):
        raise ValueError("cost shape does not match the marginals")
    if lambda_ent <= 0:
        raise ValueError("lambda_ent must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    # zero-mass rows and columns get no plan mass: scale on the support,
    # a view when there are none (fancy indexing copies)
    rows, cols = a > 0, b > 0
    full = rows.all() and cols.all()
    support = np.s_[:, :] if full else np.ix_(rows, cols)
    log_kernel = -cost_adj[support] / lambda_ent - 1.0
    if not np.all(np.isfinite(log_kernel)):
        raise ValueError("cost_adj / lambda_ent must be finite")
    if potentials is None:
        f, g = np.zeros(rows.sum()), np.zeros(cols.sum())
    else:
        f, g = (np.asarray(p, dtype=np.float64) for p in potentials)
        if f.shape != a.shape or g.shape != b.shape:
            raise ValueError(f"potentials must have shapes {a.shape} and "
                             f"{b.shape}, got {f.shape} and {g.shape}")
        f, g = f[rows], g[cols]
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ValueError(
                "potentials must be finite where the marginals are positive")
    a_s, b_s = a[rows], b[cols]

    K, f, g = _stabilized_kernel(log_kernel, f, g)
    Kv = K.sum(axis=1)
    lu_ok = lv_ok = 0.0
    viol = np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(1, max_iter + 1):
            u = a_s / Kv
            v = b_s / (K.T @ u)
            Kv = K @ v
            if sweep % _CHECK_EVERY and sweep < max_iter:
                continue
            lu, lv = np.log(u), np.log(v)
            if not (np.all(np.isfinite(lu)) and np.all(np.isfinite(lv))):
                lu, lv = lu_ok, lv_ok
            else:
                viol = float(np.max(np.abs(u * Kv - a_s)))
                if viol <= tol:
                    break
                if max(np.max(np.abs(lu)), np.max(np.abs(lv))) <= _ABSORB_BOUND:
                    lu_ok, lv_ok = lu, lv
                    continue
            K, f, g = _stabilized_kernel(log_kernel, f + lu, g + lv)
            Kv = K.sum(axis=1)
            lu_ok = lv_ok = 0.0
        else:
            raise ConvergenceError(viol, max_iter)

    gamma = np.maximum(u[:, None] * K * v[None, :], _PLAN_FLOOR)
    if not full:
        gamma, on_support = np.full(cost_adj.shape, _PLAN_FLOOR), gamma
        gamma[support] = on_support
    if not return_potentials:
        return gamma
    pots = (np.full(a.size, -np.inf), np.full(b.size, -np.inf))
    pots[0][rows] = f + lu
    pots[1][cols] = g + lv
    return gamma, pots


# ---------------------------------------------------------------------------
# Exact linear minimization: transportation simplex
# ---------------------------------------------------------------------------

def _rooted_tree(basis, cost, r, c):
    """Root the basis tree at supply node 0 (demand ``j`` is node ``r + j``).

    Returns the potentials ``(u, v)`` with ``u[0] = 0`` and
    ``u_i + v_j = c_ij`` on every basic cell, each node's parent and
    parent-cell index, its depth and the breadth-first order. Raises
    ``ValueError`` when a cell is out of range, a node is reached twice
    or the walk misses a node, i.e. unless the cells span a tree.
    """
    adjacency = [[] for _ in range(r + c)]
    for t, (i, j) in enumerate(basis):
        if not (0 <= i < r and 0 <= j < c):
            raise ValueError(f"basis cell {(i, j)} is out of range for {r}x{c}")
        cij = cost[i, j]
        adjacency[i].append((r + j, t, cij))
        adjacency[r + j].append((i, t, cij))
    pot = [0.0] * (r + c)
    parent, edge, depth = [0] * (r + c), [-1] * (r + c), [-1] * (r + c)
    depth[0] = 0
    order = [0]
    for node in order:
        for other, t, cij in adjacency[node]:
            if t == edge[node]:
                continue
            if depth[other] >= 0:
                raise ValueError("basis cells repeat or close a cycle")
            parent[other], edge[other], depth[other] = node, t, depth[node] + 1
            pot[other] = cij - pot[node]
            order.append(other)
    if len(order) < r + c:
        raise ValueError("basis cells do not span all rows and columns")
    pot = np.array(pot)
    return (pot[:r], pot[r:]), parent, edge, depth, order


def _subtree_flows(mass, parent, edge, order):
    """Basic flows for node masses: signed subtree sums, leaves first."""
    excess = list(mass)
    flows = [0.0] * (len(order) - 1)
    for node in order[:0:-1]:
        flows[edge[node]] = excess[node]
        excess[parent[node]] -= excess[node]
    return flows


def transport_lmo(cost_adj: np.ndarray, mu_s, mu_t, basis=None,
                  return_basis: bool = False, return_duals: bool = False):
    """Exact minimizer of ``<gamma, cost_adj>`` over the transport polytope.

    Transportation simplex with a north-west-corner start and MODI
    pivoting. Each pivot roots the basis tree once: the tree gives the
    duals, the entering cycle (climbing from both ends of the entering
    cell to their common ancestor) and the basic flows as subtree sums.
    Marginals are perturbed by ``i * 1e-12`` (then re-normalized)
    against degenerate pivoting; the returned vertex is solved on the
    final tree against the original marginals, so its row and column
    sums are exact up to summation error. Optimality is certified by
    dual potentials with all reduced costs ``>= -1e-9``.

    ``basis`` warm-starts from a previous optimal basis (the feasible
    bases depend only on the marginals, so any earlier basis for the
    same marginals is valid); a basis that is not a spanning tree of
    ``r + c - 1`` in-range cells, or not feasible for these marginals,
    raises ``ValueError``. Exceeding the pivot budget raises
    :class:`DegeneracyError`.
    """
    cost = np.asarray(cost_adj, dtype=np.float64)
    a = as_histogram(mu_s)
    b = as_histogram(mu_t)
    if cost.shape != (a.size, b.size):
        raise ValueError("cost shape does not match the marginals")
    r, c = cost.shape
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost must be finite")

    eps0 = 1e-12
    ap = a + eps0 * np.arange(1, r + 1)
    ap = ap / ap.sum()
    bp = b + eps0 * np.arange(1, c + 1)
    bp = bp / bp.sum()
    perturbed = np.concatenate([ap, bp]).tolist()

    if basis is None:
        arem = ap.copy()
        brem = bp.copy()
        basis = []
        i = j = 0
        while True:
            x = min(arem[i], brem[j])
            basis.append((i, j))
            arem[i] -= x
            brem[j] -= x
            if i == r - 1 and j == c - 1:
                break
            if arem[i] <= brem[j] and i < r - 1:
                i += 1
            elif j < c - 1:
                j += 1
            else:
                i += 1
    else:
        basis = list(basis)
        if len(basis) != r + c - 1:
            raise ValueError("warm-start basis has the wrong size")

    max_pivots = 4 * r * c + 1000
    for pivot in range(max_pivots + 1):
        (u, v), parent, edge, depth, order = _rooted_tree(basis, cost, r, c)
        flows = _subtree_flows(perturbed, parent, edge, order)
        if pivot == 0 and min(flows) < -1e-9:
            raise ValueError("warm-start basis is not feasible for these marginals")
        reduced = cost - u[:, None] - v[None, :]
        flat = int(np.argmin(reduced))
        ei, ej = divmod(flat, c)
        if reduced[ei, ej] >= -1e-11:
            break
        if pivot == max_pivots:
            raise DegeneracyError(
                f"pivot budget exhausted after {max_pivots} pivots")
        # the entering cell gains theta; climbing from either of its
        # ends to the common ancestor, the 1st, 3rd, ... cells lose it
        sides = ([], [])
        ends = [ei, r + ej]
        while ends[0] != ends[1]:
            k = 0 if depth[ends[0]] >= depth[ends[1]] else 1
            sides[k].append(edge[ends[k]])
            ends[k] = parent[ends[k]]
        losing = sides[1][0::2] + sides[0][0::2][::-1]
        basis[min(losing, key=flows.__getitem__)] = (ei, ej)

    final = _subtree_flows(np.concatenate([a, b]).tolist(), parent, edge, order)
    gamma = np.zeros((r, c))
    rows, cols = zip(*basis)
    gamma[rows, cols] = np.clip(final, 0.0, None)

    out = (gamma,)
    if return_basis:
        out = out + (list(basis),)
    if return_duals:
        out = out + ((u, v),)
    return out[0] if len(out) == 1 else out


# ---------------------------------------------------------------------------
# Graphs and synthetic data
# ---------------------------------------------------------------------------

def knn_laplacian(X: np.ndarray, k: int) -> np.ndarray:
    """Symmetrized k-nearest-neighbor graph Laplacian of the rows of X.

    The binary adjacency keeps the k nearest rows per point (self
    excluded, distance ties broken by index order) and is symmetrized by
    W := max(W, W^T); the result D - W is symmetric, PSD, with zero row
    sums.
    """
    X = as_matrix(X)
    n = X.shape[0]
    if not (1 <= k < n):
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    W = np.zeros((n, n))
    W[np.arange(n)[:, None], idx] = 1.0
    W = np.maximum(W, W.T)
    return np.diag(W.sum(axis=1)) - W


def make_cluster_data(ns: int, nt: int, n_clusters: int = 3,
                      noise: float = 0.05, seed: int = 0):
    """Two-domain 2-D cluster samples with uniform histograms.

    Source points sit in ``n_clusters`` Gaussian blobs; the target blobs
    are a rotated and shifted copy of the source centers with fresh
    noise. Deterministic for a given seed.

    Returns
    -------
    (Xs, Xt, mu_s, mu_t)
    """
    if not (1 <= n_clusters <= min(ns, nt)):
        raise ValueError("need 1 <= n_clusters <= min(ns, nt)")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    rng = make_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(n_clusters, 2))
    shift = rng.uniform(0.3, 0.6, size=2)
    angle = math.pi / 6.0
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    centroid = centers.mean(axis=0)
    centers_t = (centers - centroid) @ rot.T + centroid + shift

    assign_s = np.arange(ns) % n_clusters
    assign_t = np.arange(nt) % n_clusters
    Xs = centers[assign_s] + noise * rng.standard_normal((ns, 2))
    Xt = centers_t[assign_t] + noise * rng.standard_normal((nt, 2))
    return Xs, Xt, uniform_histogram(ns), uniform_histogram(nt)


def squared_distances(Xs: np.ndarray, Xt: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean cost matrix between two point sets."""
    Xs = as_matrix(Xs)
    Xt = as_matrix(Xt)
    d2 = (np.sum(Xs * Xs, axis=1)[:, None] + np.sum(Xt * Xt, axis=1)[None, :]
          - 2.0 * (Xs @ Xt.T))
    return np.maximum(d2, 0.0)

