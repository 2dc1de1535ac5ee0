"""In-memory span tracer for the traced benchmark run.

A span is one call across a layer boundary: its name, start and end
(``perf_counter_ns``), the span that was open when it started (its
parent), the solve it belongs to, and whether it raised. Spans are
appended to flat arrays while the run goes and are only read back, and
written out, after the last timed pass.

The tracer wraps public library functions in the module where callers
look them up, plus the callables of every ``SplitObjective`` the
benchmark builds. A boundary that no longer exists is listed in
``Tracer.unwrapped`` instead of failing the run, so refactors that move
or rename internals degrade the per-layer report instead of breaking it.
"""

import contextlib
import copy
import importlib
import time
from array import array

import numpy as np

# "module:attribute" pairs, patched where the library looks them up at
# call time (the solver resolves ``golden_section_min`` in its own
# namespace, so that is where it is wrapped).
BOUNDARIES = (
    "gcgs.solver:step_exact",
    "gcgs.solver:step_armijo",
    "gcgs.solver:surrogate_gap",
    "gcgs.solver:golden_section_min",
    "gcgs.transport:sinkhorn",
    "gcgs.transport:transport_lmo",
    "gcgs.transport:laplacian_reg_grad",
    "gcgs.transport:negentropy",
    "gcgs.transport:knn_laplacian",
    "gcgs.elasticnet:project_l1",
    "gcgs.elasticnet:loss_eval",
    "gcgs.elasticnet:loss_grad",
    "gcgs.elasticnet:objective",
    "gcgs.elasticnet:fixed_point_residual",
)

SPLIT_CALLABLES = ("partial_oracle", "f_grad", "f_eval", "g_eval", "residual")

# Root span of every solve (and of the traced set-up).
ROOT = "solve"


class NullTracer:
    """Stand-in used by untraced passes: wraps nothing, records nothing."""

    def split(self, obj):
        return obj

    def solve(self, label):
        return contextlib.nullcontext()


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve_id = array("i")
        self.failed = array("b")
        self.start = array("q")
        self.end = array("q")
        self.solve_labels = []
        self.unwrapped = []
        self._stack = [-1]
        self._current_solve = -1
        self._originals = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.solve_id.append(self._current_solve)
        self.failed.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def solve(self, label):
        """Root span grouping every call made by one solve."""
        outer = self._current_solve
        self._current_solve = len(self.solve_labels)
        self.solve_labels.append(label)
        idx = self._open(self._name_id(ROOT))
        try:
            yield
        except BaseException:
            self.failed[idx] = 1
            raise
        finally:
            self._close(idx)
            self._current_solve = outer

    def split(self, obj):
        """Copy of a SplitObjective whose callables record spans."""
        wrapped = copy.copy(obj)
        for attr in SPLIT_CALLABLES:
            fn = getattr(obj, attr, None)
            if callable(fn):
                setattr(wrapped, attr, self._wrap("split." + attr, fn))
            elif not hasattr(obj, attr):
                self._note_unwrapped(f"SplitObjective.{attr}")
        return wrapped

    # -- installation --------------------------------------------------------

    def _note_unwrapped(self, what):
        if what not in self.unwrapped:
            self.unwrapped.append(what)

    def __enter__(self):
        for spec in self.boundaries:
            mod_name, attr = spec.split(":")
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self._note_unwrapped(spec)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self._note_unwrapped(spec)
                continue
            span_name = mod_name.rsplit(".", 1)[-1] + "." + attr
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn))
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)
        return False

    # -- read-back -------------------------------------------------------------

    def columns(self):
        """Spans as numpy columns (durations in seconds)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "solve": np.frombuffer(self.solve_id, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
            "start_ns": start.copy(),
            "end_ns": end.copy(),
        }

    def save(self, path):
        """Write every span, with its name and solve tables, as .npz."""
        np.savez_compressed(path, names=np.array(self.names),
                            solve_labels=np.array(self.solve_labels),
                            **self.columns())


def _p(values_s, q):
    return float(np.percentile(values_s, q) * 1e3) if values_s.size else 0.0


def layer_metrics(tracer, solvers, records):
    """Per-layer metrics of one traced pass (and its traced set-up).

    ``solvers`` are the solver labels to report; ``records`` maps each
    solver to the number of iterates its solves recorded, which the
    line-search count of SPG and PG needs because their line search runs
    inline in the solver loop.
    """
    cols = tracer.columns()
    name, parent, solve = cols["name"], cols["parent"], cols["solve"]
    dur = (cols["end_ns"] - cols["start_ns"]) / 1e9
    n = dur.size
    ids = {nm: i for i, nm in enumerate(tracer.names)}

    def is_(span_name):
        return name == ids.get(span_name, -1)

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=n)
    self_time = dur - child_time
    root = is_(ROOT)
    label = np.array(tracer.solve_labels + [""])[solve]  # solve -1 -> ""

    # top[i]: the span directly under the solve root that contains span i
    # (parents always precede their children in the arrays).
    top = [-1] * n
    par, is_root = parent.tolist(), root.tolist()
    for i in range(n):
        p = par[i]
        if not is_root[i]:
            top[i] = i if p < 0 or is_root[p] else top[p]
    top = np.array(top, dtype=np.int64)
    top_level = (top == np.arange(n)) & has_parent
    under_golden = has_parent & is_("solver.golden_section_min")[np.maximum(parent, 0)]
    step = is_("solver.step_exact") | is_("solver.step_armijo")
    under_step = (top >= 0) & step[np.maximum(top, 0)]
    f_eval = is_("split.f_eval")

    def stats(mask):
        d = dur[mask]
        return float(d.sum()), int(mask.sum()), _p(d, 50), _p(d, 90)

    m = {}
    s, c, p50, p90 = stats(is_("transport.sinkhorn"))
    m.update({"transport.sinkhorn_s": s, "transport.sinkhorn_calls": c,
              "transport.sinkhorn_ms.p50": p50, "transport.sinkhorn_ms.p90": p90,
              "transport.sinkhorn_failures": int(
                  (is_("transport.sinkhorn") & (cols["failed"] == 1)).sum())})
    s, c, p50, p90 = stats(is_("transport.transport_lmo"))
    m.update({"transport.lmo_s": s, "transport.lmo_calls": c,
              "transport.lmo_ms.p50": p50, "transport.lmo_ms.p90": p90})
    s, c, _, _ = stats(is_("transport.laplacian_reg_grad"))
    m.update({"transport.lap_grad_s": s, "transport.lap_grad_calls": c,
              "transport.entropy_s": stats(is_("transport.negentropy"))[0],
              "transport.knn_laplacian_s": stats(is_("transport.knn_laplacian"))[0]})
    s, c, _, _ = stats(is_("solver.golden_section_min"))
    m.update({"numerics.golden_s": s, "numerics.golden_calls": c,
              "numerics.golden_evals": int((f_eval & under_golden).sum())})
    s, c, _, _ = stats(is_("elasticnet.project_l1"))
    m.update({"elasticnet.project_l1_s": s, "elasticnet.project_l1_calls": c})
    s, c, _, _ = stats(is_("elasticnet.loss_eval") | is_("elasticnet.loss_grad"))
    m.update({"elasticnet.loss_s": s, "elasticnet.loss_calls": c,
              "elasticnet.residual_s": stats(is_("elasticnet.fixed_point_residual"))[0]})

    line_search_evals = 0
    for solver in solvers:
        mine = label == solver
        direct = top_level & mine
        if solver in ("spg", "pg"):
            # one objective call per recorded iterate, the rest are trials
            evals = int((direct & is_("elasticnet.objective")).sum()) - records.get(solver, 0)
            evals = max(evals, 0)
            line_search_evals += evals
        else:
            evals = int((f_eval & under_step & mine).sum())
        oracle = stats(direct & is_("split.partial_oracle"))
        m.update({
            f"solver.step_s.{solver}": stats(direct & step)[0],
            f"solver.step_evals.{solver}": evals,
            f"solver.residual_s.{solver}": stats(
                direct & (is_("split.residual") | is_("elasticnet.fixed_point_residual")))[0],
            f"solver.self_s.{solver}": float(self_time[root & mine].sum()),
            f"solver.oracle_s.{solver}": oracle[0],
            f"solver.oracle_ms.p50.{solver}": oracle[2],
            f"solver.oracle_ms.p90.{solver}": oracle[3],
            f"solver.grad_s.{solver}": stats(
                direct & (is_("split.f_grad") | is_("elasticnet.loss_grad")))[0],
        })
    m["elasticnet.line_search_evals"] = line_search_evals
    m["bench.unwrapped_boundaries"] = len(tracer.unwrapped)
    return m
