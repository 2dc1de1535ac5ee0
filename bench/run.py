#!/usr/bin/env python3
"""Benchmark: time to a certified gap on the ot, enet and entropic workloads.

Run from the repository root:

    python3 bench/run.py --workload ot --seed 0 --seconds 35 --trace 0

The run builds its inputs from ``--seed``, sets them up several times,
then repeats closed-loop passes over them for ``--seconds``. After every
set-up and solve a speed probe of the workload's own runs for a tenth of
the time just measured. Each set-up and pass time is multiplied by its
speed factor, the probe's reference time over the mean of the probes
that followed it, which takes out most of the slow-down that other work
on a shared machine causes; ``setup_s`` and ``total_s`` are the medians
of these products (see ``bench/README.md``). Every returned solution
goes through the correctness gate; any failure makes the exit status 1.
With ``--trace 1`` half the time goes to untraced passes and one extra
set-up and pass run with spans recorded, which give the per-layer
metrics. The human-readable report comes first; the last line of
standard output is one JSON object with the metrics named in
``BENCHMARK.json``. The full record and the spans are written under
``.bench_out/``. See ``bench/README.md``.
"""

import os

# One BLAS thread, pinned before numpy is imported anywhere in the process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SOLVERS = ("cgs", "cg", "spg", "pg")
SETUP_REPS = 5  # set-ups per run; setup_s is the median
PROBE_SHARE = 0.1  # probe time per second of timed set-up or solve


# End-to-end metrics in the JSON line: defined and nonzero on every workload.
END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))

# Every end-to-end metric of the report, in order. Solve times exist only
# on the workloads that run that solver; feasibility_err and error_rate
# are zero on a passing run.
REPORT = (("setup_s", "s"), ("total_s", "s")) + tuple(
    (f"solve_s.{s}", "s") for s in SOLVERS + ("sinkhorn",)) + (
    ("feasibility_err", "1"), ("error_rate", "1"), ("peak_rss_mb", "MB"))

_LAYER_UNITS = (
    ("transport.sinkhorn_s", "s"), ("transport.sinkhorn_calls", "count"),
    ("transport.sinkhorn_ms.p50", "ms"), ("transport.sinkhorn_ms.p90", "ms"),
    ("transport.sinkhorn_failures", "count"),
    ("transport.lmo_s", "s"), ("transport.lmo_calls", "count"),
    ("transport.lmo_ms.p50", "ms"), ("transport.lmo_ms.p90", "ms"),
    ("transport.lap_grad_s", "s"), ("transport.lap_grad_calls", "count"),
    ("transport.entropy_s", "s"), ("transport.knn_laplacian_s", "s"),
    ("numerics.golden_s", "s"), ("numerics.golden_calls", "count"),
    ("numerics.golden_evals", "count"),
    ("elasticnet.project_l1_s", "s"), ("elasticnet.project_l1_calls", "count"),
    ("elasticnet.loss_s", "s"), ("elasticnet.loss_calls", "count"),
    ("elasticnet.residual_s", "s"), ("elasticnet.line_search_evals", "count"),
)
_PER_SOLVER_UNITS = (
    ("solver.iters", "count"), ("solver.step_s", "s"), ("solver.step_evals", "count"),
    ("solver.oracle_s", "s"), ("solver.oracle_ms.p50", "ms"),
    ("solver.oracle_ms.p90", "ms"), ("solver.grad_s", "s"),
    ("solver.residual_s", "s"), ("solver.self_s", "s"),
)

# Per-layer metrics in the JSON line of a traced run.
PER_LAYER = _LAYER_UNITS + tuple(
    (f"{name}.{s}", unit) for name, unit in _PER_SOLVER_UNITS for s in SOLVERS) + tuple(
    (f"solve_s.{s}", "s") for s in SOLVERS + ("sinkhorn",)) + (
    ("bench.trace_overhead_s", "s"), ("bench.unwrapped_boundaries", "count"))


def use_checkout_sources():
    """Put this checkout's ``src/`` first on the import path.

    Returns False when the checkout has no library sources; the benchmark
    never falls back to an installed copy.
    """
    if not os.path.isfile(os.path.join(SRC, "gcgs", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gcgs
    return os.path.abspath(gcgs.__file__).startswith(SRC + os.sep)


class Prober:
    """Runs the workload's speed probe for ``PROBE_SHARE`` of the timed work.

    ``after`` adds a share of a timed interval to a debt and runs probes
    until it is paid, so the probes sample the machine's speed at a rate
    that follows the timed work, right after it.
    """

    def __init__(self, probe):
        self.probe = probe
        self.debt = 0.0

    def after(self, seconds, into, at_least_one=False):
        """Owe for ``seconds`` of timed work and pay, appending to ``into``."""
        self.debt += PROBE_SHARE * seconds
        while self.debt > 0.0 or (at_least_one and not into):
            t = self.probe()
            into.append(t)
            self.debt -= t


@dataclass
class Pass:
    wall: float  # time in its solves, without probes and checks
    solves: list
    probes: list = field(default_factory=list)  # probe times during the pass


@dataclass
class Measurement:
    workload: object
    setup_s: list
    passes: list
    setup_probes: list = field(default_factory=list)  # one list per set-up
    traced: Pass = None
    tracer: object = None

    def factor(self, probes):
        """Speed factor of one sample: reference probe time over its mean probe."""
        return self.workload.reference_probe_s / statistics.fmean(probes)

    @property
    def probes(self):
        return [t for p in self.passes for t in p.probes]

    @property
    def scale(self):
        """Speed factor of all the passes together."""
        return self.factor(self.probes)


def _gate(workload, inst, rec):
    """Check one solve, keep its summary and drop the solution itself."""
    if rec.result is not None:
        try:
            workload.check(inst, rec)
        except Exception as err:  # a check that cannot run is a failed check
            rec.failures.append(f"check raised {type(err).__name__}: {err}")
        trace = getattr(rec.result, "trace", None)
        if isinstance(trace, list) and trace:
            rec.iterations, rec.records = trace[-1].k, len(trace)
            rec.termination = rec.result.termination
    rec.result = None  # memory stays flat however many passes run


def _run_pass(workload, inst, tracer, prober=None):
    """One closed-loop pass; with a prober, probes follow every solve."""
    import workloads
    done = Pass(0.0, [])
    for solver, label, fn in workload.solves(inst, tracer):
        rec = workloads.timed_solve(tracer, solver, label, fn)
        done.solves.append(rec)
        done.wall += rec.seconds
        if prober is not None:
            prober.after(rec.seconds, done.probes)
    if prober is not None:
        prober.after(0.0, done.probes, at_least_one=True)
    for rec in done.solves:
        _gate(workload, inst, rec)
    return done


def measure(workload, seed, seconds, trace):
    """Set up, then run closed-loop passes for ``seconds`` (see module doc)."""
    import spans
    null = spans.NullTracer()
    m = Measurement(workload, [], [])
    prober = Prober(workload.probe)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inst = workload.setup(seed, null)
        m.setup_s.append(time.perf_counter() - t0)
        m.setup_probes.append([])
        prober.after(m.setup_s[-1], m.setup_probes[-1], at_least_one=True)
    workload.prepare(inst)

    budget = seconds / 2.0 if trace else seconds
    t_start = time.perf_counter()
    while True:
        m.passes.append(_run_pass(workload, inst, null, prober))
        median = statistics.median(p.wall for p in m.passes)
        if time.perf_counter() - t_start + median > budget:
            break
    if trace:
        m.tracer = spans.Tracer()
        with m.tracer:
            with m.tracer.solve("setup"):
                workload.setup(seed, m.tracer)
            m.traced = _run_pass(workload, inst, m.tracer)
    return m


def _all_solves(m):
    extra = [m.traced] if m.traced else []
    return [rec for p in m.passes + extra for rec in p.solves]


def _solver_times(m, solver):
    """Per-pass time spent in one solver's solves; None if it never ran."""
    if not any(r.solver == solver for r in m.passes[0].solves):
        return None
    return [sum(r.seconds for r in p.solves if r.solver == solver) for p in m.passes]


def report_metrics(m, scaled=True):
    """Every end-to-end metric of the report; None where not applicable.

    Times are medians over set-ups or passes, each sample multiplied by
    the speed factor of the probes that followed it unless ``scaled`` is
    False.
    """
    def median(times, probes):
        return statistics.median(
            t * (m.factor(p) if scaled else 1.0) for t, p in zip(times, probes))

    pass_probes = [p.probes for p in m.passes]
    solves = _all_solves(m)
    failed = sum(1 for r in solves if r.failures)
    out = {
        "setup_s": median(m.setup_s, m.setup_probes),
        "total_s": median([p.wall for p in m.passes], pass_probes),
        "feasibility_err": max((r.feasibility for r in solves), default=0.0),
        "error_rate": failed / len(solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    for solver in SOLVERS + ("sinkhorn",):
        times = _solver_times(m, solver)
        out[f"solve_s.{solver}"] = median(times, pass_probes) if times else None
    return out


def layer_report(m, e2e):
    """Per-layer metrics of the traced pass."""
    import spans
    traced = m.traced.solves
    records = {s: sum(r.records for r in traced if r.solver == s) for s in SOLVERS}
    out = spans.layer_metrics(m.tracer, SOLVERS, records)
    for s in SOLVERS:
        out[f"solver.iters.{s}"] = sum(r.iterations or 0 for r in traced if r.solver == s)
    for s in SOLVERS + ("sinkhorn",):
        out[f"solve_s.{s}"] = e2e[f"solve_s.{s}"] or 0.0
    out["bench.trace_overhead_s"] = m.traced.wall * m.scale - e2e["total_s"]
    return out


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(args):
    import scipy
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "gcgs", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(), "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def human_report(m, e2e, layers):
    solves = _all_solves(m)
    failed = [r for r in solves if r.failures]
    n_pass = len(m.passes)
    raw = report_metrics(m, scaled=False)
    notes = {
        "feasibility_err": f"worst of {len(solves)} returned solutions",
        "error_rate": f"{len(failed)} of {len(solves)} solves failed",
        "peak_rss_mb": "peak resident memory of the run",
    }
    lines = [f"bench {m.workload.name}: {n_pass} passes, {len(m.setup_s)} set-ups, "
             f"trace {'on' if m.tracer else 'off'}; speed factor {m.scale:.3f} "
             f"from {len(m.probes)} probes (times are scaled by it)"]
    for name, unit in REPORT:
        value = e2e[name]
        if value is None:
            lines.append(f"  {name:<18} n/a  (not run by this workload)")
        else:
            how = (f"median of {len(m.setup_s)} set-ups" if name == "setup_s"
                   else f"median of {n_pass} passes")
            note = notes.get(name) or f"{how}, {_fmt(raw[name])} {unit} unscaled"
            lines.append(f"  {name:<18} {_fmt(value)} {unit}  ({note})")
    first = m.passes[0].solves
    lines.append("  solves of the first pass: " + ", ".join(
        f"{r.label} {r.seconds:.3f} s"
        + (f" {r.iterations} it {r.termination}" if r.iterations is not None else "")
        for r in first))
    for r in failed[:10]:
        lines.append(f"  FAILED {r.label}: {'; '.join(r.failures)}")
    if layers is not None:
        lines.append("  per-layer (traced pass):")
        lines.extend(f"    {name:<32} {_fmt(layers[name])} {unit}" for name, unit in PER_LAYER)
        if m.tracer.unwrapped:
            lines.append("  boundaries not wrapped: " + ", ".join(m.tracer.unwrapped))
    return lines


def result_line(m, e2e, layers):
    """The final JSON object: exactly correct, attempted, failed, metrics."""
    solves = _all_solves(m)
    failed = sum(1 for r in solves if r.failures)
    if layers is None:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    else:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    return {"correct": failed == 0, "attempted": len(solves), "failed": failed,
            "metrics": metrics}


def write_record(args, env, m, e2e, layers, result):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "env": env, "result": result, "report_metrics": e2e, "layer_metrics": layers,
        "scale": m.scale, "setup_raw_s": m.setup_s,
        "pass_raw_s": [p.wall for p in m.passes],
        "pass_probe_s": [p.probes for p in m.passes], "setup_probe_s": m.setup_probes,
        "solves": [{"label": r.label, "solver": r.solver, "seconds": r.seconds,
                    "iterations": r.iterations, "termination": r.termination,
                    "failures": r.failures}
                   for r in _all_solves(m)],
        "unwrapped": m.tracer.unwrapped if m.tracer else None,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if m.tracer is not None:
        m.tracer.save(stem + "-spans.npz")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ot", "enet", "entropic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not use_checkout_sources():
        print(f"bench: no gcgs sources under {SRC}", file=sys.stderr)
        return 2
    import workloads

    m = measure(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                bool(args.trace))
    e2e = report_metrics(m)
    layers = layer_report(m, e2e) if args.trace else None
    env = environment(args)
    result = result_line(m, e2e, layers)
    write_record(args, env, m, e2e, layers, result)
    for line in human_report(m, e2e, layers):
        print(line)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
