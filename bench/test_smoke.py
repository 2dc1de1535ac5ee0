"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

assert run.use_checkout_sources(), "the benchmark needs src/gcgs in this checkout"

import spans  # noqa: E402
import workloads  # noqa: E402
from gcgs import transport as tr  # noqa: E402

TINY = {
    # a weaker Laplacian term keeps the tiny Sinkhorn subproblems cheap
    "ot": lambda: workloads.OT(n=12, k_neighbors=3, lambda_ent=0.05, lambda_lap=10.0,
                               rel_gap=1e-3, caps=(("cgs", 5), ("cg", 5))),
    "enet": lambda: workloads.ENet(n_samples=30, n_features=8, n_informative=3,
                                   max_iter=300),
    "entropic": lambda: workloads.Entropic(sizes=(10, 15), lambdas=(1e-1, 3e-2)),
}


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _outputs(workload, trace):
    m = run.measure(workload, seed=3, seconds=0.01, trace=trace)
    e2e = run.report_metrics(m)
    layers = run.layer_report(m, e2e) if trace else None
    return m, e2e, layers, run.human_report(m, e2e, layers), run.result_line(m, e2e, layers)


def test_metric_lists_match_benchmark_json():
    spec = _benchmark_json()
    assert [(x["name"], x["unit"]) for x in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(x["name"], x["unit"]) for x in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace):
    m, e2e, layers, lines, result = _outputs(TINY[name](), trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [n for n, _ in expected]
    for metric, unit in expected:
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float)) and np.isfinite(entry["value"])
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n, _ in run.END_TO_END)
    text = "\n".join(lines)
    for metric, unit in run.REPORT:
        line = next(ln for ln in lines if ln.split()[:1] == [metric])
        assert f" {unit} " in line or "n/a" in line, line
    ran = {r.solver for r in m.passes[0].solves}
    for solver in run.SOLVERS + ("sinkhorn",):
        assert (e2e[f"solve_s.{solver}"] is None) == (solver not in ran)
    if trace:
        assert "per-layer (traced pass):" in text
        assert layers["bench.unwrapped_boundaries"] == 0
        assert json.loads(json.dumps(result)) == result


def test_traced_counts_follow_the_solves():
    m, e2e, layers, _, _ = _outputs(TINY["ot"](), True)
    traced = m.traced.solves
    assert layers["solver.iters.cgs"] == next(r.iterations for r in traced if r.solver == "cgs")
    # one LMO call per cg iterate, plus the cold one for gap0 in the traced set-up
    cg = next(r for r in traced if r.solver == "cg")
    assert layers["transport.lmo_calls"] == cg.records + 1
    assert layers["transport.sinkhorn_calls"] >= 2


def _corrupt(plan):
    bad = plan.copy()
    bad[0, :] += 1e-3 / bad.shape[1]  # row 0 now carries 1e-3 too much mass
    return bad


def test_corrupted_plan_trips_the_feasibility_gate():
    Xs, Xt, mu_s, mu_t = tr.make_cluster_data(10, 10, seed=0)
    plan = tr.sinkhorn(tr.squared_distances(Xs, Xt), mu_s, mu_t, 0.1, tol=1e-9)
    good = workloads.Solve("sinkhorn", "good")
    workloads.check_plan(good, plan, mu_s, mu_t, 1e-5)
    assert good.failures == []
    bad = workloads.Solve("sinkhorn", "bad")
    workloads.check_plan(bad, _corrupt(plan), mu_s, mu_t, 1e-5)
    assert bad.failures and bad.feasibility == pytest.approx(1e-3, rel=1e-3)


def test_corrupted_solver_output_fails_the_run(monkeypatch):
    real = tr.sinkhorn
    monkeypatch.setattr(tr, "sinkhorn", lambda *a, **k: _corrupt(real(*a, **k)))
    _, e2e, _, lines, result = _outputs(TINY["entropic"](), False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert e2e["error_rate"] == 1.0 and e2e["feasibility_err"] >= 1e-3 * (1 - 1e-6)
    assert any(ln.strip().startswith("FAILED") for ln in lines)


def test_missing_boundaries_are_listed_not_fatal():
    boundaries = spans.BOUNDARIES + ("gcgs.solver:no_such_step", "gcgs.no_such_module:f")
    with spans.Tracer(boundaries) as tracer:
        obj = tracer.split(workloads.en.en_split(workloads.en.ElasticNetProblem(
            Z=np.eye(3), y=np.ones(3), tau=1.0)))
        with tracer.solve("cgs"):
            workloads.gs.solve(obj, np.zeros(3), workloads.gs.SolverConfig(max_iter=3))
    assert tracer.unwrapped == ["gcgs.solver:no_such_step", "gcgs.no_such_module:f"]
    assert "split.partial_oracle" in tracer.names
    # the originals are back once the tracer is uninstalled
    assert not hasattr(workloads.gs.step_exact, "__wrapped__")


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ot", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
