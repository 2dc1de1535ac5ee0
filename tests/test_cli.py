"""End-to-end tests of the ``gcgs`` command-line runner.

Runs ``main()`` in-process on small instances and checks the trace CSV
schema, the JSON summary, configuration precedence and exit codes.
"""

import csv
import json

import numpy as np
import pytest

from gcgs.cli import main, parse_config, ConfigError
from gcgs.elasticnet import make_toy_classification
from test_elasticnet import save_csv_dataset


def _ot_args(tmp_path, *extra):
    return [
        "ot", "--ns", "12", "--nt", "12", "--n-clusters", "3",
        "--k-neighbors", "3", "--lambda-ent", "0.5", "--lambda-lap", "1.0",
        "--sinkhorn-tol", "1e-8", "--max-iter", "30",
        "--out", str(tmp_path / "trace.csv"),
        "--summary", str(tmp_path / "summary.json"),
    ] + list(extra)


def _enet_args(tmp_path, *extra):
    return [
        "enet", "--n-samples", "40", "--n-features", "12",
        "--n-informative", "4", "--lam", "1.0", "--tau", "2.0",
        "--residual-tol", "1e-5",
        "--out", str(tmp_path / "trace.csv"),
        "--summary", str(tmp_path / "summary.json"),
    ] + list(extra)


def _read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


class TestOtRuns:
    def test_writes_trace_and_summary(self, tmp_path):
        assert main(_ot_args(tmp_path)) == 0
        rows = _read_trace(tmp_path / "trace.csv")
        assert list(rows[0]) == ["iter", "elapsed_s", "objective",
                                 "surrogate_gap", "step_alpha",
                                 "marginal_violation"]
        iters = [int(r["iter"]) for r in rows]
        assert iters == list(range(len(rows)))
        gaps = [float(r["surrogate_gap"]) for r in rows]
        objs = [float(r["objective"]) for r in rows]
        assert all(g >= 0.0 for g in gaps)
        assert all(np.isfinite(o) for o in objs)
        elapsed = [float(r["elapsed_s"]) for r in rows]
        assert elapsed == sorted(elapsed)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["ns"] == 12
        assert summary["config"]["lambda_ent"] == 0.5
        assert summary["final_objective"] == objs[-1]
        assert summary["iterations"] == iters[-1]
        assert summary["termination"] in ("gap_tol", "max_iter")

    def test_default_gap_tol_is_resolved_in_summary(self, tmp_path):
        assert main(_ot_args(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        gap_tol = summary["config"]["gap_tol"]
        assert isinstance(gap_tol, float) and gap_tol > 0.0

    def test_explicit_gap_tol_is_echoed(self, tmp_path):
        assert main(_ot_args(tmp_path, "--gap-tol", "1e-3")) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["gap_tol"] == 1e-3

    def test_cg_solver_runs(self, tmp_path):
        assert main(_ot_args(tmp_path, "--solver", "cg",
                             "--step", "armijo", "--max-iter", "10")) == 0
        rows = _read_trace(tmp_path / "trace.csv")
        assert all(r["marginal_violation"] != "" for r in rows)

    def test_cg_solver_runs_the_simplex_on_non_square_data(self, tmp_path, monkeypatch):
        # ns != nt keeps the LMO off the assignment path
        import gcgs.transport
        simplex = []
        monkeypatch.setattr(gcgs.transport, "_transport_simplex",
                            lambda *args, _fn=gcgs.transport._transport_simplex:
                            simplex.append(1) or _fn(*args))
        assert main(_ot_args(tmp_path, "--solver", "cg", "--nt", "9",
                             "--k-neighbors", "4")) == 0
        assert simplex
        rows = _read_trace(tmp_path / "trace.csv")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["nt"] == 9
        assert [int(r["iter"]) for r in rows] == list(range(summary["iterations"] + 1))
        # iterates mix the Sinkhorn start with exact vertices
        assert float(rows[-1]["marginal_violation"]) <= summary["config"]["sinkhorn_tol"]

    def test_rejects_enet_only_solvers(self, tmp_path):
        # by flag: argparse restricts the choices itself
        with pytest.raises(SystemExit) as info:
            main(_ot_args(tmp_path, "--solver", "spg"))
        assert info.value.code == 2
        # by config file: rejected after parsing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": "spg"}))
        assert main(_ot_args(tmp_path, "--config", str(cfg))) == 2


class TestEnetRuns:
    @pytest.mark.parametrize("solver", ["cgs", "spg", "pg"])
    def test_solvers_converge_on_toy_data(self, tmp_path, solver):
        assert main(_enet_args(tmp_path, "--solver", solver)) == 0
        rows = _read_trace(tmp_path / "trace.csv")
        assert list(rows[0])[-1] == "fp_residual"
        assert float(rows[-1]["fp_residual"]) <= 1e-5
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["termination"] == "fp_residual"
        assert summary["config"]["solver"] == solver

    def test_cg_solver_runs_to_cap(self, tmp_path):
        assert main(_enet_args(tmp_path, "--solver", "cg",
                               "--max-iter", "50")) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["solver"] == "cg"

    def test_loads_csv_dataset(self, tmp_path):
        data = tmp_path / "data.csv"
        save_csv_dataset(data, make_toy_classification(40, 12, 4, seed=1),
                         label_column="target")
        assert main(_enet_args(tmp_path, "--data", str(data),
                               "--label-column", "target")) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["data"] == str(data)
        assert summary["termination"] == "fp_residual"

    def test_malformed_dataset_exits_2(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("f0,label\n1.0,oops\n2.0,1.0\n")
        assert main(_enet_args(tmp_path, "--data", str(data))) == 2

    def test_label_only_dataset_names_missing_features(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("label\n1\n-1\n1\n-1\n1\n")
        assert main(_enet_args(tmp_path, "--data", str(data))) == 2
        assert "no feature column" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["spg", "pg"])
    @pytest.mark.parametrize("step", ["exact", "fixed"])
    def test_projection_solvers_echo_armijo_step(self, tmp_path, solver, step):
        # a direction policy steps by Armijo whatever --step says
        traces = []
        for rule in (step, "armijo"):
            assert main(_enet_args(tmp_path, "--solver", solver,
                                   "--step", rule)) == 0
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert summary["config"]["step"] == "armijo"
            traces.append([dict(r, elapsed_s=None)
                           for r in _read_trace(tmp_path / "trace.csv")])
        assert traces[0] == traces[1]


class TestConfigPrecedence:
    def test_flags_beat_json_beats_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 0.5, "tau": 3.0}))
        # --lam on the command line, tau only in the file, loss nowhere
        args = [
            "enet", "--n-samples", "40", "--n-features", "12",
            "--lam", "2.0", "--config", str(cfg),
            "--out", str(tmp_path / "trace.csv"),
            "--summary", str(tmp_path / "summary.json"),
        ]
        assert main(args) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["lam"] == 2.0   # flag wins
        assert summary["config"]["tau"] == 3.0   # json beats default
        assert summary["config"]["loss"] == "squared"  # default survives

    def test_unknown_json_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 1.0}))
        assert main(_enet_args(tmp_path, "--config", str(cfg))) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(_enet_args(tmp_path, "--config",
                               str(tmp_path / "nope.json"))) == 2

    def test_non_object_json_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(_enet_args(tmp_path, "--config", str(cfg))) == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(_enet_args(tmp_path, "--bogus", "1"))
        assert info.value.code == 2

    @pytest.mark.parametrize("experiment, key, value", [
        ("enet", "max_iter", 2.5),
        ("enet", "max_iter", True),
        ("enet", "lam", "1.0"),
        ("enet", "loss", "hinge"),
        ("enet", "strict", 1),
        ("enet", "gap_tol", None),
        ("ot", "ns", "12"),
        ("ot", "step", "newton"),
        ("ot", "sinkhorn_tol", [1e-8]),
    ])
    def test_wrong_type_or_choice_in_json_exits_2(self, tmp_path, capsys,
                                                    experiment, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args = _ot_args if experiment == "ot" else _enet_args
        assert main(args(tmp_path, "--config", str(cfg))) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key", [("enet", "lam"), ("ot", "noise")])
    def test_int_beyond_the_float_range_in_json_exits_2(self, tmp_path, capsys,
                                                        experiment, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"%s": 1%s}' % (key, "0" * 400))
        args = _ot_args if experiment == "ot" else _enet_args
        assert main(args(tmp_path, "--config", str(cfg))) == 2
        err = capsys.readouterr().err
        assert err.startswith("gcgs: ") and repr(key) in err

    def test_json_ints_for_floats_and_null_for_unset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gap_tol": 1, "data": None}))
        config = parse_config(_enet_args(tmp_path, "--config", str(cfg)))
        assert config["gap_tol"] == 1.0 and type(config["gap_tol"]) is float
        assert config["data"] is None
        cfg.write_text(json.dumps({"gap_tol": None, "noise": 0}))
        config = parse_config(_ot_args(tmp_path, "--config", str(cfg)))
        assert config["gap_tol"] is None and type(config["noise"]) is float

    def test_parse_config_resolves_defaults(self, tmp_path):
        config = parse_config(_enet_args(tmp_path))
        assert config["loss"] == "squared"
        assert config["lam"] == 1.0
        assert config["experiment"] == "enet"


class TestExitCodes:
    def test_cap_without_strict_exits_0(self, tmp_path):
        assert main(_enet_args(tmp_path, "--max-iter", "3")) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["termination"] == "max_iter"

    def test_cap_with_strict_exits_1(self, tmp_path):
        assert main(_enet_args(tmp_path, "--max-iter", "3", "--strict")) == 1

    def test_negative_gap_exits_like_a_cap(self, tmp_path):
        # the inexact Sinkhorn oracle's raw gap turns negative at iteration 3
        args = ["ot", "--ns", "20", "--nt", "20", "--k-neighbors", "3",
                "--lambda-ent", "0.05", "--lambda-lap", "1",
                "--sinkhorn-tol", "1e-9", "--step", "armijo",
                "--max-iter", "3", "--gap-tol", "0",
                "--out", str(tmp_path / "trace.csv"),
                "--summary", str(tmp_path / "summary.json")]
        assert main(args) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["termination"] == "negative_gap"
        assert summary["iterations"] == 3 and summary["final_gap"] == 0.0
        assert main(args + ["--strict"]) == 1

    def test_nan_or_negative_tolerance_exits_2(self, tmp_path, capsys):
        assert main(_ot_args(tmp_path, "--gap-tol", "nan")) == 2
        assert "gap_tol" in capsys.readouterr().err
        assert main(_enet_args(tmp_path, "--residual-tol", "-1")) == 2
        assert "residual_tol" in capsys.readouterr().err
        # an infinite tolerance would stop at iteration 0 and write
        # Infinity, which is not JSON, into the summary
        assert main(_enet_args(tmp_path, "--gap-tol", "inf")) == 2
        assert "gap_tol must be finite" in capsys.readouterr().err
        assert main(_enet_args(tmp_path, "--residual-tol", "inf")) == 2
        assert "residual_tol must be finite" in capsys.readouterr().err
        assert main(_ot_args(tmp_path, "--gap-tol", "inf")) == 2
        assert "gap_tol must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args,name", [
        (("enet", "--tau", "nan"), "tau"), (("enet", "--tau", "inf"), "tau"),
        (("enet", "--lam", "nan"), "lam"), (("enet", "--lam", "-1"), "lam"),
        (("ot", "--lambda-lap", "nan"), "lambda_lap"),
        (("ot", "--lambda-ent", "inf"), "lambda_ent"),
        # a NaN Sinkhorn tolerance would burn the sweep cap, and an
        # infinite one would accept the first, infeasible plan
        (("ot", "--sinkhorn-tol", "nan"), "sinkhorn_tol"),
        (("ot", "--sinkhorn-tol", "inf"), "sinkhorn_tol"),
        (("ot", "--noise", "nan"), "noise"),
        (("ot", "--sinkhorn-tol", "0"), "sinkhorn_tol"),
        (("ot", "--solver", "cg", "--sinkhorn-tol", "nan"), "sinkhorn_tol"),
    ])
    def test_non_finite_or_out_of_range_weights_exit_2(self, tmp_path, capsys,
                                                        args, name):
        build = _enet_args if args[0] == "enet" else _ot_args
        assert main(build(tmp_path, *args[1:])) == 2
        err = capsys.readouterr().err
        assert f"gcgs: {name} must be finite" in err

    def test_bad_sinkhorn_tol_exits_before_any_sinkhorn_call(self, tmp_path,
                                                             capsys, monkeypatch):
        # the split is built first, so the start point's Sinkhorn never
        # runs on a tolerance that ot_split rejects
        import gcgs.transport
        calls = []
        monkeypatch.setattr(gcgs.transport, "sinkhorn",
                            lambda *args, **kwargs: calls.append(1))
        assert main(_ot_args(tmp_path, "--sinkhorn-tol", "nan")) == 2
        assert "gcgs: sinkhorn_tol must be finite" in capsys.readouterr().err
        assert not calls

    def test_oracle_failure_exits_1_without_a_traceback(self, tmp_path, capsys):
        # no Sinkhorn sweep reaches a marginal violation of 1e-300
        args = ["ot", "--ns", "6", "--nt", "6", "--n-clusters", "2",
                "--k-neighbors", "2", "--sinkhorn-tol", "1e-300",
                "--out", str(tmp_path / "trace.csv"),
                "--summary", str(tmp_path / "summary.json")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("gcgs: ") and "did not converge" in err
        assert "Traceback" not in err

    def test_strict_from_json_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strict": True, "max_iter": 3}))
        assert main(_enet_args(tmp_path, "--config", str(cfg))) == 1


class TestDeterminism:
    def _run(self, tmp_path, tag):
        out = tmp_path / f"trace_{tag}.csv"
        summ = tmp_path / f"summary_{tag}.json"
        args = [
            "enet", "--n-samples", "40", "--n-features", "12",
            "--n-informative", "4", "--seed", "7",
            "--residual-tol", "1e-5",
            "--out", str(out), "--summary", str(summ),
        ]
        assert main(args) == 0
        return out, summ

    def test_repeat_runs_identical_apart_from_timings(self, tmp_path):
        out1, summ1 = self._run(tmp_path, "a")
        out2, summ2 = self._run(tmp_path, "b")

        def strip_elapsed(path):
            lines = path.read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            return [[f for i, f in enumerate(r) if i != 1] for r in rows]

        assert strip_elapsed(out1) == strip_elapsed(out2)

        def summary_without_paths(path):
            s = json.loads(path.read_text())
            s["config"].pop("out")
            s["config"].pop("summary")
            return s

        assert summary_without_paths(summ1) == summary_without_paths(summ2)

    def test_different_seeds_differ(self, tmp_path):
        # the iteration-0 objective is 0.5 * ||y||^2 = n/2 for every
        # seed (labels are +-1), so compare converged quantities instead
        _, summ1 = self._run(tmp_path, "a")
        args = _enet_args(tmp_path, "--seed", "8")
        assert main(args) == 0
        final1 = json.loads(summ1.read_text())["final_objective"]
        final2 = json.loads(
            (tmp_path / "summary.json").read_text())["final_objective"]
        assert final1 != final2
