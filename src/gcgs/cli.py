# -*- coding: utf-8 -*-
"""
Command-line front end for the two experiment families.

``gcgs ot`` builds a synthetic cluster-to-cluster transport problem and
solves it with conditional gradient splitting or the classic
conditional gradient; ``gcgs enet`` builds (or loads) a binary
classification dataset and solves the L1-constrained elastic-net with
cgs, cg, spg or pg. Both write a per-iteration CSV trace and a JSON
summary echoing the effective configuration.

Exit status: 0 when the run terminated on its convergence rule
(``gap_tol`` or ``fp_residual``); runs ending at the iteration cap,
stalled or on a negative raw gap (``negative_gap``) exit 0 unless
``--strict`` is given, in which case they exit 1.
Configuration errors exit 2.
"""

import argparse
import json
import sys

import numpy as np

from . import elasticnet as en
from . import transport as tr
from .solver import STEP_RULES, SolverConfig, check_fixed_point, solve

# Every option of each experiment, declared once as
# ``key: (default, type, choices)``. The command-line flag ``--key``
# (underscores as dashes) and the check of ``--config`` JSON values are
# both derived from these tables; a None default also accepts JSON null.
OPTIONS = {
    "ot": {
        "solver": ("cgs", str, ("cgs", "cg")),
        "step": ("exact", str, STEP_RULES),
        "seed": (0, int, None),
        "ns": (100, int, None),
        "nt": (100, int, None),
        "n_clusters": (3, int, None),
        "noise": (0.05, float, None),
        "k_neighbors": (10, int, None),
        "lambda_ent": (1.7e-2, float, None),
        "lambda_lap": (1e3, float, None),
        "sinkhorn_tol": (1e-5, float, None),
        "gap_tol": (None, float, None),  # None: 1e-6 relative to the initial gap
        "max_iter": (200, int, None),
        "strict": (False, bool, None),
    },
    "enet": {
        "solver": ("cgs", str, ("cgs", "cg", "spg", "pg")),
        "step": ("exact", str, STEP_RULES),
        "seed": (0, int, None),
        "n_samples": (200, int, None),
        "n_features": (100, int, None),
        "n_informative": (10, int, None),
        "loss": ("squared", str, en.LOSSES),
        "lam": (1.0, float, None),
        "tau": (2.0, float, None),
        "data": (None, str, None),
        "label_column": ("label", str, None),
        "residual_tol": (1e-5, float, None),
        "gap_tol": (0.0, float, None),
        "max_iter": (10000, int, None),
        "strict": (False, bool, None),
    },
}

_HELP = {
    "data": "CSV dataset instead of the toy generator",
    "strict": "exit nonzero when the iteration cap is reached before convergence",
}


class ConfigError(ValueError):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gcgs",
        description="Conditional gradient splitting experiment runner.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, title in (("ot", "regularized optimal transport"),
                              ("enet", "L1-constrained elastic-net")):
        p = sub.add_parser(experiment, help=title)
        for key, (_, kind, choices) in OPTIONS[experiment].items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True,
                               help=_HELP.get(key))
            else:
                p.add_argument(flag, type=kind, choices=choices,
                               help=_HELP.get(key))
        p.add_argument("--config", help="JSON file with config values "
                       "(flags take precedence)")
        p.add_argument("--out", required=True, help="trace CSV path")
        p.add_argument("--summary", required=True, help="summary JSON path")
    return parser


def _json_value(source, key, value, spec):
    """A config-file value checked against its option's type and choices."""
    default, kind, choices = spec
    if value is None and default is None:
        return None
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{source}: {key!r} is an integer beyond the "
                              "float range") from None
    if type(value) is not kind:  # bool is not accepted as int
        raise ConfigError(f"{source}: {key!r} must be of type {kind.__name__}, "
                          f"got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{source}: {key!r} must be one of "
                          f"{', '.join(choices)}, got {value!r}")
    return value


def parse_config(argv):
    """Resolve the effective run configuration.

    Precedence: command-line flags > JSON config file > defaults.
    Unknown JSON keys and values of the wrong type or outside the
    option's choices are rejected.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    options = OPTIONS[args.experiment]
    config = {key: spec[0] for key, spec in options.items()}

    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: top level must be an object")
        for key, value in file_cfg.items():
            if key not in options:
                raise ConfigError(f"{args.config}: unknown key {key!r}")
            config[key] = _json_value(args.config, key, value, options[key])

    for key in options:
        value = getattr(args, key)
        if value is not None:
            config[key] = value

    config["experiment"] = args.experiment
    config["out"] = args.out
    config["summary"] = args.summary
    return config


def _write_trace(path, trace, residual_name):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,elapsed_s,objective,surrogate_gap,step_alpha,"
                 f"{residual_name}\n")
        for rec in trace:
            res = rec.extra_residual
            fh.write(f"{rec.k},{float(rec.elapsed_s)!r},{float(rec.objective)!r},"
                     f"{float(rec.surrogate_gap)!r},{float(rec.alpha)!r},"
                     f"{'' if res is None else repr(float(res))}\n")


def _write_summary(path, config, result):
    last = result.trace[-1]
    summary = {
        "config": {k: v for k, v in config.items()},
        "final_objective": last.objective,
        "final_gap": last.surrogate_gap,
        "final_residual": last.extra_residual,
        "iterations": last.k,
        "termination": result.termination,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _exit_status(termination, strict):
    if termination in ("gap_tol", "fp_residual"):
        return 0
    return 1 if strict else 0


def run_ot(config):
    """Build and solve one transport instance; write trace and summary."""
    Xs, Xt, mu_s, mu_t = tr.make_cluster_data(
        config["ns"], config["nt"], n_clusters=config["n_clusters"],
        noise=config["noise"], seed=config["seed"])
    cost = tr.squared_distances(Xs, Xt)
    kwargs = {}
    if config["lambda_lap"] > 0:
        k = config["k_neighbors"]
        kwargs = dict(lap_s=tr.knn_laplacian(Xs, k), lap_t=tr.knn_laplacian(Xt, k),
                      Xs=Xs, Xt=Xt)
    problem = tr.TransportProblem(
        cost, mu_s, mu_t, lambda_ent=config["lambda_ent"],
        lambda_lap=config["lambda_lap"], **kwargs)

    stol = config["sinkhorn_tol"]
    # built first: ot_split checks the tolerance, which the start point
    # also uses, under its option name
    split = tr.ot_split(problem, sinkhorn_tol=stol,
                        sinkhorn_max_iter=50000, warm_start=True)
    if config["solver"] == "cg":
        split = tr.ot_cg_split(problem)
    x0 = tr.sinkhorn(cost, mu_s, mu_t, problem.lambda_ent,
                     tol=stol, max_iter=50000)

    gap_tol = config["gap_tol"]
    if gap_tol is None:
        gap0, _ = check_fixed_point(split, x0)
        gap_tol = 1e-6 * max(gap0, 0.0)
    cfg = SolverConfig(step_rule=config["step"], max_iter=config["max_iter"],
                       gap_tol=gap_tol)
    result = solve(split, x0, cfg)
    config = dict(config, gap_tol=gap_tol)
    _write_trace(config["out"], result.trace, "marginal_violation")
    _write_summary(config["summary"], config, result)
    return _exit_status(result.termination, config["strict"])


def run_enet(config):
    """Build and solve one elastic-net instance; write trace and summary."""
    if config["data"] is not None:
        dataset = en.load_csv_dataset(config["data"], config["label_column"])
    else:
        dataset = en.make_toy_classification(
            config["n_samples"], config["n_features"],
            config["n_informative"], seed=config["seed"])
    problem = en.problem_from_dataset(dataset, config["loss"],
                                      config["lam"], config["tau"])
    x0 = np.zeros(problem.Z.shape[1])
    cfg = SolverConfig(step_rule=config["step"], max_iter=config["max_iter"],
                       gap_tol=config["gap_tol"],
                       residual_tol=config["residual_tol"])
    solver = config["solver"]
    if solver == "cgs":
        result = solve(en.en_split(problem), x0, cfg)
    elif solver == "cg":
        result = solve(en.en_cg_split(problem), x0, cfg)
    elif solver == "spg":
        result = en.spg_solve(problem, x0, cfg)
    else:
        result = en.pg_solve(problem, x0, cfg)
    if solver in ("spg", "pg"):
        # a direction policy always steps by Armijo
        config = dict(config, step="armijo")
    _write_trace(config["out"], result.trace, "fp_residual")
    _write_summary(config["summary"], config, result)
    return _exit_status(result.termination, config["strict"])


def main(argv=None):
    try:
        config = parse_config(argv)
    except ConfigError as err:
        print(f"gcgs: {err}", file=sys.stderr)
        return 2
    try:
        if config["experiment"] == "ot":
            return run_ot(config)
        return run_enet(config)
    except ValueError as err:  # includes ConfigError
        print(f"gcgs: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:  # solver/oracle failures
        print(f"gcgs: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
