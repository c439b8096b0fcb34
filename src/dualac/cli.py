"""Command-line interface: train, ablation, oracle-check.

Config files are JSON objects mirroring DualAcConfig field names; the tabular
environments' tuning in full reads::

    {"k": 10, "eta_v": 1.0, "eta_alpha": 1.0, "eta_mu": 0.5,
     "schedule": {"c": 0.5, "n0": 1.0, "beta": 0.5},
     "inner_v": {"stepsize": 0.2, "max_iters": 80, "grad_tol": 1e-4},
     "batch_m": 24, "iterations": 300, "seed": 0,
     "ablation": "full", "normalize_grad": false}

A file holds overrides: the fields it leaves out, nested ones included, keep
the tuning of the environment's family (default_config).  A config file with
an unknown field, a value of the wrong type or a bad value is rejected with
exit status 2.

MDP text files (for `--env mdp:<path>` and `oracle-check --mdp-file`) are
JSON with fields n_states, n_actions, gamma, reward [S][A],
transition [S][A][S], and mu [S].

Metrics stream as line-delimited JSON, one IterationRecord per line; the
process exits nonzero if an iteration fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .driver import ABLATIONS, DualAcConfig, IterationError, ablation_suite, run_experiment
from .envs import make_env
from .mdp import (
    bellman_optimality_operator,
    duality_gap,
    greedy_policy,
    load_mdp,
    occupancy_flow_residual,
    occupancy_from_policy,
    policy_from_occupancy,
    value_iteration,
)

# The pendulum's tuning, where it differs from the tabular one of DualAcConfig's defaults
PENDULUM = dict(
    k=50,
    eta_alpha=100.0,
    eta_mu=0.1,
    schedule=dict(c=21.5, n0=85.0, beta=1.0),
    batch_m=52,
    inner_v=dict(stepsize=0.005, max_iters=200, grad_tol=1.0),
    normalize_grad=True,
)


def default_config(env_name: str) -> DualAcConfig:
    """Tuned defaults per environment family.

    Tabular runs take the unnormalized natural-gradient prox step
    theta + zeta F^-1 g; the pendulum's schedule was tuned for the step
    rescaled by 1/sqrt(g . F^-1 g), so it sets normalize_grad.
    """
    return DualAcConfig.from_dict(PENDULUM) if env_name == "pendulum" else DualAcConfig()


def _load_config(args) -> DualAcConfig:
    cfg = default_config(args.env)
    if args.config:
        with open(args.config) as fh:
            cfg = DualAcConfig.from_dict(json.load(fh), base=cfg)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "iterations", None) is not None:
        overrides["iterations"] = args.iterations
    if getattr(args, "ablation", None):
        overrides["ablation"] = args.ablation
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _positive_float(text: str) -> float:
    """An argparse type: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _seed_list(text: str) -> list[int]:
    """An argparse type: comma-separated non-negative integer seeds, at least two."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be >= 0, got {text!r}")
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"needs at least 2 seeds, got {text!r}")
    return seeds


def _load_env(args):
    """The environment a command runs on; oracle-check reads its tabular MDP."""
    if args.func is not _cmd_oracle_check:
        return make_env(args.env)
    return load_mdp(args.mdp_file) if args.mdp_file else make_env(args.env).as_tabular()


def _cmd_train(args) -> int:
    sink = None
    if not args.quiet:
        sink = lambda rec: print(rec.to_json_line())
    try:
        run_experiment(args.cfg, args.model, out_dir=args.out, record_sink=sink)
    except IterationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def _cmd_ablation(args) -> int:
    try:
        result = ablation_suite(args.cfg, args.model, args.seeds)
    except IterationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for row in result["rows"]:
        print(json.dumps(row))
    for variant, stats in result["summary"].items():
        print(f"{variant}: {stats['mean']:.2f} +/- {stats['half_width']:.2f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "ablation.json"), "w") as fh:
            json.dump(result, fh, indent=2)
    return 0


def _cmd_oracle_check(args) -> int:
    """Validate the LP-duality identities on a tabular environment or MDP file."""
    mdp, tol = args.model, args.tol
    v_star = value_iteration(mdp, tol=min(tol * 1e-3, 1e-9))
    pi_star = greedy_policy(mdp, v_star)
    rho = occupancy_from_policy(mdp, pi_star)
    residuals = [
        ("fixed-point residual", float(np.max(np.abs(bellman_optimality_operator(mdp, v_star) - v_star)))),
        ("occupancy normalization", abs(rho.sum() - 1.0)),
        ("flow constraint residual", occupancy_flow_residual(mdp, rho)),
        ("strong duality gap", abs(duality_gap(mdp, v_star, rho))),
    ]
    checks = [(name, value <= tol, value) for name, value in residuals]
    recovered = policy_from_occupancy(rho)
    support = rho.sum(axis=1) > 1e-12
    policy_ok = bool(np.allclose(recovered[support], pi_star[support], atol=tol))
    checks.append(("policy recovery from occupancy", policy_ok, 0.0 if policy_ok else 1.0))
    failed = 0
    for name, ok, value in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({value:.3e})")
        failed += 0 if ok else 1
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dualac", description="Dual actor-critic training and oracle checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment")
    p_train.add_argument("--env", required=True, help="chain2 | chain5 | gridworld | pendulum | mdp:<path>")
    p_train.add_argument("--config", help="JSON file of DualAcConfig fields overriding the environment's tuning")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--iterations", type=int, default=None)
    p_train.add_argument("--ablation", choices=ABLATIONS)
    p_train.add_argument("--out", help="output directory for records.jsonl and checkpoint.json")
    p_train.add_argument("--quiet", action="store_true", help="suppress per-iteration records on stdout")
    p_train.set_defaults(func=_cmd_train)

    p_abl = sub.add_parser("ablation", help="run the ablation variant comparison")
    p_abl.add_argument("--env", required=True)
    p_abl.add_argument("--config", help="JSON file of DualAcConfig fields overriding the base (full) variant's tuning")
    p_abl.add_argument("--seeds", type=_seed_list, default="0,1", help="comma-separated seed list, at least two")
    p_abl.add_argument("--iterations", type=int, default=None)
    p_abl.add_argument("--out", help="output directory for ablation.json")
    p_abl.set_defaults(func=_cmd_ablation)

    p_oracle = sub.add_parser("oracle-check", help="verify LP-duality identities on a tabular MDP")
    p_oracle.add_argument("--env", default="gridworld")
    p_oracle.add_argument("--mdp-file", help="JSON MDP file (overrides --env)")
    p_oracle.add_argument("--tol", type=_positive_float, default=1e-6)
    p_oracle.set_defaults(func=_cmd_oracle_check)

    args = parser.parse_args(argv)
    if args.func in (_cmd_train, _cmd_ablation):
        try:
            args.cfg = _load_config(args)
        except (OSError, ValueError) as err:  # a missing or malformed file, unknown fields, bad values
            print(f"error: bad config: {err}", file=sys.stderr)
            return 2
    try:
        args.model = _load_env(args)
    except (KeyError, OSError, TypeError, ValueError, NotImplementedError) as err:
        # an unknown name (a KeyError, whose str() quotes the message), a
        # missing or malformed MDP file, or an environment with no MDP
        print(f"error: bad environment: {err.args[0] if isinstance(err, KeyError) else err}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
