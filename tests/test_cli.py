import argparse
import json
import math

import numpy as np
import pytest

from dualac import cli
from dualac.driver import DualAcConfig
from dualac.envs import make_env
from dualac.mdp import random_mdp, save_mdp


def _config_file(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("command", ["train", "ablation"])
@pytest.mark.parametrize(
    "payload,message",
    [
        ({"eta_mu": 2.0}, "eta_mu must lie in (0, 1]"),
        ({"feature_seed": 0, "n_rbf_features": 100}, "unknown config fields: feature_seed, n_rbf_features"),
        ({"inner_v": {"max_iters": 5, "min_log_std": -1.0}}, "unknown config fields: inner_v.min_log_std"),
        ({"k": "ten"}, "config field k must be int, got 'ten'"),
        ({"schedule": None}, "config field schedule must be an object, got None"),
        ({"batch_m": 2.5}, "config field batch_m must be int, got 2.5"),
        ({"inner_v": {"max_iters": "80"}}, "config field inner_v.max_iters must be int, got '80'"),
        ({"inner_v": {"max_iters": 0}}, "need inner_v stepsize > 0, max_iters >= 1 and grad_tol >= 0"),
        ({"inner_v": {"stepsize": -1}}, "need inner_v stepsize > 0, max_iters >= 1 and grad_tol >= 0"),
        ({"gamma": 1.5}, "gamma must lie in (0, 1)"),
        ({"horizon": 0}, "horizon must be >= 1"),
        ({"inner_v": {"grad_tol": float("nan")}}, "config field inner_v.grad_tol must be finite, got nan"),
        ({"eta_alpha": float("nan")}, "config field eta_alpha must be finite, got nan"),
        ({"schedule": {"c": float("nan")}}, "config field schedule.c must be finite, got nan"),
        ({"inner_v": {"stepsize": float("inf")}}, "config field inner_v.stepsize must be finite, got inf"),
        ({"seed": -3}, "seed must be >= 0"),
    ],
    ids=[
        "bad_value", "unknown_fields", "unknown_nested_field", "str_int", "null_nested", "float_int", "nested_str_int",
        "zero_inner_steps", "negative_inner_stepsize", "gamma_above_one", "zero_horizon",
        "nan_grad_tol", "nan_eta_alpha", "nan_schedule_c", "infinite_inner_stepsize", "negative_seed",
    ],
)
def test_bad_config_reported_without_traceback(tmp_path, capsys, command, payload, message):
    code = cli.main([command, "--env", "chain2", "--config", _config_file(tmp_path, payload), "--iterations", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: bad config: {message}\n"


def test_negative_seed_flag_reported_without_traceback(capsys):
    code = cli.main(["train", "--env", "chain2", "--seed", "-1", "--iterations", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: bad config: seed must be >= 0\n"


def test_missing_config_file_reported(tmp_path, capsys):
    code = cli.main(["train", "--env", "chain2", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad config: ")


def test_good_config_trains(tmp_path, capsys):
    payload = {"k": 2, "batch_m": 4, "iterations": 2, "inner_v": {"max_iters": 5}}
    code = cli.main(["train", "--env", "chain2", "--config", _config_file(tmp_path, payload)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert [json.loads(line)["iteration"] for line in out.splitlines()] == [1, 2]


def _records(out: str) -> list[dict]:
    rows = [json.loads(line) for line in out.splitlines()]
    for row in rows:
        row.pop("wall_time")
    return rows


def test_partial_config_keeps_the_environment_tuning(tmp_path, capsys):
    # a file naming seed and iterations trains the pendulum at its own tuning
    assert cli.main(["train", "--env", "pendulum", "--seed", "0", "--iterations", "2"]) == 0
    flags = _records(capsys.readouterr().out)
    assert cli.main(["train", "--env", "pendulum", "--config", _config_file(tmp_path, {"seed": 0, "iterations": 2})]) == 0
    assert _records(capsys.readouterr().out) == flags and len(flags) == 2


def test_nested_config_field_overrides_only_itself(tmp_path):
    out = tmp_path / "run"
    config = _config_file(tmp_path, {"schedule": {"c": 1.0}, "iterations": 0})
    assert cli.main(["train", "--env", "pendulum", "--config", config, "--out", str(out)]) == 0
    with open(out / "checkpoint.json") as fh:
        saved = json.load(fh)["config"]
    want = cli.default_config("pendulum").to_dict()
    want.update(schedule={"c": 1.0, "n0": 85.0, "beta": 1.0}, iterations=0, gamma=saved["gamma"], horizon=saved["horizon"])
    assert saved == want


def test_docstring_config_example_loads():
    # the schema example of the module docstring is the tabular tuning in full
    doc = cli.__doc__
    start = doc.index("::\n\n") + 3
    example = doc[start : doc.index("\n\n", start)]
    assert DualAcConfig.from_dict(json.loads(example)) == cli.default_config("gridworld")


ORACLE_CHECK_LINES = {
    "chain5": [
        "PASS fixed-point residual (8.882e-16)",
        "PASS occupancy normalization (0.000e+00)",
        "PASS flow constraint residual (4.163e-17)",
        "PASS strong duality gap (1.110e-16)",
        "PASS policy recovery from occupancy (0.000e+00)",
    ],
    "gridworld": [
        "PASS fixed-point residual (0.000e+00)",
        "PASS occupancy normalization (0.000e+00)",
        "PASS flow constraint residual (0.000e+00)",
        "PASS strong duality gap (0.000e+00)",
        "PASS policy recovery from occupancy (0.000e+00)",
    ],
    "random_100x4": [
        "PASS fixed-point residual (4.263e-14)",
        "PASS occupancy normalization (2.220e-16)",
        "PASS flow constraint residual (2.776e-17)",
        "PASS strong duality gap (9.992e-16)",
        "PASS policy recovery from occupancy (0.000e+00)",
    ],
}


@pytest.mark.parametrize("case", sorted(ORACLE_CHECK_LINES))
def test_oracle_check_prints_pinned_lines(tmp_path, capsys, case):
    if case == "random_100x4":
        path = str(tmp_path / "mdp.json")
        save_mdp(random_mdp(100, 4, 0.99, np.random.default_rng(0), deterministic=True), path)
        args = ["--mdp-file", path]
    else:
        args = ["--env", case]
    assert cli.main(["oracle-check", *args]) == 0
    assert capsys.readouterr().out.splitlines() == ORACLE_CHECK_LINES[case]


def test_parser_reused_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-check", "--tol", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["oracle-check", "--env", "chain5"]) == 0
    assert capsys.readouterr().out.splitlines() == ORACLE_CHECK_LINES["chain5"]


def test_parsed_options_do_not_carry_over(capsys, monkeypatch):
    seen = []
    load_env = cli._load_env
    monkeypatch.setattr(cli, "_load_env", lambda args: seen.append(vars(args).copy()) or load_env(args))
    assert cli.main(["train", "--env", "chain2", "--iterations", "1", "--quiet"]) == 0
    assert cli.main(["oracle-check"]) == 0
    assert seen[0]["quiet"] is True
    assert set(seen[1]) == {"command", "env", "mdp_file", "tol", "func"}
    assert (seen[1]["env"], seen[1]["tol"]) == ("gridworld", 1e-6)


def test_main_calls_share_one_parser(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", lambda self, *a: parsers.append(self) or parse_args(self, *a))
    for env in ("chain2", "chain5"):
        assert cli.main(["oracle-check", "--env", env]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_oracle_check_rejects_a_bad_tolerance_with_usage(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-check", "--env", "chain2", "--tol", tol])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: dualac oracle-check")
    assert err.endswith(f"error: argument --tol: must be a positive finite number, got '{tol}'\n")


@pytest.mark.parametrize(
    "seeds,message",
    [
        ("0,x", "must be comma-separated integers, got '0,x'"),
        ("", "must be comma-separated integers, got ''"),
        ("0", "needs at least 2 seeds, got '0'"),
        ("-1,0", "seeds must be >= 0, got '-1,0'"),
        ("0,0", "seeds must be distinct, got '0,0'"),
    ],
)
def test_ablation_rejects_bad_seeds_with_usage(capsys, seeds, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ablation", "--env", "chain2", f"--seeds={seeds}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: dualac ablation")
    assert err.endswith(f"error: argument --seeds: {message}\n")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_ablation_of_zero_iterations_reported_without_file(tmp_path, capsys, source):
    # a run of no iterations has no final return: its summary would be -inf +/- nan
    out_dir = tmp_path / "out"
    given = ["--iterations", "0"] if source == "flag" else ["--config", _config_file(tmp_path, {"iterations": 0})]
    code = cli.main(["ablation", "--env", "chain2", *given, "--out", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: bad config: an ablation needs iterations >= 1\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["train", "ablation"])
@pytest.mark.parametrize("where", ["file", "under_file"])
def test_unusable_out_directory_reported_before_training(tmp_path, capsys, monkeypatch, command, where):
    # an --out that cannot be a directory is reported before any training,
    # instead of a traceback (train) or after the whole suite has run (ablation)
    def never(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr(cli, "run_experiment", never)
    monkeypatch.setattr(cli, "ablation_suite", never)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out_dir = taken if where == "file" else taken / "sub"
    code = cli.main([command, "--env", "chain2", "--iterations", "1", "--out", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: bad output directory: ") and err.count("\n") == 1
    assert taken.read_text() == "kept"


def test_ablation_writes_its_result_into_a_new_directory(tmp_path, capsys):
    out_dir = tmp_path / "runs" / "abl"
    code = cli.main(["ablation", "--env", "chain2", "--iterations", "1", "--out", str(out_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    result = json.loads((out_dir / "ablation.json").read_text())
    assert [json.dumps(row) for row in result["rows"]] == out.splitlines()[: len(result["rows"])]


def _mdp_file(tmp_path, edit=None) -> str:
    """chain2 saved as an MDP file, its payload changed by edit first."""
    path = tmp_path / "mdp.json"
    save_mdp(make_env("chain2").as_tabular(), str(path))
    if edit is not None:
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return str(path)


def _json_file(tmp_path, payload) -> str:
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_mdp_file_with_booleans_among_floats_loads(tmp_path, capsys):
    # the arrays are checked by numpy's inferred dtype, not entry by entry, so
    # a bool among numbers is cast like the numbers
    path = _mdp_file(tmp_path, lambda p: p.update(mu=[True, 0.0]))
    assert cli.main(["oracle-check", "--mdp-file", path]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "command,source,message",
    [
        ("oracle-check", lambda d: ["--mdp-file", str(d / "absent.json")], "No such file or directory"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.pop("transition"))], "lacks the field(s) transition"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.update(gamma=1.0))], "gamma must lie strictly inside (0, 1)"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.update(reward=[[math.nan, 0.0], [1.0, 1.0]]))],
         "transition, reward and mu must be finite"),
        ("oracle-check", lambda d: ["--env", "bogus"], "unknown environment 'bogus'; known: "),
        ("oracle-check", lambda d: ["--env", "pendulum"], "the pendulum has no tabular representation"),
        ("train", lambda d: ["--env", "mdp:" + _mdp_file(d, lambda p: p.pop("mu"))], "lacks the field(s) mu"),
        ("oracle-check", lambda d: ["--mdp-file", _json_file(d, 3)], "must hold a JSON object, got int"),
        ("oracle-check", lambda d: ["--mdp-file", _json_file(d, "mdp")], "must hold a JSON object, got str"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.update(gamma="0.5"))],
         "gamma must be a number, got '0.5'"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.update(gamma=True))],
         "gamma must be a number, got True"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.update(gamma=10**400))],
         "gamma must lie strictly inside (0, 1), got 1000"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.update(n_states=2.0))],
         "n_states must be an int, got 2.0"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.update(n_actions=True))],
         "n_actions must be an int, got True"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.update(reward=[["0", "0"], ["1", "1"]]))],
         "reward must be an array of numbers, got dtype <U1"),
        ("oracle-check", lambda d: ["--mdp-file", _mdp_file(d, lambda p: p.update(mu=[True, False]))],
         "mu must be an array of numbers, got dtype bool"),
        ("train", lambda d: ["--env", "mdp:" + _mdp_file(d, lambda p: p["transition"][0][0].__setitem__(0, None))],
         "transition must be an array of numbers, got dtype object"),
    ],
    ids=[
        "missing_file", "missing_field", "invalid_mdp", "nan_reward", "unknown_env", "no_tabular_form", "train_mdp_file",
        "int_payload", "str_payload", "str_gamma", "bool_gamma", "huge_int_gamma", "float_n_states", "bool_n_actions",
        "str_reward", "bool_mu", "null_transition",
    ],
)
def test_bad_mdp_source_reported_without_traceback(tmp_path, capsys, command, source, message):
    code = cli.main([command, *source(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: bad environment: ") and message in err and err.count("\n") == 1
