import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dualac import driver
from dualac.cli import default_config
from dualac.driver import (
    ABLATIONS,
    DualAcConfig,
    InnerVConfig,
    IterationError,
    IterationRecord,
    ablation_suite,
    ablation_variants,
    dual_ac_iteration,
    final_performance,
    init_state,
    load_checkpoint,
    run_experiment,
    save_checkpoint,
    tabular_policy_return,
)
from dualac.envs import TabularEnv, make_env
from dualac.mdp import greedy_policy, policy_value, value_iteration
from dualac.optim import StepsizeSchedule, fit_value
from dualac.policies import (
    BiasedFeatureMap,
    GaussianRbfPolicy,
    IndicatorFeatureMap,
    RbfFeatureMap,
    TabularSoftmaxPolicy,
)
from conftest import make_single_state_mdp
from reference_fit import fit_value_loop


def chain_config(**overrides):
    base = dict(
        k=3,
        eta_v=1.0,
        eta_alpha=1.0,
        eta_mu=0.5,
        schedule=StepsizeSchedule(c=0.5, n0=1.0, beta=0.5),
        batch_m=8,
        seed=0,
        iterations=20,
        inner_v=InnerVConfig(stepsize=0.3, max_iters=120, grad_tol=1e-5),
    )
    base.update(overrides)
    return DualAcConfig(**base)


# ---------------------------------------------------------------------------
# Config plumbing


def test_ablation_constraints_applied():
    env = make_env("chain2")
    cfg = chain_config(ablation="no_multistep", k=7, eta_v=2.0).resolved(env)
    assert cfg.k == 0 and cfg.eta_v == 0.0
    cfg = chain_config(ablation="no_pathreg", k=7, eta_v=2.0).resolved(env)
    assert cfg.k == 7 and cfg.eta_v == 0.0
    cfg = chain_config(ablation="naive", k=7, eta_v=2.0).resolved(env)
    assert cfg.k == 0 and cfg.eta_v == 0.0 and cfg.inner_v.max_iters == 1
    cfg = chain_config(ablation="no_unbiased_v").resolved(env)
    assert cfg.inner_v.max_iters == 1 and cfg.inner_v.grad_tol == 0.0


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_resolved_is_idempotent(ablation):
    # load_checkpoint resolves the config it saved, which was resolved already
    env = make_env("chain2")
    cfg = chain_config(ablation=ablation, k=7, eta_v=2.0, inner_v=InnerVConfig(max_iters=50))
    once = cfg.resolved(env)
    assert once.resolved(env) == once


def test_config_env_defaults_resolved():
    env = make_env("gridworld")
    cfg = chain_config().resolved(env)
    assert cfg.gamma == env.spec.gamma_hint
    assert cfg.horizon == env.spec.horizon


def test_config_round_trip_through_dict():
    cfg = chain_config(ablation="no_pathreg", normalize_grad=True)
    back = DualAcConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


def test_default_policy_step_is_unnormalized_prox():
    # the prox's natural-gradient step by default; the pendulum schedule was
    # tuned for the trust-region (1/sqrt(g.F^-1.g)) rescaled step
    assert DualAcConfig().normalize_grad is False
    assert default_config("gridworld").normalize_grad is False
    assert default_config("pendulum").normalize_grad is True


def test_training_imports_no_scipy_solvers():
    # scipy is a test dependency only: no dualac module, and no step of
    # building a training state, may load any part of it
    code = (
        "import pkgutil, sys, dualac\n"
        "for mod in pkgutil.iter_modules(dualac.__path__):\n"
        "    __import__('dualac.' + mod.name)\n"
        "from dualac import cli, driver, envs\n"
        "driver.init_state(cli.default_config('pendulum'), envs.make_env('pendulum'))\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    src = os.path.dirname(os.path.dirname(driver.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_config_from_dict_names_unknown_fields():
    payload = chain_config().to_dict()
    payload.update(feature_seed=0, min_log_std=None)
    payload["schedule"]["gain"] = 1.0
    payload["inner_v"]["tol"] = 1e-8
    with pytest.raises(ValueError, match="feature_seed, min_log_std, schedule.gain, inner_v.tol"):
        DualAcConfig.from_dict(payload)
    payload = chain_config().to_dict()
    payload["inner_v"]["steps"] = 3
    with pytest.raises(ValueError, match=r"unknown config fields: inner_v\.steps$"):
        DualAcConfig.from_dict(payload)
    with pytest.raises(ValueError):
        DualAcConfig.from_dict([1, 2])


def test_config_from_dict_checks_value_types():
    good = DualAcConfig.from_dict({"eta_v": 1, "gamma": None, "horizon": 30})
    assert good.eta_v == 1 and good.gamma is None and good.horizon == 30
    bad = [
        ({"seed": True}, "seed must be int, got True"),
        ({"eta_alpha": False}, "eta_alpha must be float, got False"),
        ({"horizon": 3.0}, "horizon must be int or null, got 3.0"),
        ({"eta_v": None}, "eta_v must be float, got None"),
        ({"normalize_grad": 1}, "normalize_grad must be bool, got 1"),
        ({"ablation": None}, "ablation must be str, got None"),
        ({"inner_v": [20]}, r"inner_v must be an object, got \[20\]"),
        ({"schedule": {"c": "0.5"}}, "schedule.c must be float, got '0.5'"),
    ]
    for payload, message in bad:
        with pytest.raises(ValueError, match=f"^config field {message}$"):
            DualAcConfig.from_dict(payload)


def test_config_validation():
    with pytest.raises(ValueError):
        chain_config(ablation="bogus")
    with pytest.raises(ValueError):
        chain_config(eta_mu=0.0)
    for bad in (
        {"eta_alpha": 0.0},
        {"eta_alpha": math.nan},
        {"eta_alpha": math.inf},
        {"eta_v": math.nan},
        {"eta_v": math.inf},
        {"eta_v": -math.inf},
    ):
        with pytest.raises(ValueError, match="need eta_alpha > 0 and eta_v >= 0"):
            chain_config(**bad)
    for bad in ({"gamma": 1.0}, {"gamma": 0.0}, {"horizon": 0}):
        with pytest.raises(ValueError, match="gamma must lie in|horizon must be"):
            chain_config(**bad)
    for bad in (
        {"stepsize": 0.0},
        {"max_iters": 0},
        {"grad_tol": -1e-9},
        {"stepsize": math.nan},
        {"stepsize": math.inf},
        {"grad_tol": math.nan},
        {"grad_tol": math.inf},
    ):
        with pytest.raises(ValueError, match="need inner_v stepsize > 0"):
            InnerVConfig(**bad)
    # the under-fitted ablations' single inner step is a valid inner_v
    assert InnerVConfig(max_iters=1, grad_tol=0.0).max_iters == 1


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: chain_config(k=math.inf), "k must be an int, got inf"),
        (lambda: chain_config(k=True), "k must be an int, got True"),
        (lambda: chain_config(batch_m=2.5), "batch_m must be an int, got 2.5"),
        (lambda: chain_config(iterations=1.5), "iterations must be an int, got 1.5"),
        (lambda: chain_config(horizon=30.0), "horizon must be an int, got 30.0"),
        (lambda: chain_config(seed=0.0), "seed must be an int, got 0.0"),
        (lambda: chain_config(seed=-1), "seed must be >= 0"),
        (lambda: InnerVConfig(max_iters=math.inf), "max_iters must be an int, got inf"),
        (lambda: InnerVConfig(max_iters=False), "max_iters must be an int, got False"),
    ],
    ids=["inf_k", "bool_k", "float_batch_m", "float_iterations", "float_horizon", "float_seed", "negative_seed",
         "inf_max_iters", "bool_max_iters"],
)
def test_config_int_fields_take_ints_and_seeds_are_non_negative(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_config_from_dict_overrides_a_base():
    # fields a config leaves out, nested ones too, keep the base's; the
    # default base is the tabular tuning
    base = default_config("pendulum")
    cfg = DualAcConfig.from_dict({"inner_v": {"max_iters": 1000}}, base=base)
    assert cfg == dataclasses.replace(base, inner_v=dataclasses.replace(base.inner_v, max_iters=1000))
    assert DualAcConfig.from_dict({}) == DualAcConfig() == default_config("gridworld")


# ---------------------------------------------------------------------------
# Single iterations


def test_single_state_iteration_trivially_optimal():
    mdp = make_single_state_mdp(n_actions=1)  # R=1, gamma=0.9, V*=10
    env = TabularEnv(mdp, horizon=300, name="single")
    cfg = chain_config(k=0, eta_v=1.0, eta_mu=1.0, batch_m=4,
                       inner_v=InnerVConfig(stepsize=0.4, max_iters=400, grad_tol=1e-6))
    state = init_state(cfg, env)
    state, rec = dual_ac_iteration(state)
    # hand-computed minimizer of the sampled objective: the return target
    # G = (1 - 0.9^300)/0.1 plus the dual tilt alpha*(1-gamma)/(2 eta_v) with
    # alpha = max(0, delta(v=0))/eta_alpha = 1, i.e. 10.05 up to truncation
    assert state.value_params[0] == pytest.approx(10.05, abs=1e-4)
    assert abs(state.value_params[0] - 10.0) < 0.1  # near V* as well
    # single action: the policy gradient is identically zero
    assert rec.kl == pytest.approx(0.0, abs=1e-15)
    assert np.array_equal(state.policy.prob_matrix(), [[1.0]])


def test_failed_iteration_leaves_state_intact(monkeypatch):
    # run_experiment checkpoints the state on IterationError, so a failure in
    # the last phase must not leave iteration t's value or weights behind
    state = init_state(chain_config(), make_env("chain2"))
    state, _ = dual_ac_iteration(state)
    t, batch = state.t, state.last_batch
    policy_params, value_params = state.policy.get_params(), state.value_params.copy()

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(driver, "natural_gradient_step", fail)
    with pytest.raises(IterationError):
        dual_ac_iteration(state)
    assert state.t == t and state.last_batch is batch
    assert np.array_equal(state.policy.get_params(), policy_params)
    assert np.array_equal(state.value_params, value_params)


def test_diverging_inner_fit_leaves_state_intact():
    # a stepsize past 2 / (the largest curvature of the value objective) is
    # refused before the fit's first step, and the iteration fails whole
    state = init_state(default_config("gridworld"), make_env("gridworld"))
    for _ in range(2):
        state, _ = dual_ac_iteration(state)
    t, batch = state.t, state.last_batch
    policy_params, value_params = state.policy.get_params(), state.value_params.copy()
    state.cfg = dataclasses.replace(state.cfg, inner_v=InnerVConfig(stepsize=1e3))
    with pytest.raises(IterationError, match="inner value fit diverged") as exc:
        dual_ac_iteration(state)
    assert exc.value.iteration == t + 1
    assert state.t == t and state.last_batch is batch
    assert np.array_equal(state.policy.get_params(), policy_params)
    assert np.array_equal(state.value_params, value_params)


@pytest.mark.parametrize(
    "env_name,iterations,grad_tol",
    [("gridworld", 10, None), ("gridworld", 10, 0.05), ("pendulum", 2, None)],
)
def test_inner_fit_stops_where_the_reference_loop_stops(monkeypatch, env_name, iterations, grad_tol):
    # the golden runs' fits (and a gridworld tolerance that stops most of
    # them early) against step-by-step descent on each batch's sampled gradient
    cfg = dataclasses.replace(default_config(env_name), iterations=iterations)
    if grad_tol is not None:
        cfg = dataclasses.replace(cfg, inner_v=dataclasses.replace(cfg.inner_v, grad_tol=grad_tol))
    fits = []

    def spy_fit(params0, hessian, offset, **kwargs):
        fits.append((params0, hessian, offset, kwargs, fit_value(params0, hessian, offset, **kwargs)))
        return fits[-1][-1]

    monkeypatch.setattr(driver, "fit_value", spy_fit)
    run_experiment(cfg, make_env(env_name))
    early = 0
    for params0, hessian, offset, kwargs, fit in fits:
        loop = fit_value_loop(params0, lambda w: offset + hessian @ w, **kwargs)
        assert (fit.converged, fit.n_iters) == (loop.converged, loop.n_iters)
        assert np.allclose(fit.params, loop.params, rtol=1e-8, atol=1e-8 * np.abs(loop.params).max())
        early += fit.converged
    if grad_tol is not None:
        assert early >= iterations // 2


def test_iteration_determinism_bitwise():
    recs = []
    for _ in range(2):
        env = make_env("chain2")
        state = init_state(chain_config(), env)
        out = []
        for _ in range(5):
            state, rec = dual_ac_iteration(state)
            out.append(rec)
        recs.append(out)
    assert recs[0] == recs[1]  # wall_time excluded from comparison
    for a, b in zip(recs[0], recs[1]):
        assert a.to_json_line() != "" and a.mean_return == b.mean_return


# sha256 of each run's records without wall_time, one sorted-key JSON object
# per line; pinned so that rewrites of the sampler or the estimators can show
# whole-run bitwise equivalence.  The pendulum's was captured with OpenBLAS at
# its default thread count on a 2-core machine (its Fisher's Gram product and
# its value fit's R^T R round differently at other thread counts) when the
# feature cosine became a float64 polynomial, which moved it by rounding.
# The gridworld ones do not depend on the thread count; they were recaptured
# when the tabular Fisher came to be built and solved per state, which moved
# only the kl field, by rounding.
GOLDEN_RUNS = {
    ("gridworld", "full", 10): "389bdb7ecf6ad5ede33e2aa2205565d87491a45dd0a62e5d8f8e3691c7d113cd",
    ("gridworld", "naive", 5): "a8b8093af41a6ccb620138c9f3f9111949291b702246cedbda5abe1a2ef48b74",
    ("pendulum", "full", 2): "a992a8f03ecaa9f211ebe5f835f447cad2cf0d2251d54bd3f32750f3421f7eda",
}


def _records_digest(records) -> str:
    rows = []
    for rec in records:
        row = dataclasses.asdict(rec)
        row.pop("wall_time")
        rows.append(json.dumps(row, sort_keys=True))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


@pytest.mark.parametrize("env_name,ablation,iterations", list(GOLDEN_RUNS))
def test_golden_run_records(env_name, ablation, iterations):
    cfg = dataclasses.replace(default_config(env_name), ablation=ablation, iterations=iterations)
    records = run_experiment(cfg, make_env(env_name))
    assert _records_digest(records) == GOLDEN_RUNS[(env_name, ablation, iterations)]


_GOLDEN_RECORDS_PROBE = """
import dataclasses, json, sys
from dualac.cli import default_config
from dualac.driver import run_experiment
from dualac.envs import make_env
for env_name, ablation, iterations in json.loads(sys.argv[1]):
    cfg = dataclasses.replace(default_config(env_name), ablation=ablation, iterations=iterations)
    for rec in run_experiment(cfg, make_env(env_name)):
        row = dataclasses.asdict(rec)
        row.pop("wall_time")
        print(json.dumps(row))
"""


def test_tabular_golden_records_do_not_depend_on_blas_threads():
    """The tabular golden runs give the same record bytes (each float's repr,
    wall_time aside) at 1 and 2 OpenBLAS threads, now that the tabular
    Fisher is built by bincounts and solved one A x A block per state.  The
    pendulum is left out: its Fisher's (2652 x 101) Gram product and its
    value fit's R^T R still round differently at another thread count."""
    runs = [key for key in GOLDEN_RUNS if key[0] != "pendulum"]
    src = os.path.dirname(os.path.dirname(driver.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _GOLDEN_RECORDS_PROBE, json.dumps(runs)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == sum(iterations for *_, iterations in runs) == 15
    assert outputs[0] == outputs[1]


def test_pendulum_records_stable_under_feature_rounding(monkeypatch):
    # every feature entry moved up by one float64 ulp; the feature map is a
    # smooth function of the state to that precision and an exact policy
    # step keeps the move a rounding change in the records instead of
    # amplifying it
    cfg = dataclasses.replace(default_config("pendulum"), iterations=10)
    exact = run_experiment(cfg, make_env("pendulum"))
    rows = RbfFeatureMap.rows

    def perturbed_rows(self, states):
        return np.nextafter(rows(self, states), np.inf)

    fmap = RbfFeatureMap.create(100, 3, bandwidth=1.0, seed=0)
    states = np.random.default_rng(1).normal(size=(52, 3))
    assert (perturbed_rows(fmap, states) != rows(fmap, states)).all()
    monkeypatch.setattr(RbfFeatureMap, "rows", perturbed_rows)
    perturbed = run_experiment(cfg, make_env("pendulum"))
    floats = [f.name for f in dataclasses.fields(IterationRecord) if f.type == "float" and f.compare]
    for a, b in zip(exact, perturbed, strict=True):
        for name in floats:
            x, y = getattr(a, name), getattr(b, name)
            tol = 1e-6 if name in ("mean_return", "mean_disc_return") else 1e-4
            assert abs(x - y) <= tol * abs(x), (a.iteration, name, x, y)


def test_iteration_computes_deltas_once_per_value_function(monkeypatch):
    # the batch's deltas at V^{t-1} and at V^t; the reweighting, its
    # per-start means and the policy gradient reuse them
    calls = []
    original = driver.traj_deltas

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(driver, "traj_deltas", counted)
    for name in ("gridworld", "chain2"):
        state = init_state(dataclasses.replace(default_config(name), batch_m=24), make_env(name))
        for _ in range(2):
            calls.clear()
            state, _ = dual_ac_iteration(state)
            assert len(calls) == 2, name


def test_iteration_groups_the_starts_once(monkeypatch):
    # both reweightings, at V^{t-1} and at V^t, read one grouping of the starts
    calls = []
    monkeypatch.setattr(driver, "start_groups", _recorded(calls, driver.start_groups))
    for name in ("gridworld", "pendulum"):
        state = init_state(dataclasses.replace(default_config(name), batch_m=6, horizon=8), make_env(name))
        for _ in range(2):
            calls.clear()
            state, _ = dual_ac_iteration(state)
            assert len(calls) == 1, name


def _recorded(calls, fn):
    """fn, appending the (args, result) of every call to calls."""

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out

    return wrapped


def test_iteration_builds_the_window_feature_rows_once(monkeypatch):
    # the sampler keeps the feature rows of the window's steps in the batch,
    # and the score rows (so the policy gradient and the Fisher) and the KL
    # read them: no call after sampling builds rows for the window's states
    calls = {"rows": [], "sample": [], "score_batch": [], "kl": []}
    monkeypatch.setattr(RbfFeatureMap, "rows", _recorded(calls["rows"], RbfFeatureMap.rows))
    monkeypatch.setattr(driver, "sample_trajectories", _recorded(calls["sample"], driver.sample_trajectories))
    for name in ("score_batch", "kl"):
        monkeypatch.setattr(GaussianRbfPolicy, name, _recorded(calls[name], getattr(GaussianRbfPolicy, name)))
    state = init_state(default_config("pendulum"), make_env("pendulum"))
    window_rows = state.cfg.batch_m * (state.cfg.k + 1)
    assert state.cfg.horizon > state.cfg.k + 1
    for _ in range(2):
        for log in calls.values():
            log.clear()
        state, _ = dual_ac_iteration(state)
        [(_, batch)] = calls["sample"]
        assert len(batch.inputs) == window_rows
        assert calls["rows"] and max(len(args[1]) for args, _ in calls["rows"]) < window_rows
        [(score_args, _)], [(kl_args, _)] = calls["score_batch"], calls["kl"]
        assert score_args[1] is batch.inputs and kl_args[2] is batch.inputs


@pytest.mark.parametrize("env_name", ["gridworld", "pendulum"])
def test_iteration_builds_the_value_rows_of_starts_and_bootstraps_once(monkeypatch, env_name):
    # delta_k is affine in the value parameters, so one residual table serves
    # V^{t-1}, the inner fit and V^t: one row-map call builds the rows of the
    # batch's starts and bootstrap states (2m), which the behavior replay
    # reads too, and the previous batch's starts (m from t = 2) are the only
    # other value rows
    calls, samples = [], []
    for row_map in (BiasedFeatureMap, IndicatorFeatureMap):
        monkeypatch.setattr(row_map, "rows", _recorded(calls, row_map.rows))
    monkeypatch.setattr(driver, "sample_trajectories", _recorded(samples, driver.sample_trajectories))
    state = init_state(default_config(env_name), make_env(env_name))
    m, k = state.cfg.batch_m, state.cfg.k
    for _ in range(3):
        calls.clear()
        samples.clear()
        state, _ = dual_ac_iteration(state)
        [(_, batch)] = samples
        bootstraps = batch.obs[np.arange(m), np.minimum(k + 1, batch.lengths)]
        [table] = [args[1] for args, _ in calls if len(args[1]) == 2 * m]
        assert np.array_equal(table, np.concatenate([batch.obs[:, 0], bootstraps]))
        assert sum(len(out) for _, out in calls) == (2 * m if state.t == 1 else 3 * m)


def test_chain_learns_oracle_policy():
    env = make_env("chain2")
    cfg = chain_config(iterations=200)
    state = init_state(cfg, env)
    for _ in range(200):
        state, _ = dual_ac_iteration(state)
    mdp = env.as_tabular()
    v_star = value_iteration(mdp, tol=1e-12)
    greedy_readout = np.zeros((2, 2))
    greedy_readout[np.arange(2), np.argmax(state.policy.prob_matrix(), axis=1)] = 1.0
    # greedy readout achieves the optimal value (argmax ties at s1 are both optimal)
    assert mdp.mu @ policy_value(mdp, greedy_readout) == pytest.approx(mdp.mu @ v_star, abs=1e-9)


def test_stepsizes_monotone_across_run():
    env = make_env("chain2")
    state = init_state(chain_config(), env)
    steps = []
    for _ in range(10):
        state, rec = dual_ac_iteration(state)
        steps.append(rec.stepsize)
    assert all(a >= b for a, b in zip(steps, steps[1:]))


def test_no_unbiased_v_differs_only_in_inner_steps():
    env = make_env("chain2")
    full = chain_config().resolved(env)
    biased = chain_config(ablation="no_unbiased_v").resolved(env)
    assert dataclasses.replace(full, ablation="no_unbiased_v", inner_v=biased.inner_v) == biased
    assert dataclasses.replace(full.inner_v, max_iters=biased.inner_v.max_iters, grad_tol=0.0) == biased.inner_v
    assert full.inner_v.max_iters > biased.inner_v.max_iters
    assert biased.inner_v.grad_tol == 0.0


# ---------------------------------------------------------------------------
# run_experiment / checkpoints


def test_run_experiment_zero_iterations(tmp_path):
    out = str(tmp_path / "run0")
    records = run_experiment(chain_config(iterations=0), make_env("chain2"), out_dir=out)
    assert records == []
    assert os.path.exists(os.path.join(out, "checkpoint.json"))
    assert open(os.path.join(out, "records.jsonl")).read() == ""


def test_run_experiment_streams_jsonl(tmp_path):
    out = str(tmp_path / "run")
    records = run_experiment(chain_config(iterations=4), make_env("chain2"), out_dir=out)
    lines = [l for l in open(os.path.join(out, "records.jsonl")) if l.strip()]
    assert len(lines) == len(records) == 4
    parsed = [IterationRecord(**json.loads(l)) for l in lines]
    assert parsed == records


def test_run_experiment_on_env_object_checkpoints_env_name(tmp_path):
    # the checkpoint names the environment by env.name, so loading it
    # without an env rebuilds the one the run trained on
    out = str(tmp_path / "run")
    cfg = chain_config(iterations=4)
    direct = run_experiment(cfg, make_env("chain2"))
    run_experiment(dataclasses.replace(cfg, iterations=2), make_env("chain2"), out_dir=out)
    state = load_checkpoint(os.path.join(out, "checkpoint.json"))
    assert state.env.name == "chain2" and state.t == 2
    resumed = [dual_ac_iteration(state)[1] for _ in range(2)]
    assert resumed == direct[2:]


def test_load_checkpoint_of_unnamed_env_needs_env(tmp_path):
    # TabularEnv's default name "tabular" is not one make_env can rebuild
    env = TabularEnv(make_env("chain5").as_tabular(), horizon=40, terminal_states=(4,))
    out = str(tmp_path / "run")
    cfg = chain_config(iterations=4)
    direct = run_experiment(cfg, env)
    run_experiment(dataclasses.replace(cfg, iterations=2), env, out_dir=out)
    path = os.path.join(out, "checkpoint.json")
    with pytest.raises(ValueError, match="environment 'tabular'.*pass env= to load_checkpoint"):
        load_checkpoint(path)
    state = load_checkpoint(path, env=env)
    assert state.t == 2
    assert [dual_ac_iteration(state)[1] for _ in range(2)] == direct[2:]


def test_load_checkpoint_rejects_removed_config_fields(tmp_path):
    state = init_state(chain_config(), make_env("chain2"))
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, state)
    with open(path) as fh:
        saved = json.load(fh)
    removed = {
        "n_rbf_features": lambda config: config.update(n_rbf_features=100),
        "cg": lambda config: config.update(cg={"max_iters": 20, "damping": 1e-4, "residual_tol": 1e-10}),
        "inner_v.biased_iters": lambda config: config["inner_v"].update(biased_iters=1),
        "damping": lambda config: config.update(damping=1e-4),
    }
    for name, add in removed.items():
        payload = json.loads(json.dumps(saved))
        add(payload["config"])
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match=f"unknown config fields: {name}$"):
            load_checkpoint(path)


def test_rbf_dimension_mismatch_rejected_on_construction_and_load(tmp_path):
    # a feature map checks its shapes when built; loading also checks that
    # it maps states of the environment's observation dimension
    bad = [
        (np.zeros((8, 3)), np.zeros(7), 1.0),
        (np.zeros(8), np.zeros(8), 1.0),
        (np.zeros((8, 3)), np.zeros((8, 1)), 1.0),
    ]
    for frequencies, phases, bandwidth in bad:
        with pytest.raises(ValueError, match=r"need frequencies \(F, D\) and phases \(F,\)"):
            RbfFeatureMap(frequencies, phases, bandwidth)
    for bandwidth in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite$"):
            RbfFeatureMap(np.zeros((8, 3)), np.zeros(8), bandwidth)
    for value in (math.nan, math.inf, -math.inf):
        frequencies, phases = np.zeros((8, 3)), np.zeros(8)
        frequencies[2, 1] = value
        with pytest.raises(ValueError, match="frequencies and phases must be finite$"):
            RbfFeatureMap(frequencies, np.zeros(8), 1.0)
        phases[7] = value
        with pytest.raises(ValueError, match="frequencies and phases must be finite$"):
            RbfFeatureMap(np.zeros((8, 3)), phases, 1.0)
    state = init_state(dataclasses.replace(default_config("pendulum"), iterations=0), make_env("pendulum"))
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, state)
    with open(path) as fh:
        saved = json.load(fh)
    saved["feature_map"]["frequencies"] = [row + [0.0] for row in saved["feature_map"]["frequencies"]]
    with open(path, "w") as fh:
        json.dump(saved, fh)
    with pytest.raises(ValueError, match="feature_map maps states of dimension 4, the environment's have 3"):
        load_checkpoint(path)


def _assert_rejected(path, saved, edits):
    """Each edit of the saved payload fails to load with its message."""
    for edit, message in edits:
        payload = json.loads(json.dumps(saved))
        edit(payload)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match=f"^checkpoint field {message}"):
            load_checkpoint(path)


def test_load_checkpoint_names_malformed_fields(tmp_path):
    # parameters that do not fit the rebuilt models or are not finite, a
    # malformed feature map (non-finite entries included), t or last batch,
    # or a missing field, are rejected on load instead of failing inside the
    # first iteration
    state = init_state(dataclasses.replace(default_config("pendulum"), iterations=0), make_env("pendulum"))
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, state)
    with open(path) as fh:
        saved = json.load(fh)
    rows = {"starts": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.5]], "returns": [1.0, 2.0], "n_steps": [3, 3]}
    _assert_rejected(path, saved, [
        (lambda p: p["policy_params"].append(0.0), "policy_params holds 102 entries, the model has 101"),
        (lambda p: p["value_params"].append(0.0), "value_params holds 102 entries, the model has 101"),
        (lambda p: p["value_params"].pop(), "value_params holds 100 entries, the model has 101"),
        (lambda p: p["feature_map"]["phases"].pop(), r"feature_map is malformed \(need frequencies"),
        (lambda p: p["feature_map"].update(bandwidth=0.0), "feature_map is malformed .bandwidth must be positive"),
        (lambda p: p["feature_map"].update(bandwidth=math.inf),
         r"feature_map is malformed \(bandwidth must be positive and finite\)$"),
        (lambda p: p["feature_map"]["frequencies"][3].__setitem__(1, math.nan),
         r"feature_map is malformed \(frequencies and phases must be finite\)$"),
        (lambda p: p["feature_map"]["phases"].__setitem__(0, math.nan),
         r"feature_map is malformed \(frequencies and phases must be finite\)$"),
        (lambda p: p["policy_params"].__setitem__(5, math.nan), "policy_params must be finite$"),
        (lambda p: p["value_params"].__setitem__(0, math.nan), "value_params must be finite$"),
        (lambda p: p["value_params"].__setitem__(100, -math.inf), "value_params must be finite$"),
        (lambda p: p["feature_map"].pop("bandwidth"), "feature_map is malformed"),
        (lambda p: p.pop("feature_map"), "feature_map is malformed"),
        (lambda p: p.pop("t"), "t is missing$"),
        (lambda p: p.pop("last_batch"), "last_batch is missing$"),
        (lambda p: p.update(t=2.7), "t must be an int >= 0, got 2.7$"),
        (lambda p: p.update(t=True), "t must be an int >= 0, got True$"),
        (lambda p: p.update(t=-1), "t must be an int >= 0, got -1$"),
        (lambda p: p.update(last_batch=dict(rows, starts=[[0.0, 1.0]] * 2)),
         r"last_batch.starts holds observations of shape \(2,\), the environment's have \(3,\)$"),
        (lambda p: p.update(last_batch=dict(rows, returns=[1.0])),
         r"last_batch needs starts, returns and n_steps of one length, got \[2, 1, 2\]$"),
        (lambda p: p.update(last_batch=dict(rows, returns=[1.0, math.nan])), "last_batch.returns must be finite$"),
        (lambda p: p.update(last_batch={"starts": [], "returns": []}), "last_batch is malformed"),
    ])
    state = init_state(dataclasses.replace(default_config("gridworld"), batch_m=4), make_env("gridworld"))
    state, _ = dual_ac_iteration(state)
    save_checkpoint(path, state)
    with open(path) as fh:
        saved = json.load(fh)
    _assert_rejected(path, saved, [
        (lambda p: p["last_batch"]["starts"].__setitem__(0, 99), "last_batch.starts must be states in 0..24$"),
        (lambda p: p["last_batch"]["starts"].__setitem__(0, -1), "last_batch.starts must be states in 0..24$"),
        (lambda p: p["last_batch"]["starts"].__setitem__(0, 1.5), "last_batch.starts must be states in 0..24$"),
        (lambda p: p["last_batch"]["starts"].__setitem__(0, [0, 1]), "last_batch is malformed"),
        (lambda p: p["last_batch"]["returns"].pop(), r"last_batch needs starts, returns and n_steps of one length"),
        (lambda p: p["last_batch"]["n_steps"].append(1), r"last_batch needs starts, returns and n_steps of one length"),
        (lambda p: p.pop("t"), "t is missing$"),
        (lambda p: p.update(t="3"), "t must be an int >= 0, got '3'$"),
        (lambda p: p.pop("env_name"), "env_name is missing$"),
        (lambda p: p["policy_params"].__setitem__(7, math.inf), "policy_params must be finite$"),
    ])
    state = init_state(chain_config(), make_env("chain2"))
    save_checkpoint(path, state)
    with open(path) as fh:
        payload = json.load(fh)
    payload["policy_params"] = payload["policy_params"][:-1]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError, match="^checkpoint field policy_params holds 3 entries, the model has 4$"):
        load_checkpoint(path)


def test_checkpoint_round_trip_bitwise(tmp_path):
    env = make_env("chain2")
    cfg = chain_config(iterations=6)
    state = init_state(cfg, env)
    for _ in range(3):
        state, _ = dual_ac_iteration(state)
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, state)
    resumed = load_checkpoint(path)
    assert resumed.t == state.t
    assert np.array_equal(resumed.policy.get_params(), state.policy.get_params())
    assert np.array_equal(resumed.value_params, state.value_params)
    # continuing from the checkpoint reproduces the direct run bitwise
    state, direct = dual_ac_iteration(state)
    resumed, reloaded = dual_ac_iteration(resumed)
    assert direct == reloaded
    assert np.array_equal(resumed.policy.get_params(), state.policy.get_params())


def test_checkpoint_round_trip_continuous(tmp_path):
    cfg = DualAcConfig(k=5, eta_v=1.0, eta_alpha=100.0, eta_mu=0.1, batch_m=3,
                       schedule=StepsizeSchedule(c=1.0, n0=2.0, beta=0.5),
                       inner_v=InnerVConfig(stepsize=0.002, max_iters=20, grad_tol=1.0),
                       iterations=2, seed=7)
    env = make_env("pendulum", horizon=40)
    state = init_state(cfg, env)
    state, _ = dual_ac_iteration(state)
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, state)
    resumed = load_checkpoint(path, env=make_env("pendulum", horizon=40))
    _, direct = dual_ac_iteration(state)
    _, reloaded = dual_ac_iteration(resumed)
    assert direct == reloaded


@pytest.mark.parametrize("env_name", ["gridworld", "pendulum"])
def test_resume_from_checkpoint_matches_uninterrupted_run(tmp_path, env_name):
    cfg = default_config(env_name)
    state = init_state(cfg, make_env(env_name))
    direct = [dual_ac_iteration(state)[1] for _ in range(4)]
    state = init_state(cfg, make_env(env_name))
    resumed = [dual_ac_iteration(state)[1] for _ in range(2)]
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, state)
    state = load_checkpoint(path)
    resumed += [dual_ac_iteration(state)[1] for _ in range(2)]
    assert _records_digest(resumed) == _records_digest(direct)


def test_load_checkpoint_runs_no_bandwidth_probe(tmp_path, monkeypatch):
    cfg = dataclasses.replace(default_config("pendulum"), iterations=0)
    path = str(tmp_path / "ck.json")
    state = init_state(cfg, make_env("pendulum"))
    save_checkpoint(path, state)

    def probe(*args, **kwargs):
        raise AssertionError("the bandwidth probe ran")

    monkeypatch.setattr(driver, "_bandwidth_probe", probe)
    resumed = load_checkpoint(path)
    for name in ("frequencies", "phases", "bandwidth"):
        assert np.array_equal(getattr(resumed.policy.feature_map, name), getattr(state.policy.feature_map, name))
    assert np.array_equal(resumed.policy.get_params(), state.policy.get_params())


def test_failed_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    state = init_state(chain_config(), make_env("chain2"))
    state, _ = dual_ac_iteration(state)
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, state)
    before = open(path).read()
    state, _ = dual_ac_iteration(state)

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(driver.json, "dump", fail)
    with pytest.raises(OSError):
        save_checkpoint(path, state)
    assert open(path).read() == before
    assert os.listdir(tmp_path) == ["ck.json"]
    assert load_checkpoint(path).t == 1


# ---------------------------------------------------------------------------
# Ablation suite


def test_ablation_variant_list_respects_horizon():
    base = chain_config()
    names = [name for name, _ in ablation_variants(base, horizon=60)]
    assert names == ["full_k10", "full_k50", "no_multistep", "no_pathreg", "no_unbiased_v", "naive"]
    names_short = [name for name, _ in ablation_variants(base, horizon=20)]
    assert names_short == ["full_k10", "no_multistep", "no_pathreg", "no_unbiased_v", "naive"]


def test_ablation_suite_bookkeeping_and_degenerate_equality():
    # single-state single-action: every variant must produce identical outcomes
    cfg = chain_config(k=2, batch_m=2, iterations=3,
                       inner_v=InnerVConfig(stepsize=0.3, max_iters=30, grad_tol=1e-6))
    seeds = [0, 1]
    env = TabularEnv(make_single_state_mdp(n_actions=1), horizon=30, name="single")
    result = ablation_suite(cfg, env, seeds)
    n_variants = len(ablation_variants(cfg, 30))
    assert len(result["rows"]) == n_variants * len(seeds)
    finals = {(r["variant"], r["seed"]): r["final_return"] for r in result["rows"]}
    for seed in seeds:
        vals = {v for (variant, s), v in finals.items() if s == seed}
        assert len(vals) == 1  # no room to differ on the degenerate MDP
    for stats in result["summary"].values():
        assert np.isfinite(stats["mean"]) and stats["half_width"] >= 0.0


def test_ablation_suite_needs_two_seeds():
    with pytest.raises(ValueError):
        ablation_suite(chain_config(), make_env("chain2"), [0])


@pytest.mark.parametrize("seeds", [[0, 0], [0, 1, 0]])
def test_ablation_suite_rejects_repeated_seeds(seeds):
    # a repeated seed is one run counted twice: [0, 0] would read a spread of 0
    with pytest.raises(ValueError, match="seeds must be distinct"):
        ablation_suite(chain_config(), make_env("chain2"), seeds)


def test_ablation_suite_needs_an_iteration():
    with pytest.raises(ValueError, match="iterations >= 1"):
        ablation_suite(chain_config(iterations=0), make_env("chain2"), [0, 1])


def test_final_performance_window():
    recs = [IterationRecord(i, float(i), 0.0, 0.0, True, 0.0, 0.0, 0.1) for i in range(1, 21)]
    assert final_performance(recs, window=10) == pytest.approx(np.mean(range(11, 21)))


def test_tabular_policy_return_matches_oracle_on_optimal():
    env = make_env("gridworld")
    mdp = env.as_tabular()
    v_star = value_iteration(mdp, tol=1e-12)
    pi_star = greedy_policy(mdp, v_star)
    # logits 0 on the greedy action and -inf elsewhere give exactly pi*
    policy = TabularSoftmaxPolicy(mdp.n_states, mdp.n_actions, logits=np.where(pi_star > 0, 0.0, -np.inf))
    assert np.array_equal(policy.prob_matrix(), pi_star)
    got = tabular_policy_return(env, policy)
    assert got == pytest.approx(mdp.mu @ v_star, abs=1e-9)
