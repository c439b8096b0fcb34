"""Outer dual-ascent training loop and the ablation harness.

One iteration, in order: sample a batch under the current policy, fit the
value function on the sampled objective, refresh the closed-form start-state
reweighting, decay the stepsize, estimate the policy gradient with the
refreshed start weights, and take the KL prox step in its natural-gradient
form.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .envs import make_env
from .estimators import (
    ReplayRows,
    alpha_closed_form,
    delta_means_by_start,
    grad_pi_estimate,
    replay_rows,
    residuals,
    sample_trajectories,
    start_groups,
    traj_deltas,
    value_grad_terms,
)
from .mdp import policy_value
from .optim import (
    FitDivergedError,
    StepsizeSchedule,
    fisher_estimate,
    fit_value,
    natural_gradient_step,
)
from .policies import (
    BiasedFeatureMap,
    GaussianRbfPolicy,
    IndicatorFeatureMap,
    RbfFeatureMap,
    TabularSoftmaxPolicy,
    median_trick_bandwidth,
)

ABLATIONS = ("full", "no_multistep", "no_pathreg", "no_unbiased_v", "naive")


class IterationError(RuntimeError):
    """A training iteration failed; the last checkpointable state is preserved."""

    def __init__(self, iteration: int, reason: str):
        super().__init__(f"iteration {iteration}: {reason}")
        self.iteration = iteration
        self.reason = reason


def _check_ints(config, *names: str) -> None:
    """An int field takes an int but not a bool."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True, slots=True)
class InnerVConfig:
    """The inner value fit: at most max_iters gradient steps of size stepsize
    on the sampled objective, stopping once the gradient norm is at most
    grad_tol.  optim.fit_value takes the steps in closed form, so max_iters
    costs no time; a stepsize above 2 / (the objective's largest curvature)
    makes the iteration fail as diverged."""

    stepsize: float = 0.2
    max_iters: int = 80
    grad_tol: float = 1e-4

    def __post_init__(self):
        _check_ints(self, "max_iters")
        if not (0 < self.stepsize < math.inf and self.max_iters >= 1 and 0 <= self.grad_tol < math.inf):
            raise ValueError("need inner_v stepsize > 0, max_iters >= 1 and grad_tol >= 0")


@dataclass(frozen=True, slots=True)
class DualAcConfig:
    """The run's settings; the defaults are the tabular environments' tuning."""

    k: int = 10
    eta_v: float = 1.0
    eta_alpha: float = 1.0
    eta_mu: float = 0.5
    schedule: StepsizeSchedule = field(default_factory=StepsizeSchedule)
    batch_m: int = 24
    gamma: float | None = None      # None: use the environment's gamma hint
    horizon: int | None = None      # None: use the environment's horizon
    inner_v: InnerVConfig = field(default_factory=InnerVConfig)
    ablation: str = "full"
    seed: int = 0
    iterations: int = 300
    normalize_grad: bool = False  # True: trust-region rescale of the prox step by 1/sqrt(g.F^-1.g)

    def __post_init__(self):
        _check_ints(self, "k", "batch_m", "seed", "iterations")
        if self.horizon is not None:
            _check_ints(self, "horizon")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}")
        if self.k < 0 or self.batch_m < 1 or self.iterations < 0:
            raise ValueError("need k >= 0, batch_m >= 1, iterations >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.eta_mu <= 1.0:
            raise ValueError("eta_mu must lie in (0, 1]")
        if not (0 < self.eta_alpha < math.inf and 0 <= self.eta_v < math.inf):
            raise ValueError("need eta_alpha > 0 and eta_v >= 0")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def resolved(self, env) -> "DualAcConfig":
        """Fill env-dependent defaults and apply the ablation constraints.
        Idempotent: a resolved config resolves to itself."""
        changes: dict = {}
        if self.gamma is None:
            changes["gamma"] = env.spec.gamma_hint
        if self.horizon is None:
            changes["horizon"] = env.spec.horizon
        # the under-fitted variants take a single stochastic-gradient V update per iteration
        if self.ablation in ("naive", "no_unbiased_v"):
            changes.update(inner_v=dataclasses.replace(self.inner_v, max_iters=1, grad_tol=0.0))
        if self.ablation in ("naive", "no_multistep"):
            changes.update(k=0, eta_v=0.0)
        elif self.ablation == "no_pathreg":
            changes.update(eta_v=0.0)
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict, base: "DualAcConfig | None" = None) -> "DualAcConfig":
        """base (default DualAcConfig()) with the fields of a JSON object
        replaced, nested configs field by field: {"schedule": {"c": 1.0}}
        keeps base's schedule.n0 and schedule.beta.  A ValueError names every
        field it does not know, nested ones as e.g. schedule.x, or else the
        first field whose value has the wrong type, or else the bad value."""
        if not isinstance(payload, dict):
            raise ValueError("a config is a JSON object")
        nested = {"schedule": StepsizeSchedule, "inner_v": InnerVConfig}
        unknown = [key for key in payload if key not in cls.__dataclass_fields__]
        for name, sub in nested.items():
            if isinstance(payload.get(name), dict):
                unknown += [f"{name}.{key}" for key in payload[name] if key not in sub.__dataclass_fields__]
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        return _replaced(cls() if base is None else base, payload)


def _replaced(base, payload: dict, prefix: str = ""):
    """The config dataclass base with payload's values, checked against its
    field annotations, in place of its own; nested configs are replaced from
    their objects the same way.  An int field takes an int but not a bool, a
    float field an int or a finite float, and None only where the annotation
    allows it."""
    hints = typing.get_type_hints(type(base))
    out = {}
    for key, value in payload.items():
        name, hint = prefix + key, hints[key]
        if dataclasses.is_dataclass(hint):
            if not isinstance(value, dict):
                raise ValueError(f"config field {name} must be an object, got {value!r}")
            out[key] = _replaced(getattr(base, key), value, f"{name}.")
            continue
        allowed = typing.get_args(hint) or (hint,)
        if isinstance(value, bool):
            fits = bool in allowed
        else:
            fits = isinstance(value, allowed) or (float in allowed and isinstance(value, int))
        if not fits:
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise ValueError(f"config field {name} must be {expected}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):  # json.load reads NaN and Infinity
            raise ValueError(f"config field {name} must be finite, got {value!r}")
        out[key] = value
    return dataclasses.replace(base, **out)


# Records and training states, and the configs, policies and row maps that a
# state holds, are slotted: code that keeps many of them (a run's record list,
# a benchmark's finished states) stores no instance dict for each.
@dataclass(slots=True)
class IterationRecord:
    iteration: int
    mean_return: float          # undiscounted per-trajectory total reward
    mean_disc_return: float     # discounted return at the config's gamma
    mean_delta: float
    inner_converged: bool
    inner_residual: float
    kl: float
    stepsize: float
    wall_time: float = field(default=0.0, compare=False)

    def to_json_line(self) -> str:
        return json.dumps(dataclasses.asdict(self))


@dataclass(slots=True)
class TrainingState:
    env: object
    cfg: DualAcConfig           # resolved config
    policy: object
    value_map: object           # the value function's row map, v(s) = value_params . row(s)
    value_params: np.ndarray
    t: int = 0
    last_batch: ReplayRows = field(default_factory=ReplayRows)  # the previous batch's replay rows


# The continuous envs' random features are architecture, shared across run
# seeds: 100 of them, drawn (and their bandwidth probed) from seed 0.
RBF_FEATURES = 100
FEATURE_SEED = 0


def init_state(cfg: DualAcConfig, env) -> TrainingState:
    cfg = cfg.resolved(env)
    fmap = None
    if not env.spec.tabular:
        bandwidth = median_trick_bandwidth(_bandwidth_probe(env))
        fmap = RbfFeatureMap.create(RBF_FEATURES, env.spec.obs_dim, bandwidth, seed=FEATURE_SEED)
    return _fresh_state(cfg, env, fmap)


def _bandwidth_probe(env) -> np.ndarray:
    """Observations of 10 rollouts of 50 uniformly random actions, rollout by
    rollout.  One stream feeds them in turn: each rollout's start draws, then
    its actions."""
    rollouts, steps = 10, 50
    dim, low, high = env.spec.action_dim, env.spec.action_low, env.spec.action_high
    u = np.random.default_rng([FEATURE_SEED, 0xBAD]).random((rollouts, env.start_draws + steps * dim))
    actions = (low + (high - low) * u[:, env.start_draws :]).reshape(rollouts, steps, dim)
    s = env.initial_states(u[:, : env.start_draws])
    obs = [env.observe(s)]
    for i in range(steps):
        s = env.step_states(s, actions[:, i])
        obs.append(env.observe(s))
    return np.stack(obs, axis=1).reshape(rollouts * (steps + 1), -1)


def _fresh_state(cfg: DualAcConfig, env, fmap: RbfFeatureMap | None) -> TrainingState:
    """Iteration-0 state of a resolved config; fmap is the continuous envs' feature map."""
    if env.spec.tabular:
        policy = TabularSoftmaxPolicy(env.spec.n_states, env.spec.n_actions)
        value_map = IndicatorFeatureMap(env.spec.n_states)
    else:
        policy = GaussianRbfPolicy(fmap, env.spec.action_dim, seed=cfg.seed)
        value_map = BiasedFeatureMap(fmap)  # intercept: returns sit far from 0
    return TrainingState(env, cfg, policy, value_map, np.zeros(value_map.n_features))


def _start_weights(cfg: DualAcConfig, groups, deltas) -> np.ndarray:
    """The closed-form reweighting from the batch's deltas at one value
    function and its start groups: each trajectory's start weight
    tilde_alpha(s_0) + eta_mu."""
    return alpha_closed_form(delta_means_by_start(groups, deltas), cfg.eta_alpha) + cfg.eta_mu


def dual_ac_iteration(state: TrainingState):
    """Run one outer iteration; returns (state, IterationRecord).

    The state is updated in place only after the policy step succeeds; on an
    IterationError it still holds iteration t-1."""
    cfg, env = state.cfg, state.env
    t = state.t + 1
    tic = time.perf_counter()

    # line 3: sample under pi^{t-1}, weighted by the previous reweighting
    batch = sample_trajectories(env, state.policy, cfg.batch_m, cfg.horizon, (cfg.seed, t), window=cfg.k + 1)
    # delta_k of the batch is affine in the value parameters: one table serves
    # V^{t-1}, the inner fit and V^t
    res = residuals(batch, state.value_map.rows, cfg.gamma, cfg.k)
    # alpha^{t-1}: closed form at V^{t-1}; both reweightings share the grouping
    groups = start_groups(batch)
    weights = _start_weights(cfg, groups, traj_deltas(res, state.value_params))

    # line 4: V^t = argmin of the sampled path-regularized objective; the
    # penalty also anchors on the previous batch (behavior-policy replay)
    rows = replay_rows(batch, cfg.gamma)
    hessian, offset = value_grad_terms(res, weights, (rows, state.last_batch), state.value_map.rows, cfg.eta_v)
    try:
        fit = fit_value(
            state.value_params,
            hessian,
            offset,
            kappa=cfg.inner_v.stepsize,
            max_iters=cfg.inner_v.max_iters,
            grad_tol=cfg.inner_v.grad_tol,
        )
    except FitDivergedError as err:
        raise IterationError(t, f"inner value fit diverged ({err})") from err

    # line 5: closed-form reweighting at V^t
    deltas = traj_deltas(res, fit.params)
    weights = _start_weights(cfg, groups, deltas)

    # line 6: stepsize decay
    zeta = cfg.schedule.at(t)

    # line 7: policy gradient with (tilde_alpha + eta_mu) start weights over
    # the support of the weighted k-step path measure: the first k+1 steps of
    # each trajectory, with the policy inputs the sampler kept for them
    window = batch.window()
    g_pi, scores = grad_pi_estimate(window, weights * deltas, state.policy)
    if not np.all(np.isfinite(g_pi)):
        raise IterationError(t, "non-finite policy gradient")

    # line 8: KL prox step in natural-gradient form.  The Fisher/KL batch is
    # the same window and its score rows, each weighted by its trajectory's
    # start weight.
    row_weights = np.repeat(weights, window.steps)
    fisher = fisher_estimate(scores, weights=row_weights / row_weights.sum())
    try:
        new_params = natural_gradient_step(state.policy.get_params(), g_pi, fisher, zeta, normalize=cfg.normalize_grad)
    except np.linalg.LinAlgError as err:
        raise IterationError(t, f"policy update failed ({err})") from err
    if not np.all(np.isfinite(new_params)):
        raise IterationError(t, "non-finite policy parameters after update")
    policy = state.policy.copy()
    policy.set_params(new_params)
    kl = float(policy.kl(state.policy, window.inputs))

    state.t, state.policy, state.value_params, state.last_batch = t, policy, fit.params, rows
    record = IterationRecord(
        iteration=t,
        mean_return=float(batch.rewards.sum(axis=1).mean()),
        mean_disc_return=float(np.mean(rows.returns)),
        mean_delta=float(np.mean(deltas)),
        inner_converged=bool(fit.converged),
        inner_residual=float(fit.grad_norm),
        kl=kl,
        stepsize=float(zeta),
        wall_time=time.perf_counter() - tic,
    )
    return state, record


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path: str, state: TrainingState) -> None:
    """Write the state as JSON atomically: to a temporary file beside path,
    then renamed over it, so a failed write leaves the previous checkpoint.
    The environment is saved by its name, which make_env reads back, and
    arrays as lists."""
    payload = {
        "env_name": state.env.name,
        "t": state.t,
        "config": state.cfg.to_dict(),
        "policy_params": state.policy.get_params(),
        "value_params": state.value_params,
        "last_batch": dataclasses.asdict(state.last_batch),
    }
    if not state.env.spec.tabular:
        payload["feature_map"] = dataclasses.asdict(state.policy.feature_map)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, default=np.ndarray.tolist)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str, env=None) -> TrainingState:
    """Rebuild a saved state; the feature map comes from the payload, so
    loading runs no bandwidth probe.  A config with unknown fields (such as
    one saved before a field was removed), an env_name that make_env cannot
    rebuild while env is None, parameters of another size than the rebuilt
    models' or not finite, a malformed feature map (non-finite entries
    included), t or last_batch, or a missing field raises ValueError."""
    with open(path) as fh:
        payload = json.load(fh)
    required = ("config", "t", "policy_params", "value_params", "last_batch") + (("env_name",) if env is None else ())
    missing = [name for name in required if name not in payload]
    if missing:
        raise ValueError(f"checkpoint field {missing[0]} is missing")
    t = payload["t"]
    if isinstance(t, bool) or not isinstance(t, int) or t < 0:
        raise ValueError(f"checkpoint field t must be an int >= 0, got {t!r}")
    if env is None:
        name = payload["env_name"]
        try:
            env = make_env(name)
        except KeyError:
            raise ValueError(
                f"checkpoint names environment {name!r}, which make_env cannot rebuild; "
                "pass env= to load_checkpoint"
            ) from None
    cfg = DualAcConfig.from_dict(payload["config"]).resolved(env)
    fmap = None
    if not env.spec.tabular:
        try:
            fm = payload["feature_map"]
            fmap = RbfFeatureMap(
                frequencies=np.array(fm["frequencies"], dtype=float),
                phases=np.array(fm["phases"], dtype=float),
                bandwidth=float(fm["bandwidth"]),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"checkpoint field feature_map is malformed ({err})") from None
        if fmap.frequencies.shape[1] != env.spec.obs_dim:
            raise ValueError(
                f"checkpoint field feature_map maps states of dimension {fmap.frequencies.shape[1]}, "
                f"the environment's have {env.spec.obs_dim}"
            )
    state = _fresh_state(cfg, env, fmap)
    params = {}
    for name, size in (("policy_params", state.policy.n_params), ("value_params", len(state.value_params))):
        params[name] = np.array(payload[name], dtype=float)
        if params[name].shape != (size,):
            raise ValueError(f"checkpoint field {name} holds {params[name].size} entries, the model has {size}")
        if not np.isfinite(params[name]).all():
            raise ValueError(f"checkpoint field {name} must be finite")
    state.policy.set_params(params["policy_params"])
    state.value_params = params["value_params"]
    state.t = t
    state.last_batch = _saved_replay_rows(payload["last_batch"], env.spec)
    return state


def _saved_replay_rows(rows, spec) -> ReplayRows:
    """A checkpoint's last_batch as ReplayRows: three columns of one length,
    starts of the environment's observation shape (tabular: states in
    [0, S)) and finite returns."""
    try:
        last = ReplayRows(
            starts=np.array(rows["starts"]),
            returns=np.array(rows["returns"], dtype=float),
            n_steps=np.array(rows["n_steps"], dtype=int),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"checkpoint field last_batch is malformed ({err})") from None
    lengths = [len(column) if column.ndim else None for column in (last.starts, last.returns, last.n_steps)]
    if last.returns.ndim != 1 or last.n_steps.ndim != 1 or len(set(lengths)) > 1:
        raise ValueError(f"checkpoint field last_batch needs starts, returns and n_steps of one length, got {lengths}")
    if len(last) == 0:
        return last
    obs = () if spec.tabular else (spec.obs_dim,)
    if last.starts.shape[1:] != obs:
        raise ValueError(
            f"checkpoint field last_batch.starts holds observations of shape {last.starts.shape[1:]}, "
            f"the environment's have {obs}"
        )
    states = last.starts
    if spec.tabular and (states.dtype.kind != "i" or not ((states >= 0) & (states < spec.n_states)).all()):
        raise ValueError(f"checkpoint field last_batch.starts must be states in 0..{spec.n_states - 1}")
    if not np.isfinite(last.returns).all():
        raise ValueError("checkpoint field last_batch.returns must be finite")
    return last


# ---------------------------------------------------------------------------
# Experiment harness


def run_experiment(cfg: DualAcConfig, env, out_dir=None, record_sink=None) -> list[IterationRecord]:
    """Full training run on env; streams one record per iteration and
    checkpoints at the end.

    On an iteration error the last good checkpoint is written before the
    error propagates.
    """
    state = init_state(cfg, env)
    records: list[IterationRecord] = []
    records_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        records_fh = open(os.path.join(out_dir, "records.jsonl"), "w")
    try:
        for _ in range(state.cfg.iterations):
            try:
                state, rec = dual_ac_iteration(state)
            except IterationError:
                if out_dir is not None:
                    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), state)
                raise
            records.append(rec)
            if record_sink is not None:
                record_sink(rec)
            if records_fh is not None:
                records_fh.write(rec.to_json_line() + "\n")
                records_fh.flush()
        if out_dir is not None:
            save_checkpoint(os.path.join(out_dir, "checkpoint.json"), state)
    finally:
        if records_fh is not None:
            records_fh.close()
    return records


def final_performance(records: list[IterationRecord], window: int = 10, metric: str = "mean_return") -> float:
    """Mean return over the last `window` iterations; -inf for an empty run."""
    if not records:
        return float("-inf")
    tail = records[-window:]
    return float(np.mean([getattr(r, metric) for r in tail]))


def ablation_variants(base: DualAcConfig, horizon: int) -> list[tuple[str, DualAcConfig]]:
    """The comparison set: full at k in {10, 50} where the horizon permits,
    plus the three ablations and the naive baseline."""
    out = []
    for k in (10, 50):
        if horizon >= k + 2:
            out.append((f"full_k{k}", dataclasses.replace(base, ablation="full", k=k)))
    if not out:  # horizon too short for the multi-step presets; keep base k
        out.append(("full", dataclasses.replace(base, ablation="full")))
    for name in ("no_multistep", "no_pathreg", "no_unbiased_v", "naive"):
        out.append((name, dataclasses.replace(base, ablation=name)))
    return out


def ablation_suite(base: DualAcConfig, env, seeds, record_sink=None) -> dict:
    """Run every variant on env over the given seeds (at least two, all
    distinct) for base.iterations >= 1 iterations; returns per-run finals and
    per-variant mean +/- half-width (half the min-to-max spread).

    Runs are scored by the discounted return on tabular environments (the
    undiscounted fixed-horizon return barely discriminates absorbing tasks)
    and by the undiscounted return on continuous ones.  A variant whose run
    diverges is scored by the records it produced before halting.
    """
    seeds = list(seeds)
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"ablation seeds must be distinct, got {seeds}")
    if len(seeds) < 2:
        raise ValueError("ablation comparisons need at least 2 seeds")
    if base.iterations < 1:
        raise ValueError("ablation comparisons need iterations >= 1")
    metric = "mean_disc_return" if env.spec.tabular else "mean_return"
    horizon = base.horizon if base.horizon is not None else env.spec.horizon
    rows = []
    for variant, cfg in ablation_variants(base, horizon):
        for seed in seeds:
            run_cfg = dataclasses.replace(cfg, seed=int(seed))
            collected: list[IterationRecord] = []
            diverged = False
            try:
                run_experiment(run_cfg, env, record_sink=collected.append)
            except IterationError:
                diverged = True
            rows.append(
                {
                    "variant": variant,
                    "seed": int(seed),
                    "final_return": final_performance(collected, metric=metric),
                    "diverged": diverged,
                }
            )
            if record_sink is not None:
                record_sink(rows[-1])
    summary = {}
    for variant in dict.fromkeys(r["variant"] for r in rows):
        finals = np.array([r["final_return"] for r in rows if r["variant"] == variant])
        summary[variant] = {
            "mean": float(finals.mean()),
            "half_width": float((finals.max() - finals.min()) / 2.0),
        }
    return {"rows": rows, "summary": summary}


# ---------------------------------------------------------------------------
# Tabular evaluation helpers (exact, oracle-based)


def tabular_policy_return(env, policy) -> float:
    """Exact E_mu[V^pi] of a softmax policy on a tabular environment."""
    mdp = env.as_tabular()
    return float(mdp.mu @ policy_value(mdp, policy.prob_matrix()))
