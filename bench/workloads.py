"""The benchmark's workloads and the closed loop that runs each one.

Every workload is a closed loop with one client and one process: the next
training iteration or oracle case starts only when the previous one has
returned.  The workload seed is the only input.  For the training workloads
it becomes `cfg.seed` (`feature_seed` stays 0: the random-feature draw is
part of the architecture); for `oracle` it seeds the draw of the MDPs.

A training repeat runs a fixed number of iterations from a fresh state, and
a run repeats it for as long as its seconds allow.  Iteration time falls as
the policy learns, because trajectories get shorter, so the length of a
repeat must not depend on speed.  Every repeat of a seed must give the same
records, bit for bit.

Where one seed's learning curve sets most of the work, a repeat trains a
group of G seeds instead: workload seed s trains cfg.seed = G*s ... G*s+G-1,
so groups of different workload seeds never share a training seed.  With
G = 1 this is cfg.seed = s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from dualac import cli, driver, envs, estimators, lagrangian, mdp
from dualac.policies import TabularSoftmaxPolicy

DEFAULT_SEED = 0  # the seed a change is developed against
HELDOUT_SEED = 7  # a claimed gain must also hold on this seed, unused while writing the change


@dataclass(frozen=True)
class Workload:
    name: str
    env: str | None  # None for the oracle workload
    ablation: str
    ops_per_repeat: int  # training iterations per seed in a repeat; oracle cases are one op each
    why: str
    seeds_per_repeat: int = 1  # G, the training seeds of one repeat


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gridworld", "gridworld", "full", 60,
            "full algorithm at CLI defaults (k=10, m=24, 80 inner steps): stresses the inner value fit "
            "(~67%) and the tabular sampler (~23%); skips the continuous stack, mdp and lagrangian",
        ),
        # One naive seed's learning curve moves its transitions per iteration
        # by ~13% (quartile spread over ten seeds, 40 iterations).  The first
        # five iterations of sixteen seeds, still near the uniform policy,
        # vary by 2%.
        Workload(
            "gridworld_naive", "gridworld", "naive", 5,
            "ablation=naive (k=0, one inner step): sampling is ~91% of an iteration, so it shows sampler "
            "gains and any fixed per-iteration setup cost added to the inner fit",
            seeds_per_repeat=16,
        ),
        # A pendulum iteration costs the same early and late (fixed horizon),
        # so short repeats lose nothing and let one run hold several.
        Workload(
            "pendulum", "pendulum", "full", 5,
            "CLI defaults (k=50, m=52, horizon 200, 200 inner steps): the only workload on the continuous "
            "stack (RbfFeatureMap, Gaussian policy, Fisher/CG over 2652 rows)",
        ),
        Workload(
            "oracle", None, "full", 1,
            "seeded random deterministic MDPs through save_mdp, `oracle-check` and the exact identities: "
            "the only workload on mdp and lagrangian; skips the sampler and the inner fit",
        ),
    )
}

# Oracle cases: deterministic transitions keep k-step path enumeration
# finite (S * A^(k+1) = 6400 paths per enumeration).
ORACLE_STATES, ORACLE_ACTIONS, ORACLE_GAMMA, ORACLE_K, ORACLE_ETA_V = 100, 4, 0.99, 2, 0.5
FD_STEP = 1e-5
# Relative tolerance of each exact identity checked in an oracle case.
TOLERANCES = {
    "multi_step_lagrangian == expected_delta_dp": 1e-9,
    "exact_grad_v == path_reg_value_gradient": 1e-9,
    "inner_min_v_exact is stationary": 1e-9,
    "exact_grad_pi == directional derivative": 1e-6,
}


@dataclass
class Repeat:
    """One repeat: each training seed of the group run from a fresh state
    for a fixed number of iterations, or one oracle case.  The lists hold one
    entry per completed op."""

    attempted: int = 0
    op_s: list = field(default_factory=list)  # wall time
    traced: list = field(default_factory=list)  # whether the op ran traced
    steps: list = field(default_factory=list)  # transitions sampled by the iteration
    clips: list = field(default_factory=list)  # pendulum action clips in the iteration
    records: list = field(default_factory=list)  # IterationRecords, or per-case check results
    failures: list = field(default_factory=list)
    seconds: float = 0.0
    runs: list = field(default_factory=list)  # (final state, records) per training seed

    def digest(self) -> str:
        lines = [json.dumps(_without_wall_time(r), sort_keys=True) for r in self.records]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _without_wall_time(record) -> dict:
    row = dataclasses.asdict(record) if dataclasses.is_dataclass(record) else dict(record)
    row.pop("wall_time", None)
    return row


def training_configs(wl: Workload, seed: int) -> list[driver.DualAcConfig]:
    base = cli.default_config(wl.env)
    group = wl.seeds_per_repeat
    return [dataclasses.replace(base, seed=group * seed + r, ablation=wl.ablation) for r in range(group)]


def build(wl: Workload, seed: int):
    """The set-up that `setup_s` times after the imports: the training state
    (with the pendulum's bandwidth probe) or the first oracle MDP."""
    if wl.env is None:
        return mdp.random_mdp(ORACLE_STATES, ORACLE_ACTIONS, ORACLE_GAMMA, _case_rng(seed, 0), deterministic=True)
    return driver.init_state(training_configs(wl, seed)[0], envs.make_env(wl.env))


def run(wl: Workload, seed: int, seconds: float, tracer=None, mdp_path: str = "") -> list[Repeat]:
    """Repeat ops while the next repeat, if as long as the last, fits in
    `seconds` (at least one).  With a tracer, every second op runs traced
    and at least two repeats run; an oracle case then runs twice in a row,
    untraced and traced, since cases differ in their MDP."""
    if wl.env is None:

        def one(index, tr):
            if tr is None:
                return _oracle_repeat(seed, index, mdp_path, None)
            return _oracle_repeat(seed, index // 2, mdp_path, tr if index % 2 else None)

    else:
        cfgs, env = training_configs(wl, seed), envs.make_env(wl.env)

        def one(index, tr):
            return _train_repeat(cfgs, env, wl.ops_per_repeat, tr)

    repeats: list[Repeat] = []
    start = time.perf_counter()
    while True:
        rep = one(len(repeats), tracer)
        repeats.append(rep)
        if rep.failures:
            break
        if tracer is not None and len(repeats) < 2:
            continue
        if time.perf_counter() - start + rep.seconds > seconds:
            break
    return repeats


def _finite(record) -> bool:
    return all(math.isfinite(v) for v in _without_wall_time(record).values() if isinstance(v, float))


def _train_repeat(cfgs, env, n: int, tracer) -> Repeat:
    rep = Repeat()
    start = time.perf_counter()
    for cfg in cfgs:
        state = driver.init_state(cfg, env)
        records = []
        for _ in range(n):
            rep.attempted += 1
            traced = tracer is not None and rep.attempted % 2 == 0
            clips0 = getattr(env, "clip_count", 0)
            with tracer.active() if traced else nullcontext():
                t0 = time.perf_counter()
                try:
                    state, rec = driver.dual_ac_iteration(state)
                except driver.IterationError as err:
                    rep.failures.append(f"seed {cfg.seed}: {err}")
                    break
                rep.op_s.append(time.perf_counter() - t0)
            rep.traced.append(traced)
            rep.steps.append(sum(traj.n_steps for traj in state.last_batch))
            rep.clips.append(getattr(env, "clip_count", 0) - clips0)
            records.append(rec)
            if not _finite(rec):
                rep.failures.append(f"seed {cfg.seed}, iteration {rec.iteration}: non-finite record")
        rep.records += records
        rep.runs.append((state, records))
    rep.seconds = time.perf_counter() - start
    return rep


def policy_quality(rep: Repeat) -> dict:
    """Quality of a finished repeat, computed outside the timed loop and
    averaged over its seeds: J(pi_T)/J* from the exact oracles (tabular),
    and the mean undiscounted return over the last 10 (or all, if fewer)
    iterations."""
    out = {
        "final_return": float(np.mean([driver.final_performance(records, window=10) for _, records in rep.runs]))
    }
    env = rep.runs[0][0].env
    if env.spec.tabular:
        model = env.as_tabular()
        optimum = float(model.mu @ mdp.value_iteration(model))
        ratios = [driver.tabular_policy_return(env, state.policy) / optimum for state, _ in rep.runs]
        out["return_ratio"] = float(np.mean(ratios))
        out["return_ratio_range"] = (min(ratios), max(ratios))
    return out


def _case_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def oracle_case(seed: int, index: int, mdp_path: str) -> dict:
    """The CLI's LP-duality check on a saved random MDP, then the exact
    identities between path enumeration and the marginal recursions."""
    rng = _case_rng(seed, index)
    k, eta_v = ORACLE_K, ORACLE_ETA_V
    model = mdp.random_mdp(ORACLE_STATES, ORACLE_ACTIONS, ORACLE_GAMMA, rng, deterministic=True)
    mdp.save_mdp(model, mdp_path)
    printed = io.StringIO()
    with redirect_stdout(printed):
        exit_code = cli.main(["oracle-check", "--mdp-file", mdp_path])

    policy = TabularSoftmaxPolicy(ORACLE_STATES, ORACLE_ACTIONS, logits=rng.normal(size=(ORACLE_STATES, ORACLE_ACTIONS)))
    pi = policy.prob_matrix()
    pi_b = rng.dirichlet(np.ones(ORACLE_ACTIONS), size=ORACLE_STATES)
    alpha = rng.dirichlet(np.ones(ORACLE_STATES))
    v = rng.normal(size=ORACLE_STATES)
    errors = {}

    lead = (1.0 - model.gamma ** (k + 1)) * model.mu @ v
    errors["multi_step_lagrangian == expected_delta_dp"] = _rel(
        lagrangian.multi_step_lagrangian(model, v, alpha, pi, k),
        lead + lagrangian.expected_delta_dp(model, v, alpha, pi, k),
    )
    errors["exact_grad_v == path_reg_value_gradient"] = _rel(
        estimators.exact_grad_v(model, v, alpha, pi, pi_b, k, eta_v),
        lagrangian.path_reg_value_gradient(model, v, alpha, pi, pi_b, k, eta_v),
    )
    v_min = lagrangian.inner_min_v_exact(model, alpha, pi, pi_b, k, eta_v)
    errors["inner_min_v_exact is stationary"] = _rel(
        lagrangian.path_reg_value_gradient(model, v_min, alpha, pi, pi_b, k, eta_v), 0.0
    )

    # d/de E[delta_k] along a random logit direction, by central difference
    direction = rng.standard_normal(policy.n_params)
    theta = policy.get_params()

    def expected_delta(params):
        cand = policy.copy()
        cand.set_params(params)
        return lagrangian.expected_delta_dp(model, v_min, alpha, cand.prob_matrix(), k)

    fd = (expected_delta(theta + FD_STEP * direction) - expected_delta(theta - FD_STEP * direction)) / (2 * FD_STEP)
    errors["exact_grad_pi == directional derivative"] = _rel(
        estimators.exact_grad_pi(model, v_min, alpha, policy, k) @ direction, fd
    )
    return {"oracle_check_exit": exit_code, "oracle_check_output": printed.getvalue(), "errors": errors}


def _oracle_repeat(seed: int, index: int, mdp_path: str, tracer) -> Repeat:
    rep = Repeat(attempted=1)
    traced = tracer is not None
    with tracer.active() if traced else nullcontext():
        t0 = time.perf_counter()
        with tracer.span("bench.oracle_case") if traced else nullcontext():
            result = oracle_case(seed, index, mdp_path)
        rep.op_s.append(time.perf_counter() - t0)
    rep.traced.append(traced)
    rep.seconds = rep.op_s[0]
    rep.records.append(result)
    if result["oracle_check_exit"] != 0:
        rep.failures.append(f"case {index}: oracle-check exited {result['oracle_check_exit']}")
    for name, err in result["errors"].items():
        if not err <= TOLERANCES[name]:  # also catches NaN
            rep.failures.append(f"case {index}: {name} off by {err:.3g} (tolerance {TOLERANCES[name]:g})")
    return rep
