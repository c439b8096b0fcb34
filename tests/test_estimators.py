import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualac.cli import default_config
from dualac.driver import dual_ac_iteration, init_state, load_checkpoint, save_checkpoint
from dualac.envs import TabularEnv, make_env
from dualac.estimators import (
    SoftmaxStartWeighting,
    Trajectory,
    alpha_closed_form,
    alpha_objective,
    delta_means_by_start,
    exact_grad_alpha,
    exact_grad_pi,
    exact_grad_v,
    grad_alpha_estimate,
    grad_pi_estimate,
    grad_v_estimate,
    mc_return,
    replay_rows,
    sample_trajectories,
    traj_delta,
    traj_deltas,
    value_grad_terms,
)
from dualac.lagrangian import (
    expected_delta_dp,
    inner_min_v_exact,
    path_reg_lagrangian,
    path_reg_value_gradient,
)
from dualac.mdp import TabularMdp, policy_value, random_mdp
from dualac.policies import (
    BiasedFeatureMap,
    GaussianRbfPolicy,
    LinearValue,
    RbfFeatureMap,
    TabularSoftmaxPolicy,
    TabularValue,
)
from conftest import make_single_state_mdp
from reference_sampler import sample_reference


def make_test_mdp(seed=107, mu=None):
    """Small stochastic 2-state 2-action MDP with controllable start distribution."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(2), size=(2, 2))
    R = rng.uniform(0, 1, size=(2, 2))
    mu = np.array([0.5, 0.5]) if mu is None else np.asarray(mu, dtype=float)
    return TabularMdp(P, R, 0.9, mu)


# ---------------------------------------------------------------------------
# Sampling


def test_deterministic_env_identical_trajectories():
    env = TabularEnv(make_single_state_mdp(n_actions=1), horizon=4)
    policy = TabularSoftmaxPolicy(1, 1)
    trajs = sample_trajectories(env, policy, m=5, horizon=4, rng_seed=0)
    other = sample_trajectories(env, policy, m=5, horizon=4, rng_seed=99)
    for a, b in zip(trajs, other):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)


def test_same_seed_bitwise_identical():
    env = make_env("chain5", slip=0.2)
    policy = TabularSoftmaxPolicy(5, 2, logits=np.random.default_rng(1).normal(size=(5, 2)))
    a = sample_trajectories(env, policy, m=8, horizon=20, rng_seed=42)
    b = sample_trajectories(env, policy, m=8, horizon=20, rng_seed=42)
    for x, y in zip(a, b):
        assert np.array_equal(x.states, y.states)
        assert np.array_equal(x.actions, y.actions)
        assert np.array_equal(x.rewards, y.rewards)


def test_bandit_action_frequency():
    mdp = make_single_state_mdp(n_actions=2)
    env = TabularEnv(mdp, horizon=1)
    policy = TabularSoftmaxPolicy(1, 2)  # uniform
    trajs = sample_trajectories(env, policy, m=100_000, horizon=1, rng_seed=7)
    freq = np.mean([t.actions[0] for t in trajs])
    assert abs(freq - 0.5) < 0.01


def test_gridworld_absorption_shortens():
    env = make_env("gridworld")
    policy = TabularSoftmaxPolicy(25, 4, logits=np.zeros((25, 4)))
    trajs = sample_trajectories(env, policy, m=50, horizon=60, rng_seed=3)
    assert any(t.n_steps < 60 for t in trajs)
    for t in trajs:
        if t.n_steps < 60:
            assert t.states[-1] == 24


def _sampler_case(env_name: str, seed: int, scale: float, log_std: float):
    """An environment and a random policy on it; chain5 gets an absorbing
    right end so that its trajectories can end early too."""
    rng = np.random.default_rng(seed)
    if env_name == "pendulum":
        env = make_env("pendulum")
        fmap = RbfFeatureMap.create(int(rng.integers(1, 40)), 3, bandwidth=float(rng.uniform(0.3, 4.0)), seed=seed)
        policy = GaussianRbfPolicy(fmap, 1, init_log_std=log_std, seed=seed)
        policy.weights = rng.normal(scale=scale, size=policy.weights.shape)
        return env, policy
    env = make_env(env_name)
    if env_name == "chain5" and seed % 2:
        env = TabularEnv(env.as_tabular(), horizon=env.spec.horizon, terminal_states=(4,))
    s, a = env.spec.n_states, env.spec.n_actions
    return env, TabularSoftmaxPolicy(s, a, logits=rng.normal(scale=scale, size=(s, a)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    env_name=st.sampled_from(["chain2", "chain5", "gridworld", "pendulum"]),
    seed=st.integers(0, 2**31),
    scale=st.floats(0.0, 6.0),
    log_std=st.floats(-2.0, 1.0),
    m=st.integers(1, 12),
    horizon=st.integers(1, 80),
    rng_seed=st.lists(st.integers(0, 2**31), min_size=1, max_size=2),
)
def test_lockstep_sampler_matches_per_step_reference(env_name, seed, scale, log_std, m, horizon, rng_seed):
    env, policy = _sampler_case(env_name, seed, scale, log_std)
    want, want_clips = sample_reference(env, policy, m, horizon, rng_seed)
    clips = getattr(env, "clip_count", 0)
    got = sample_trajectories(env, policy, m, horizon, rng_seed)
    assert getattr(env, "clip_count", 0) - clips == want_clips
    assert len(got) == m
    for a, b in zip(got, want):
        for name in ("states", "actions", "rewards"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), name
        assert a.terminated is b.terminated


def _batch_digest(trajs) -> str:
    h = hashlib.sha256()
    for traj in trajs:
        for arr in (traj.states, traj.actions, traj.rewards):
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        h.update(b"T" if traj.terminated else b"F")
    return h.hexdigest()


# One batch per environment (m = 16, seed (5, 3)), hashed with _batch_digest
# from the trajectories of the one-step-at-a-time sampler that preceded the
# lockstep one; (digest, steps, absorbed trajectories, clipped actions).
PINNED_BATCHES = {
    "chain2": ("7f643aee8c3394cb060ee88f8c1a2ecc5eafc8872f4936d51afcdddd1f6044bd", 192, 0, 0),
    "chain5": ("ce3855492583cb3737da592c3cffd9da2b75e4002d445f59a18a59eb7bf1c185", 320, 0, 0),
    "gridworld": ("a5719fbc0bee8f8cc9e8a2dbc0ee18e030163e35a1f71381ca1aed728ee5ba09", 704, 6, 0),
    "pendulum": ("750c4b0b57514486cac303bd32276b5e8116bb0263e03cc19483c386b27dd5a2", 800, 0, 273),
}


def _pinned_batches():
    rng = np.random.default_rng(2024)
    for name, horizon in (("chain2", 12), ("chain5", 20), ("gridworld", 60)):
        env = make_env(name)
        s, a = env.spec.n_states, env.spec.n_actions
        yield name, env, TabularSoftmaxPolicy(s, a, logits=rng.normal(size=(s, a))), horizon
    env = make_env("pendulum")
    policy = GaussianRbfPolicy(RbfFeatureMap.create(100, 3, bandwidth=1.7, seed=11), 1, init_log_std=-0.5, seed=12)
    policy.set_params(np.concatenate([rng.normal(scale=0.25, size=100), [-0.5]]))
    yield "pendulum", env, policy, 50


def test_sampled_batches_pinned():
    for name, env, policy, horizon in _pinned_batches():
        clips = getattr(env, "clip_count", 0)
        trajs = sample_trajectories(env, policy, m=16, horizon=horizon, rng_seed=(5, 3))
        got = (
            _batch_digest(trajs),
            sum(t.n_steps for t in trajs),
            sum(t.terminated for t in trajs),
            getattr(env, "clip_count", 0) - clips,
        )
        assert got == PINNED_BATCHES[name], name


# ---------------------------------------------------------------------------
# Returns and deltas


def test_mc_return_examples():
    traj = Trajectory(states=np.zeros(4), actions=np.zeros(3), rewards=np.array([1.0, 1.0, 1.0]))
    assert mc_return(traj, 0.5) == pytest.approx(1.75)
    assert mc_return(traj, 0.5, k=0) == pytest.approx(1.0)
    long = Trajectory(states=np.zeros(201), actions=np.zeros(200), rewards=np.ones(200))
    assert mc_return(long, 0.995) == pytest.approx((1 - 0.995**200) / 0.005)


def test_traj_delta_full_and_truncated():
    v = np.array([2.0, -1.0, 0.5])
    full = Trajectory(states=np.array([0, 1, 2]), actions=np.zeros(2), rewards=np.array([1.0, 3.0]))
    # k = 1: delta = 1 + 0.9*3 + 0.81*v(s2) - v(s0)
    assert traj_delta(full, v, 0.9, k=1) == pytest.approx(1 + 2.7 + 0.81 * 0.5 - 2.0)
    short = Trajectory(states=np.array([0, 1]), actions=np.zeros(1), rewards=np.array([1.0]))
    # k = 3 but only one step: bootstrap at s_1 with gamma^1
    assert traj_delta(short, v, 0.9, k=3) == pytest.approx(1 + 0.9 * (-1.0) - 2.0)


# ---------------------------------------------------------------------------
# Exhaustive-expectation forms vs finite differences of the exact objective


def fd_grad(f, x0, h=1e-5):
    g = np.zeros_like(x0)
    for i in range(len(x0)):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return g


def test_eq9_alpha_gradient_matches_fd():
    mdp = make_test_mdp()
    rng = np.random.default_rng(109)
    pi = rng.dirichlet(np.ones(2), size=2)
    pi_b = rng.dirichlet(np.ones(2), size=2)
    start = SoftmaxStartWeighting(2, logits=np.array([0.4, -0.2]))
    k, eta_v = 1, 0.5

    def dual_fn(theta):
        model = SoftmaxStartWeighting(2, logits=theta)
        alpha = model.distribution()
        v_star = inner_min_v_exact(mdp, alpha, pi, pi_b, k=k, eta_v=eta_v)
        return path_reg_lagrangian(mdp, v_star, alpha, pi, pi_b, k=k, eta_v=eta_v)

    alpha0 = start.distribution()
    v_at_min = inner_min_v_exact(mdp, alpha0, pi, pi_b, k=k, eta_v=eta_v)
    analytic = exact_grad_alpha(mdp, v_at_min, start, pi, k=k)
    numeric = fd_grad(dual_fn, start.get_params())
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_eq10_pi_gradient_matches_fd():
    mdp = make_test_mdp(seed=113)
    rng = np.random.default_rng(127)
    policy = TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
    pi_b = rng.dirichlet(np.ones(2), size=2)
    alpha = np.array([0.3, 0.7])
    k, eta_v = 1, 0.5

    def dual_fn(theta):
        cand = policy.copy()
        cand.set_params(theta)
        pi = cand.prob_matrix()
        v_star = inner_min_v_exact(mdp, alpha, pi, pi_b, k=k, eta_v=eta_v)
        return path_reg_lagrangian(mdp, v_star, alpha, pi, pi_b, k=k, eta_v=eta_v)

    v_at_min = inner_min_v_exact(mdp, alpha, policy.prob_matrix(), pi_b, k=k, eta_v=eta_v)
    analytic = exact_grad_pi(mdp, v_at_min, alpha, policy, k=k)
    numeric = fd_grad(dual_fn, policy.get_params())
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_value_gradient_matches_fd_and_dp():
    mdp = make_test_mdp(seed=131)
    rng = np.random.default_rng(137)
    pi = rng.dirichlet(np.ones(2), size=2)
    pi_b = rng.dirichlet(np.ones(2), size=2)
    alpha = np.array([0.6, 0.4])
    v0 = rng.normal(size=2)
    for eta_v in (0.0, 0.7):

        def obj(v):
            return path_reg_lagrangian(mdp, v, alpha, pi, pi_b, k=2, eta_v=eta_v)

        enum = exact_grad_v(mdp, v0, alpha, pi, pi_b, k=2, eta_v=eta_v)
        assert np.allclose(enum, fd_grad(obj, v0), rtol=1e-4, atol=1e-7)
        dp = path_reg_value_gradient(mdp, v0, alpha, pi, pi_b, k=2, eta_v=eta_v)
        assert np.allclose(enum, dp, atol=1e-10)


# ---------------------------------------------------------------------------
# Sampled estimators: fixed-point zeros, linearity, 1/sqrt(m) convergence


def test_grad_estimates_zero_at_fixed_point():
    mdp = make_single_state_mdp(n_actions=1)
    env = TabularEnv(mdp, horizon=6)
    policy = TabularSoftmaxPolicy(1, 1)
    trajs = sample_trajectories(env, policy, m=4, horizon=6, rng_seed=5)
    v = np.array([10.0])  # fixed point: every delta vanishes
    start = SoftmaxStartWeighting(1)
    assert np.allclose(grad_alpha_estimate(trajs, v, start, 0.9, k=2), 0.0, atol=1e-12)
    assert np.allclose(grad_pi_estimate(trajs, traj_deltas(trajs, v, 0.9, k=2), policy, k=2), 0.0, atol=1e-12)


def test_grad_alpha_linear_in_rewards():
    env = make_env("chain5", slip=0.2)
    policy = TabularSoftmaxPolicy(5, 2)
    trajs = sample_trajectories(env, policy, m=20, horizon=10, rng_seed=11)
    start = SoftmaxStartWeighting(5, logits=np.arange(5.0) / 5)
    v = np.zeros(5)
    g1 = grad_alpha_estimate(trajs, v, start, 0.9, k=3)
    doubled = [Trajectory(t.states, t.actions, 2.0 * t.rewards, t.start_weight) for t in trajs]
    g2 = grad_alpha_estimate(doubled, v, start, 0.9, k=3)
    assert np.allclose(g2, 2.0 * g1, atol=1e-12)


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        grad_pi_estimate([], [], TabularSoftmaxPolicy(2, 2), k=0)
    with pytest.raises(ValueError):
        grad_alpha_estimate([], np.zeros(2), SoftmaxStartWeighting(2), 0.9, k=0)


def test_sampled_estimators_converge_to_exact():
    # env whose mu equals the alpha weighting, so plain batch means estimate E_alpha^pi
    mdp = make_test_mdp(seed=139, mu=np.array([0.35, 0.65]))
    env = TabularEnv(mdp, horizon=8)
    rng = np.random.default_rng(149)
    policy = TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
    start = SoftmaxStartWeighting(2, logits=np.log(mdp.mu))
    v = TabularValue(2)
    v.values = rng.normal(size=2)
    k = 1
    exact_pi = exact_grad_pi(mdp, v.values, mdp.mu, policy, k=k)
    exact_al = exact_grad_alpha(mdp, v.values, start, policy.prob_matrix(), k=k)
    for m in (100, 10_000):
        trajs = sample_trajectories(env, policy, m=m, horizon=8, rng_seed=m)
        est_pi = grad_pi_estimate(trajs, traj_deltas(trajs, v, mdp.gamma, k), policy, k=k)
        est_al = grad_alpha_estimate(trajs, v, start, mdp.gamma, k=k)
        # per-trajectory statistic scale bounds the batch-mean deviation
        per = np.array([traj_delta(t, v, mdp.gamma, k) for t in trajs])
        sigma = max(per.std(), 1.0)
        bound = 6 * sigma / np.sqrt(m)
        assert np.max(np.abs(est_pi - exact_pi)) < bound, m
        assert np.max(np.abs(est_al - exact_al)) < bound, m


def _grad_v_reference(trajs, behavior_trajs, value_model, gamma, k, eta_v):
    """The sampled value gradient walked trajectory by trajectory, evaluating
    every feature row at the model's current parameters."""
    n = value_model.n_params
    lead = np.zeros(n)
    resid = np.zeros(n)
    for traj in trajs:
        _, g0 = value_model.eval_and_grad(traj.states[0])
        j = min(k + 1, traj.n_steps)
        lead += g0
        resid -= traj.start_weight * g0
        if traj.bootstraps_at(j):
            _, gj = value_model.eval_and_grad(traj.states[j])
            resid += traj.start_weight * gamma**j * gj
    grad = (1.0 - gamma ** (k + 1)) * lead / len(trajs) + resid / len(trajs)
    if eta_v > 0:
        pen = np.zeros(n)
        for traj in behavior_trajs:
            v0, g0 = value_model.eval_and_grad(traj.states[0])
            pen += (mc_return(traj, gamma) - v0) * g0
        grad -= 2.0 * eta_v * pen / len(behavior_trajs)
    return grad


def _value_grad_cases():
    """(env, policy, value model, horizon, k) covering absorbed tabular
    trajectories and continuous ones shorter than k+1 steps."""
    rng = np.random.default_rng(163)
    grid = make_env("gridworld")
    yield grid, TabularSoftmaxPolicy(25, 4, logits=rng.normal(size=(25, 4))), TabularValue(25), 60, 10
    chain = TabularEnv(make_env("chain5").as_tabular(), horizon=30, terminal_states=(4,))
    yield chain, TabularSoftmaxPolicy(5, 2, logits=rng.normal(size=(5, 2))), TabularValue(5), 30, 3
    pend = make_env("pendulum")
    fmap = RbfFeatureMap.create(30, pend.spec.obs_dim, bandwidth=1.5, seed=5)
    yield pend, GaussianRbfPolicy(fmap, pend.spec.action_dim, seed=3), LinearValue(BiasedFeatureMap(fmap)), 8, 10


def test_value_models_are_linear_in_their_parameters():
    # the precondition of value_grad_terms: v(s) = w . grad v(s)
    for env, policy, v, horizon, _ in _value_grad_cases():
        rng = np.random.default_rng(167)
        v.set_params(rng.normal(size=v.n_params))
        for traj in sample_trajectories(env, policy, m=6, horizon=horizon, rng_seed=23):
            for s in traj.states:
                assert v.value(s) == pytest.approx(v.get_params() @ v.eval_and_grad(s)[1])


def test_grad_v_terms_bitwise_match_trajectory_loop():
    rng = np.random.default_rng(173)
    for env, policy, v, horizon, k in _value_grad_cases():
        previous = sample_trajectories(env, policy, m=12, horizon=horizon, rng_seed=(29, 1))
        batch = sample_trajectories(env, policy, m=12, horizon=horizon, rng_seed=(29, 2))
        for traj in previous + batch:
            traj.start_weight = float(rng.uniform(0.1, 2.0))
        if env.spec.tabular:
            assert any(traj.terminated for traj in batch)
        else:
            assert all(traj.n_steps < k + 1 for traj in batch)
        behavior = batch + previous
        rows = [*replay_rows(batch, env.spec.gamma_hint), *replay_rows(previous, env.spec.gamma_hint)]
        v.set_params(rng.normal(size=v.n_params))
        for eta_v in (0.0, 1.0):
            terms = value_grad_terms(batch, rows, v, env.spec.gamma_hint, k, eta_v)
            for _ in range(4):
                w = rng.normal(scale=3.0, size=v.n_params)
                probe = v.copy()
                probe.set_params(w)
                want = _grad_v_reference(batch, behavior, probe, env.spec.gamma_hint, k, eta_v)
                assert np.array_equal(grad_v_estimate(terms, w), want), (env.spec, eta_v)


def test_grad_v_terms_reject_empty_batches():
    env = make_env("chain5")
    trajs = sample_trajectories(env, TabularSoftmaxPolicy(5, 2), m=3, horizon=5, rng_seed=31)
    v = TabularValue(5)
    with pytest.raises(ValueError):
        value_grad_terms([], replay_rows(trajs, 0.9), v, 0.9, k=1, eta_v=1.0)
    with pytest.raises(ValueError):
        value_grad_terms(trajs, [], v, 0.9, k=1, eta_v=1.0)
    terms = value_grad_terms(trajs, [], v, 0.9, k=1, eta_v=0.0)
    assert terms.rows.shape == (0, 5)


def test_grad_v_single_state_hand_value():
    mdp = make_single_state_mdp()  # R=1, gamma=0.9
    env = TabularEnv(mdp, horizon=300)
    policy = TabularSoftmaxPolicy(1, 1)
    trajs = sample_trajectories(env, policy, m=3, horizon=300, rng_seed=17)
    v = TabularValue(1)
    k, eta_v = 0, 0.5
    got = grad_v_estimate(value_grad_terms(trajs, replay_rows(trajs, 0.9), v, 0.9, k=k, eta_v=eta_v), np.array([8.0]))
    G = (1 - 0.9**300) / 0.1
    # lead and residual terms cancel ((1-g) + (g-1)); penalty remains
    want = -2 * eta_v * (G - 8.0)
    assert got == pytest.approx([want], abs=1e-9)


def test_grad_v_penalty_vanishes_at_behavior_value():
    env = make_env("chain5", slip=0.1, horizon=400)
    mdp = env.as_tabular()
    rng = np.random.default_rng(151)
    policy = TabularSoftmaxPolicy(5, 2, logits=rng.normal(size=(5, 2)))
    trajs = sample_trajectories(env, policy, m=400, horizon=400, rng_seed=19)
    v = TabularValue(5)
    v_b = policy_value(mdp, policy.prob_matrix())
    rows = replay_rows(trajs, mdp.gamma)
    got = grad_v_estimate(value_grad_terms(trajs, rows, v, mdp.gamma, k=0, eta_v=1.0), v_b)
    no_pen = grad_v_estimate(value_grad_terms(trajs, rows, v, mdp.gamma, k=0, eta_v=0.0), v_b)
    penalty_part = got - no_pen
    assert np.max(np.abs(penalty_part)) < 0.2  # MC/truncation noise only


# ---------------------------------------------------------------------------
# Closed-form alpha update


def test_alpha_closed_form_examples():
    assert alpha_closed_form(np.array([-2.0]), 1.0) == pytest.approx([0.0])
    assert alpha_closed_form(np.array([3.0]), 2.0) == pytest.approx([1.5])
    assert alpha_closed_form(np.array([0.0]), 2.0) == pytest.approx([0.0])
    with pytest.raises(ValueError):
        alpha_closed_form(np.array([1.0]), 0.0)


def test_alpha_closed_form_dominates_grid():
    rng = np.random.default_rng(157)
    mu = rng.dirichlet(np.ones(2))
    deltas = np.array([1.7, -0.9])
    eta_mu, eta_alpha = 0.1, 1.0
    star = alpha_closed_form(deltas, eta_alpha)
    best = alpha_objective(star, deltas, mu, eta_mu, eta_alpha)
    grid = np.arange(0.0, 5.0 + 1e-9, 0.1)
    for cand in itertools.product(grid, grid):
        val = alpha_objective(np.array(cand), deltas, mu, eta_mu, eta_alpha)
        assert best >= val - 1e-12


def test_alpha_full_quadratic_maximizer_is_halved():
    # under the literal penalty coefficient the maximizer is deltabar/(2 eta)
    mu = np.array([1.0])
    deltas = np.array([2.0])
    eta_alpha = 1.0
    grid = np.linspace(0, 5, 501)
    vals = [alpha_objective(np.array([g]), deltas, mu, 0.1, eta_alpha, half_quadratic=False) for g in grid]
    assert grid[int(np.argmax(vals))] == pytest.approx(1.0, abs=0.01)


def test_reweighting_identity():
    # E_alpha^pi[delta] with start weights over mu-sampled starts equals the
    # direct expectation under alpha = (1 - eta_mu) beta + eta_mu mu, exactly.
    mdp = make_test_mdp(seed=163)
    rng = np.random.default_rng(167)
    pi = rng.dirichlet(np.ones(2), size=2)
    v = rng.normal(size=2)
    beta = rng.dirichlet(np.ones(2))
    eta_mu = 0.3
    alpha = (1 - eta_mu) * beta + eta_mu * mdp.mu
    tilde = (1 - eta_mu) * beta / mdp.mu
    k = 2
    per_state = np.array(
        [expected_delta_dp(mdp, v, np.eye(2)[s], pi, k) for s in range(2)]
    )
    weighted = np.sum(mdp.mu * (tilde + eta_mu) * per_state)
    direct = expected_delta_dp(mdp, v, alpha, pi, k)
    assert weighted == pytest.approx(direct, abs=1e-12)


def test_delta_means_by_start_grouping():
    v = np.zeros(3)
    trajs = [
        Trajectory(np.array([0, 1]), np.array([0]), np.array([1.0])),
        Trajectory(np.array([0, 2]), np.array([0]), np.array([3.0])),
        Trajectory(np.array([2, 1]), np.array([1]), np.array([5.0])),
    ]
    means, counts = delta_means_by_start(trajs, traj_deltas(trajs, v, 0.9, k=0), n_states=3)
    assert counts.tolist() == [2, 0, 1]
    assert means[0] == pytest.approx(2.0)
    assert means[1] == 0.0
    assert means[2] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Score functions have zero mean


def test_score_zero_mean_softmax():
    rng = np.random.default_rng(173)
    policy = TabularSoftmaxPolicy(1, 3, logits=rng.normal(size=(1, 3)))
    m = 20_000
    actions = policy.action_sampler()(np.zeros(m, dtype=int), rng.random(m))
    scores = np.zeros((m, policy.n_params))
    for i, a in enumerate(actions):
        _, scores[i] = policy.log_prob_and_grad(0, a)
    sem = scores.std(axis=0) / np.sqrt(m)
    assert np.all(np.abs(scores.mean(axis=0)) < 3 * sem + 1e-12)


def test_score_zero_mean_gaussian():
    fmap = RbfFeatureMap.create(5, 2, bandwidth=1.0, seed=179)
    policy = GaussianRbfPolicy(fmap, action_dim=1, seed=181)
    rng = np.random.default_rng(191)
    s = np.array([0.4, -0.6])
    m = 20_000
    actions = policy.action_sampler()(np.tile(s, (m, 1)), rng.standard_normal((m, policy.action_dim)))
    scores = np.zeros((m, policy.n_params))
    for i, a in enumerate(actions):
        _, scores[i] = policy.log_prob_and_grad(s, a)
    sem = scores.std(axis=0) / np.sqrt(m)
    assert np.all(np.abs(scores.mean(axis=0)) < 3.5 * sem + 1e-12)


# ---------------------------------------------------------------------------
# Serialization


def test_trajectory_round_trip(tmp_path):
    # a checkpoint keeps one replay row per trajectory of the last batch:
    # its start observation, full-length discounted return and length
    state = init_state(default_config("gridworld"), make_env("gridworld"))
    batch = sample_trajectories(state.env, state.policy, state.cfg.batch_m, state.cfg.horizon, rng_seed=(0, 1))
    state, _ = dual_ac_iteration(state)
    rows = state.last_batch
    assert any(traj.terminated for traj in batch) and not all(traj.terminated for traj in batch)
    assert len(rows) == len(batch)
    for row, traj in zip(rows, batch):
        assert row.start == traj.states[0] and row.n_steps == traj.n_steps
        assert row.mc_return == mc_return(traj, state.cfg.gamma)
    path = str(tmp_path / "checkpoint.json")
    save_checkpoint(path, state, env_name="gridworld")
    back = load_checkpoint(path).last_batch
    for name in ("starts", "returns", "n_steps"):
        a, b = getattr(rows, name), getattr(back, name)
        assert np.array_equal(a, b) and a.dtype == b.dtype and a.shape == b.shape, name


def test_traj_deltas_vector():
    env = make_env("chain2")
    policy = TabularSoftmaxPolicy(2, 2)
    trajs = sample_trajectories(env, policy, m=4, horizon=6, rng_seed=29)
    v = np.array([1.0, 2.0])
    out = traj_deltas(trajs, v, 0.5, k=1)
    assert out.shape == (4,)
    assert out[0] == pytest.approx(traj_delta(trajs[0], v, 0.5, k=1))
