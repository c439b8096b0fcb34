import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualac.cli import default_config
from dualac.driver import dual_ac_iteration, init_state, load_checkpoint, save_checkpoint
from dualac.envs import TabularEnv, make_env
from dualac.estimators import (
    BatchRow,
    ReplayRows,
    alpha_closed_form,
    delta_means_by_start,
    exact_grad_pi,
    grad_pi_estimate,
    replay_rows,
    residuals,
    sample_trajectories,
    start_groups,
    traj_deltas,
    value_grad_terms,
)
from dualac.lagrangian import expected_delta_dp
from dualac.mdp import TabularMdp, policy_value
from dualac.policies import (
    BiasedFeatureMap,
    GaussianRbfPolicy,
    IndicatorFeatureMap,
    RbfFeatureMap,
    TabularSoftmaxPolicy,
)
from conftest import make_batch, make_single_state_mdp, tabular_deltas
from reference_lagrangian import alpha_objective
from reference_sampler import features, sample_reference
from reference_scores import tabular_score_rows


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
    batch = sample_trajectories(env, policy, m=5, horizon=4, rng_seed=0, window=1)
    other = sample_trajectories(env, policy, m=5, horizon=4, rng_seed=99, window=1)
    for name in ("obs", "actions", "rewards", "lengths", "terminated"):
        assert np.array_equal(getattr(batch, name), getattr(other, name)), name


def test_same_seed_bitwise_identical():
    env = make_env("chain5", slip=0.2)
    policy = TabularSoftmaxPolicy(5, 2, logits=np.random.default_rng(1).normal(size=(5, 2)))
    a = sample_trajectories(env, policy, m=8, horizon=20, rng_seed=42, window=1)
    b = sample_trajectories(env, policy, m=8, horizon=20, rng_seed=42, window=1)
    for name in ("obs", "actions", "rewards", "lengths", "terminated"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_bandit_action_frequency():
    mdp = make_single_state_mdp(n_actions=2)
    env = TabularEnv(mdp, horizon=1)
    policy = TabularSoftmaxPolicy(1, 2)  # uniform
    batch = sample_trajectories(env, policy, m=100_000, horizon=1, rng_seed=7, window=1)
    freq = np.mean(batch.actions[:, 0])
    assert abs(freq - 0.5) < 0.01


def test_gridworld_absorption_shortens():
    env = make_env("gridworld")
    policy = TabularSoftmaxPolicy(25, 4, logits=np.zeros((25, 4)))
    batch = sample_trajectories(env, policy, m=50, horizon=60, rng_seed=3, window=1)
    short = batch.lengths < 60
    assert short.any()
    assert np.all(batch.obs[short, batch.lengths[short]] == 24)


def test_terminal_starts_take_no_step():
    env = TabularEnv(make_env("chain2").as_tabular(), horizon=5, terminal_states=(0, 1))
    batch = sample_trajectories(env, TabularSoftmaxPolicy(2, 2), m=3, horizon=5, rng_seed=0, window=2)
    assert batch.lengths.tolist() == [0, 0, 0] and batch.terminated.all()
    assert batch.rewards.shape == batch.actions.shape == (3, 5)
    assert not batch.rewards.any() and not batch.actions.any() and len(batch.window().inputs) == 0


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
    got = sample_trajectories(env, policy, m, horizon, rng_seed, window=horizon)
    assert getattr(env, "clip_count", 0) - clips == want_clips
    assert len(got) == m
    for a, b in zip(got, want):
        for name in ("obs", "actions", "rewards"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), name
        assert a.n_steps == b.n_steps and a.terminated is b.terminated
    # the steps that rows took after their trajectory ended are padding
    padding = np.arange(horizon) >= got.lengths[:, None]
    assert not got.obs[:, 1:][padding].any() and not got.actions[padding].any() and not got.rewards[padding].any()


def _window_rows(batch):
    """Each trajectory's window inputs, cut from the stacked rows."""
    window = batch.window()
    return np.split(window.inputs, np.cumsum(window.steps)[:-1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    env_name=st.sampled_from(["chain2", "chain5", "gridworld", "pendulum"]),
    seed=st.integers(0, 2**31),
    scale=st.floats(0.0, 6.0),
    m=st.integers(1, 12),
    more=st.integers(1, 40),
    horizon=st.integers(1, 80),
    k=st.integers(0, 80),
    rng_seed=st.lists(st.integers(0, 2**31), min_size=1, max_size=2),
)
@example(env_name="chain5", seed=1, scale=0.0, m=5, more=20, horizon=64, k=3, rng_seed=[0])  # absorbing end
def test_trajectory_l_does_not_depend_on_m(env_name, seed, scale, m, more, horizon, k, rng_seed):
    # row l of every variate array is trajectory l's, whatever the batch size
    env, policy = _sampler_case(env_name, seed, scale, log_std=0.0)
    small = sample_trajectories(env, policy, m, horizon, rng_seed, window=k + 1)
    large = sample_trajectories(env, policy, m + more, horizon, rng_seed, window=k + 1)
    for a, b, x, y in zip(small, large, _window_rows(small), _window_rows(large)):
        for name in ("obs", "actions", "rewards"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.n_steps == b.n_steps and a.terminated is b.terminated
        assert np.array_equal(x, y)


@pytest.mark.parametrize("env_name", ["gridworld", "pendulum"])
def test_sampler_builds_a_fixed_number_of_generators(monkeypatch, env_name):
    # one generator per kind of draw, however many trajectories the batch holds
    built = []

    def counted(make):
        def wrapped(*args, **kwargs):
            built.append(make.__name__)
            return make(*args, **kwargs)

        return wrapped

    for name in ("default_rng", "Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
    env, policy = _sampler_case(env_name, seed=3, scale=1.0, log_std=0.0)
    counts = []
    for m in (1, 7, 300):
        built.clear()
        sample_trajectories(env, policy, m, 20, (3, 1), window=4)
        counts.append(len(built))
    assert counts == [3 if env.spec.tabular else 2] * 3


@pytest.mark.parametrize("env_name", ["gridworld", "pendulum"])
def test_window_inputs_are_the_policy_inputs_of_its_states(env_name):
    # the batch keeps the inputs that the sampler's action draws read at the
    # window's steps; they are bitwise what the policy gives for the
    # window's states, where trajectories end inside the window and where
    # the window is longer than the horizon too
    env, policy = _sampler_case(env_name, seed=7, scale=1.0, log_std=0.0)
    for k in (0, 3, 80):
        batch = sample_trajectories(env, policy, m=12, horizon=40, rng_seed=(7, k), window=k + 1)
        window = batch.window()
        inside = np.arange(batch.rewards.shape[1]) < window.steps[:, None]
        want = policy.inputs(batch.obs[:, :-1][inside])
        assert window.inputs.dtype == want.dtype and window.inputs.shape == want.shape
        assert np.array_equal(window.inputs, want)
        assert np.array_equal(window.steps, np.minimum(k + 1, batch.lengths))


def _batch_digest(batch) -> str:
    h = hashlib.sha256()
    for traj in batch:
        for arr in (traj.obs, traj.actions, traj.rewards):
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        h.update(b"T" if traj.terminated else b"F")
    return h.hexdigest()


# One batch per environment (m = 16, seed (5, 3)), hashed with _batch_digest
# from its trajectories, each cut to its length; (digest, steps, absorbed
# trajectories, clipped actions).  Captured when each batch's variates came
# to be drawn from one seed sequence (env.draw_variates), the pendulum's
# recaptured when the feature cosine became a float64 polynomial (moved by
# rounding); the same batches are the per-step reference's
# (tests/reference_sampler.py).
PINNED_BATCHES = {
    "chain2": ("967c3da16b236487fba11e612023ed5e36ee32fb6b6d24cd1fa63778667dc94d", 192, 0, 0),
    "chain5": ("d218e834f9ed31223bf04fcff700fa6d59f00605446f4891d43c54eca418524c", 320, 0, 0),
    "gridworld": ("dd6bc1764395b5b30523228886de825ec61694f9b390f95b65d436c7aa50602d", 874, 2, 0),
    "pendulum": ("f45bd9d35ca55a3dd16138f00bf40a6d13dbd086791efeb8f5e213bf002af2d5", 800, 0, 229),
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
        batch = sample_trajectories(env, policy, m=16, horizon=horizon, rng_seed=(5, 3), window=1)
        got = (
            _batch_digest(batch),
            int(batch.lengths.sum()),
            int(batch.terminated.sum()),
            getattr(env, "clip_count", 0) - clips,
        )
        assert got == PINNED_BATCHES[name], name


# ---------------------------------------------------------------------------
# Returns and deltas: the array estimators against a per-trajectory scalar
# reference (the loops that walked one trajectory at a time)


def _reference_row(value_map, s) -> np.ndarray:
    """grad v(s) = row(s) of one state, as the per-state value models computed it."""
    if isinstance(value_map, IndicatorFeatureMap):
        row = np.zeros(value_map.n_features)
        row[int(s)] = 1.0
        return row
    return np.append(features(value_map.base, s), 1.0)


def _reference_value(value_map, w, s) -> float:
    if isinstance(value_map, IndicatorFeatureMap):
        return float(w[int(s)])
    return float(w @ _reference_row(value_map, s))


def _reference_return(rewards, gamma, k=None) -> float:
    """Discounted return over the first min(k+1, length) steps (all steps if k is None)."""
    stop = len(rewards) if k is None else min(k + 1, len(rewards))
    return float(gamma ** np.arange(stop) @ rewards[:stop])


def _bootstraps(path: BatchRow, j: int) -> bool:
    return not (path.terminated and j == path.n_steps)


def _reference_delta(path: BatchRow, value_map, w, gamma, k) -> float:
    j = min(k + 1, path.n_steps)
    tail = gamma**j * _reference_value(value_map, w, path.obs[j]) if _bootstraps(path, j) else 0.0
    return float(_reference_return(path.rewards, gamma, k) + tail - _reference_value(value_map, w, path.obs[0]))


def _reference_delta_means(paths, deltas, n_states):
    """Per-state means of the deltas, summed trajectory by trajectory."""
    sums, counts = np.zeros(n_states), np.zeros(n_states, dtype=int)
    for path, delta in zip(paths, deltas):
        s0 = int(path.obs[0])
        sums[s0] += delta
        counts[s0] += 1
    means = np.zeros(n_states)
    seen = counts > 0
    means[seen] = sums[seen] / counts[seen]
    return means


def _per_state_delta_means(batch, deltas, n_states):
    """The tabular per-state means as an array expression, summed in batch order."""
    starts = batch.obs[:, 0]
    sums = np.zeros(n_states)
    np.add.at(sums, starts, deltas)
    counts = np.bincount(starts, minlength=n_states)
    means = np.zeros(n_states)
    seen = counts > 0
    means[seen] = sums[seen] / counts[seen]
    return means


def _grad_v_constant(paths, weights, value_map, gamma, k):
    """The lead and weighted residual terms of the sampled value gradient (all
    of it when eta_v is 0), walked trajectory by trajectory."""
    n = value_map.n_features
    lead = np.zeros(n)
    resid = np.zeros(n)
    for path, weight in zip(paths, weights):
        g0 = _reference_row(value_map, path.obs[0])
        j = min(k + 1, path.n_steps)
        lead += g0
        resid -= weight * g0
        if _bootstraps(path, j):
            resid += weight * gamma**j * _reference_row(value_map, path.obs[j])
    return (1.0 - gamma ** (k + 1)) * lead / len(paths) + resid / len(paths)


def _grad_v_reference(paths, weights, behavior_paths, value_map, w, gamma, k, eta_v):
    """The sampled value gradient at value parameters w, walked trajectory by
    trajectory and state by state."""
    grad = _grad_v_constant(paths, weights, value_map, gamma, k)
    if eta_v > 0:
        pen = np.zeros(value_map.n_features)
        for path in behavior_paths:
            v0, g0 = _reference_value(value_map, w, path.obs[0]), _reference_row(value_map, path.obs[0])
            pen += (_reference_return(path.rewards, gamma) - v0) * g0
        grad -= 2.0 * eta_v * pen / len(behavior_paths)
    return grad


def _quadratic_reference(paths, weights, behavior_paths, value_map, gamma, k, eta_v):
    """The (hessian, offset) of value_grad_terms by its definition, from the
    loop's constant and the behavior start rows R and returns G stacked
    trajectory by trajectory: (2 eta_v / n_b) R^T R and
    constant - (2 eta_v / n_b) R^T G, or zero and the constant at eta_v = 0."""
    constant = _grad_v_constant(paths, weights, value_map, gamma, k)
    if eta_v <= 0:
        return np.zeros((len(constant),) * 2), constant
    rows = np.array([_reference_row(value_map, path.obs[0]) for path in behavior_paths])
    returns = np.array([_reference_return(path.rewards, gamma) for path in behavior_paths])
    scale = 2.0 * eta_v / len(returns)
    return scale * (rows.T @ rows), constant - scale * (rows.T @ returns)


def test_mc_return_examples():
    batch = make_batch([(np.zeros(4, dtype=int), np.zeros(3, dtype=int), [1.0, 1.0, 1.0])])
    assert replay_rows(batch, 0.5).returns[0] == pytest.approx(1.75)
    # at v = 0, delta_k is the return over the first k+1 steps
    assert tabular_deltas(batch, [0.0], 0.5, k=0)[0] == pytest.approx(1.0)
    long = make_batch([(np.zeros(201, dtype=int), np.zeros(200, dtype=int), np.ones(200))])
    assert replay_rows(long, 0.995).returns[0] == pytest.approx((1 - 0.995**200) / 0.005)


def test_traj_delta_full_and_truncated():
    v = [2.0, -1.0, 0.5]
    full = make_batch([([0, 1, 2], [0, 0], [1.0, 3.0])])
    # k = 1: delta = 1 + 0.9*3 + 0.81*v(s2) - v(s0)
    assert tabular_deltas(full, v, 0.9, k=1)[0] == pytest.approx(1 + 2.7 + 0.81 * 0.5 - 2.0)
    short = make_batch([([0, 1], [0], [1.0])])
    # k = 3 but only one step: bootstrap at s_1 with gamma^1
    assert tabular_deltas(short, v, 0.9, k=3)[0] == pytest.approx(1 + 0.9 * (-1.0) - 2.0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    env_name=st.sampled_from(["chain2", "chain5", "gridworld", "pendulum"]),
    seed=st.integers(0, 2**31),
    scale=st.floats(0.0, 4.0),
    m=st.integers(1, 12),
    horizon=st.integers(1, 40),
    k=st.integers(0, 15),
)
@example(env_name="gridworld", seed=3, scale=0.0, m=12, horizon=40, k=10)  # 6 of 12 absorbed
@example(env_name="chain5", seed=1, scale=0.0, m=12, horizon=40, k=3)  # all 12 absorbed
@example(env_name="pendulum", seed=2, scale=1.0, m=5, horizon=8, k=10)  # every trajectory shorter than k+1
def test_array_estimators_match_per_trajectory_reference(env_name, seed, scale, m, horizon, k):
    # chain5 with an absorbing end and gridworld give absorbed trajectories,
    # and horizons below k+1 give trajectories shorter than the window
    env, policy = _sampler_case(env_name, seed, scale, log_std=0.0)
    rng = np.random.default_rng(seed)
    if env.spec.tabular:
        value_map = IndicatorFeatureMap(env.spec.n_states)
    else:
        value_map = BiasedFeatureMap(policy.feature_map)
    gamma = env.spec.gamma_hint
    batch = sample_trajectories(env, policy, m, horizon, (seed, 1), window=k + 1)
    previous = sample_trajectories(env, policy, int(rng.integers(1, 13)), horizon, (seed, 2), window=k + 1)
    paths = list(batch)

    # one residual table serves every value parameter vector
    res = residuals(batch, value_map.rows, gamma, k)
    for w in rng.normal(scale=3.0, size=(3, value_map.n_features)):
        deltas = traj_deltas(res, w)
        assert np.array_equal(deltas, [_reference_delta(p, value_map, w, gamma, k) for p in paths])
    rows = replay_rows(batch, gamma)
    assert np.array_equal(rows.returns, [_reference_return(p.rewards, gamma) for p in paths])
    # one start-weight rule: the per-state means indexed by start on tabular
    # envs, and the deltas themselves on the pendulum, whose starts are distinct
    means = delta_means_by_start(start_groups(batch), deltas)
    if env.spec.tabular:
        per_state = _per_state_delta_means(batch, deltas, env.spec.n_states)
        assert np.array_equal(per_state, _reference_delta_means(paths, deltas, env.spec.n_states))
        assert np.array_equal(means, per_state[batch.obs[:, 0]])
    else:
        assert len(np.unique(batch.obs[:, 0], axis=0)) == m
        assert np.array_equal(means, deltas)

    weights = rng.uniform(0.1, 2.0, size=m)
    behavior = (rows, replay_rows(previous, gamma))
    for eta_v in (0.0, 1.0):
        got = value_grad_terms(res, weights, behavior, value_map.rows, eta_v)
        want = _quadratic_reference(paths, weights, paths + list(previous), value_map, gamma, k, eta_v)
        assert all(map(np.array_equal, got, want)), eta_v


# ---------------------------------------------------------------------------
# Sampled estimators: fixed-point zeros, linearity, 1/sqrt(m) convergence


def test_grad_estimates_zero_at_fixed_point():
    mdp = make_single_state_mdp(n_actions=1)
    env = TabularEnv(mdp, horizon=6)
    policy = TabularSoftmaxPolicy(1, 1)
    batch = sample_trajectories(env, policy, m=4, horizon=6, rng_seed=5, window=3)
    # v = 10 is the fixed point: every delta vanishes
    g_pi, _ = grad_pi_estimate(batch.window(), tabular_deltas(batch, [10.0], 0.9, k=2), policy)
    assert np.allclose(g_pi, 0.0, atol=1e-12)


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        grad_pi_estimate(make_batch([]).window(), np.zeros(0), TabularSoftmaxPolicy(2, 2))


def test_sampled_estimators_converge_to_exact():
    # env whose mu equals the alpha weighting, so plain batch means estimate E_alpha^pi
    mdp = make_test_mdp(seed=139, mu=np.array([0.35, 0.65]))
    env = TabularEnv(mdp, horizon=8)
    rng = np.random.default_rng(149)
    policy = TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
    v = rng.normal(size=2)
    k = 1
    exact_pi = exact_grad_pi(mdp, v, mdp.mu, policy, k=k)
    for m in (100, 10_000):
        batch = sample_trajectories(env, policy, m=m, horizon=8, rng_seed=m, window=k + 1)
        per = tabular_deltas(batch, v, mdp.gamma, k)
        est_pi, _ = grad_pi_estimate(batch.window(), per, policy)
        # per-trajectory statistic scale bounds the batch-mean deviation
        sigma = max(per.std(), 1.0)
        bound = 6 * sigma / np.sqrt(m)
        assert np.max(np.abs(est_pi - exact_pi)) < bound, m


def _value_grad_cases():
    """(env, policy, value row map, horizon, k) covering absorbed tabular
    trajectories and continuous ones shorter than k+1 steps."""
    rng = np.random.default_rng(163)
    grid = make_env("gridworld")
    yield grid, TabularSoftmaxPolicy(25, 4, logits=rng.normal(size=(25, 4))), IndicatorFeatureMap(25), 60, 10
    chain = TabularEnv(make_env("chain5").as_tabular(), horizon=30, terminal_states=(4,))
    yield chain, TabularSoftmaxPolicy(5, 2, logits=rng.normal(size=(5, 2))), IndicatorFeatureMap(5), 30, 3
    pend = make_env("pendulum")
    fmap = RbfFeatureMap.create(30, pend.spec.obs_dim, bandwidth=1.5, seed=5)
    yield pend, GaussianRbfPolicy(fmap, pend.spec.action_dim, seed=3), BiasedFeatureMap(fmap), 8, 10


def test_value_models_are_linear_in_their_parameters():
    # the precondition of residuals and value_grad_terms: v(s) = w . row(s)
    # at every w, with each row of a batch bitwise the row of that state alone
    for env, policy, value_map, horizon, _ in _value_grad_cases():
        rng = np.random.default_rng(167)
        batch = sample_trajectories(env, policy, 6, horizon, rng_seed=23, window=1)
        states = np.concatenate([path.obs for path in batch])
        rows = value_map.rows(states)
        for s, row in zip(states, rows):
            assert np.array_equal(row, _reference_row(value_map, s))
        for w in rng.normal(size=(2, value_map.n_features)):
            assert np.array_equal(np.vecdot(rows, w), [_reference_value(value_map, w, s) for s in states])


def test_grad_v_terms_bitwise_match_trajectory_loop():
    rng = np.random.default_rng(173)
    for env, policy, v, horizon, k in _value_grad_cases():
        previous = sample_trajectories(env, policy, m=12, horizon=horizon, rng_seed=(29, 1), window=k + 1)
        batch = sample_trajectories(env, policy, m=12, horizon=horizon, rng_seed=(29, 2), window=k + 1)
        weights = rng.uniform(0.1, 2.0, size=12)
        if env.spec.tabular:
            assert batch.terminated.any()
        else:
            assert np.all(batch.lengths < k + 1)
        behavior = list(batch) + list(previous)
        rows = (replay_rows(batch, env.spec.gamma_hint), replay_rows(previous, env.spec.gamma_hint))
        res = residuals(batch, v.rows, env.spec.gamma_hint, k)
        for eta_v in (0.0, 1.0):
            hessian, offset = value_grad_terms(res, weights, rows, v.rows, eta_v)
            want = _quadratic_reference(list(batch), weights, behavior, v, env.spec.gamma_hint, k, eta_v)
            assert np.array_equal(hessian, want[0]) and np.array_equal(offset, want[1]), (env.spec, eta_v)
            for _ in range(4):
                w = rng.normal(scale=3.0, size=v.n_features)
                want = _grad_v_reference(list(batch), weights, behavior, v, w, env.spec.gamma_hint, k, eta_v)
                # the quadratic that the inner fit descends: the loop's gradient up to rounding
                scale = np.abs(offset).max() + np.abs(hessian).max() * np.abs(w).sum()
                assert np.allclose(offset + hessian @ w, want, rtol=0.0, atol=1e-13 * scale), (env.spec, eta_v)


def test_grad_v_terms_reject_empty_batches():
    env = make_env("chain5")
    batch = sample_trajectories(env, TabularSoftmaxPolicy(5, 2), m=3, horizon=5, rng_seed=31, window=2)
    rows, weights = IndicatorFeatureMap(5).rows, np.ones(3)
    behavior = (replay_rows(batch, 0.9), ReplayRows())
    with pytest.raises(ValueError):
        value_grad_terms(residuals(make_batch([]), rows, 0.9, k=1), np.zeros(0), behavior, rows, 1.0)
    res = residuals(batch, rows, 0.9, k=1)
    # no behavior rows at eta_v = 0, not even of a nonempty previous batch
    built = []
    spy = lambda states: built.append(states) or rows(states)
    hessian, offset = value_grad_terms(res, weights, (behavior[0], behavior[0]), spy, eta_v=0.0)
    assert built == [] and np.array_equal(hessian, np.zeros((5, 5)))
    # the batch's own start rows are always there: an empty previous batch adds none
    hessian, offset = value_grad_terms(res, weights, behavior, spy, eta_v=1.0)
    assert built == [] and np.array_equal(hessian, 2.0 / 3 * (res.starts.T @ res.starts))


def test_grad_v_single_state_hand_value():
    mdp = make_single_state_mdp()  # R=1, gamma=0.9
    env = TabularEnv(mdp, horizon=300)
    policy = TabularSoftmaxPolicy(1, 1)
    batch = sample_trajectories(env, policy, m=3, horizon=300, rng_seed=17, window=1)
    rows = IndicatorFeatureMap(1).rows
    k, eta_v = 0, 0.5
    behavior = (replay_rows(batch, 0.9), ReplayRows())
    hessian, offset = value_grad_terms(residuals(batch, rows, 0.9, k), np.ones(3), behavior, rows, eta_v)
    got = offset + hessian @ np.array([8.0])
    G = (1 - 0.9**300) / 0.1
    # lead and residual terms cancel ((1-g) + (g-1)); penalty remains
    want = -2 * eta_v * (G - 8.0)
    assert got == pytest.approx([want], abs=1e-9)
    assert np.array_equal(hessian, [[2 * eta_v]]) and offset == pytest.approx([-2 * eta_v * G], abs=1e-9)


def test_grad_v_penalty_vanishes_at_behavior_value():
    env = make_env("chain5", slip=0.1, horizon=400)
    mdp = env.as_tabular()
    rng = np.random.default_rng(151)
    policy = TabularSoftmaxPolicy(5, 2, logits=rng.normal(size=(5, 2)))
    batch = sample_trajectories(env, policy, m=400, horizon=400, rng_seed=19, window=1)
    value_rows, weights = IndicatorFeatureMap(5).rows, np.ones(400)
    v_b = policy_value(mdp, policy.prob_matrix())
    res, rows = residuals(batch, value_rows, mdp.gamma, k=0), (replay_rows(batch, mdp.gamma), ReplayRows())
    hessian, offset = value_grad_terms(res, weights, rows, value_rows, eta_v=1.0)
    _, no_pen = value_grad_terms(res, weights, rows, value_rows, eta_v=0.0)
    penalty_part = offset + hessian @ v_b - no_pen
    assert np.max(np.abs(penalty_part)) < 0.2  # MC/truncation noise only


# ---------------------------------------------------------------------------
# Closed-form alpha update


def test_alpha_closed_form_examples():
    assert alpha_closed_form(np.array([-2.0]), 1.0) == pytest.approx([0.0])
    assert alpha_closed_form(np.array([3.0]), 2.0) == pytest.approx([1.5])
    assert alpha_closed_form(np.array([0.0]), 2.0) == pytest.approx([0.0])
    with pytest.raises(ValueError):
        alpha_closed_form(np.array([1.0]), 0.0)


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
    batch = make_batch([([0, 1], [0], [1.0]), ([0, 2], [0], [3.0]), ([2, 1], [1], [5.0])])
    means = delta_means_by_start(start_groups(batch), tabular_deltas(batch, np.zeros(3), 0.9, k=0))
    assert means.shape == (3,)
    assert means[0] == pytest.approx(2.0) and means[1] == pytest.approx(2.0)
    assert means[2] == pytest.approx(5.0)


def test_delta_means_by_start_shared_continuous_start():
    # two pendulum trajectories from one start observation share the mean of
    # their deltas; the third start is alone
    s0, s1 = [1.0, 0.0, 0.5], [0.0, 1.0, -0.5]
    obs = np.array([[s0, s1], [s1, s0], [s0, s0]])
    batch = make_batch([(o, np.zeros((1, 1)), [0.0]) for o in obs])
    means = delta_means_by_start(start_groups(batch), np.array([1.0, 4.0, 6.0]))
    assert means.tolist() == [3.5, 4.0, 3.5]


# ---------------------------------------------------------------------------
# Score functions have zero mean


def test_score_zero_mean_softmax():
    rng = np.random.default_rng(173)
    policy = TabularSoftmaxPolicy(1, 3, logits=rng.normal(size=(1, 3)))
    m = 20_000
    actions = policy.action_sampler()(np.zeros(m, dtype=int), rng.random(m))
    scores = tabular_score_rows(policy, np.zeros(m, dtype=int), actions)
    sem = scores.std(axis=0) / np.sqrt(m)
    assert np.all(np.abs(scores.mean(axis=0)) < 3 * sem + 1e-12)


def test_score_zero_mean_gaussian():
    fmap = RbfFeatureMap.create(5, 2, bandwidth=1.0, seed=179)
    policy = GaussianRbfPolicy(fmap, action_dim=1, seed=181)
    rng = np.random.default_rng(191)
    s = np.array([0.4, -0.6])
    m = 20_000
    phi = policy.inputs(np.tile(s, (m, 1)))
    actions = policy.action_sampler()(phi, rng.standard_normal((m, policy.action_dim)))
    scores = policy.score_batch(phi, actions).rows
    sem = scores.std(axis=0) / np.sqrt(m)
    assert np.all(np.abs(scores.mean(axis=0)) < 3.5 * sem + 1e-12)


# ---------------------------------------------------------------------------
# Serialization


def test_trajectory_round_trip(tmp_path):
    # a checkpoint keeps one replay row per trajectory of the last batch:
    # its start observation, full-length discounted return and length
    state = init_state(default_config("gridworld"), make_env("gridworld"))
    cfg = state.cfg
    batch = sample_trajectories(state.env, state.policy, cfg.batch_m, cfg.horizon, rng_seed=(0, 1), window=cfg.k + 1)
    state, _ = dual_ac_iteration(state)
    rows = state.last_batch
    assert batch.terminated.any() and not batch.terminated.all()
    assert len(rows) == len(batch)
    for row, traj in zip(rows, batch):
        assert row.start == traj.obs[0] and row.n_steps == traj.n_steps
        assert row.mc_return == _reference_return(traj.rewards, state.cfg.gamma)
    path = str(tmp_path / "checkpoint.json")
    save_checkpoint(path, state)
    back = load_checkpoint(path).last_batch
    for name in ("starts", "returns", "n_steps"):
        a, b = getattr(rows, name), getattr(back, name)
        assert np.array_equal(a, b) and a.dtype == b.dtype and a.shape == b.shape, name


def test_traj_deltas_vector():
    env = make_env("chain2")
    policy = TabularSoftmaxPolicy(2, 2)
    batch = sample_trajectories(env, policy, m=4, horizon=6, rng_seed=29, window=2)
    w = np.array([1.0, 2.0])
    out = tabular_deltas(batch, w, 0.5, k=1)
    assert out.shape == (4,)
    assert out[0] == pytest.approx(_reference_delta(next(iter(batch)), IndicatorFeatureMap(2), w, 0.5, k=1))
