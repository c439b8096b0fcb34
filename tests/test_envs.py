import math

import numpy as np
import pytest
from scipy import stats

from dualac.envs import PendulumEnv, gridworld_5x5, make_env, two_state_chain, wrap_angle
from dualac.estimators import sample_trajectories
from dualac.mdp import greedy_policy, save_mdp, value_iteration
from dualac.policies import GaussianRbfPolicy, RbfFeatureMap


# ---------------------------------------------------------------------------
# Pendulum


def test_pendulum_upright_rest_is_free():
    env = PendulumEnv()
    state, action = np.array([[0.0, 0.0]]), np.array([[0.0]])
    nxt, reward = env.step_states(state, action), env.rewards(state, action)
    assert reward.tolist() == [0.0]
    assert np.allclose(nxt, state)


def test_pendulum_reward_symmetry():
    env = PendulumEnv()
    rng = np.random.default_rng(61)
    n = 25
    th = rng.uniform(-math.pi + 1e-6, math.pi, size=n)  # avoid the wrap boundary
    thdot = rng.uniform(-8, 8, size=n)
    u = rng.uniform(-2, 2, size=(n, 1))
    r1 = env.rewards(np.stack([th, thdot], axis=1), u)
    r2 = env.rewards(np.stack([-th, -thdot], axis=1), -u)
    assert np.allclose(r1, r2, rtol=0.0, atol=1e-12)


def test_pendulum_reward_bounds():
    env = PendulumEnv()
    rng = np.random.default_rng(62)
    lo = -(math.pi**2 + 0.1 * 64 + 0.001 * 4)
    states = np.stack([rng.uniform(-math.pi, math.pi, size=200), rng.uniform(-8, 8, size=200)], axis=1)
    r = env.rewards(states, rng.uniform(-2, 2, size=(200, 1)))
    assert np.all((lo - 1e-12 <= r) & (r <= 0.0))


def _starts(env, n, seed=0):
    """n start states drawn from one batch's seed sequence, as the sampler draws them."""
    return env.initial_states(env.draw_variates(np.random.SeedSequence(seed), n, 1)[0])


def test_pendulum_reset_deterministic_per_seed():
    env = PendulumEnv()
    assert np.array_equal(_starts(env, 2, 123), _starts(env, 2, 123))
    assert not np.array_equal(_starts(env, 1, 123), _starts(env, 1, 124))


def test_pendulum_reset_distribution():
    env = PendulumEnv()
    sins = env.observe(_starts(env, 10_000))[:, 1]
    # sin(theta) for theta ~ U(-pi, pi] has mean 0, variance 1/2
    assert abs(sins.mean()) < 3 * math.sqrt(0.5 / len(sins))


def test_pendulum_energy_drift_small():
    env = PendulumEnv()

    def energy(state):
        """Mechanical energy of the free rod: (1/6) m l^2 w^2 + (m g l / 2) cos(theta)."""
        th, thdot = state[:, 0], state[:, 1]
        return env.m * env.l**2 * thdot**2 / 6.0 + env.m * env.g * env.l * np.cos(th) / 2.0

    state = np.array([[math.pi, 1.0]])  # hanging down, gentle swing; no speed clamp
    e0 = energy(state)
    for _ in range(200):
        state = env.step_states(state, np.array([[0.0]]))
        assert abs(state[0, 1]) < 8.0
    assert abs(energy(state) - e0) / abs(e0) < 0.02


def test_pendulum_observation_and_horizon():
    env = PendulumEnv(horizon=5)
    fmap = RbfFeatureMap.create(10, env.spec.obs_dim, bandwidth=1.0, seed=3)
    policy = GaussianRbfPolicy(fmap, env.spec.action_dim, seed=4)
    batch = sample_trajectories(env, policy, m=3, horizon=env.spec.horizon, rng_seed=7, window=1)
    assert batch.obs.shape == (3, 6, 3) and np.all(batch.lengths == 5) and not batch.terminated.any()
    assert np.all(batch.rewards <= 0.0)
    states = np.array([[0.3, -1.5], [-2.0, 4.0]])
    obs = env.observe(states)
    assert obs.shape == (2, 3)
    assert np.array_equal(obs, [[math.cos(s[0]), math.sin(s[0]), s[1]] for s in states])


def test_pendulum_clips_and_counts():
    env = PendulumEnv()
    states = np.array([[0.5, 1.0], [0.5, 1.0], [0.5, 1.0]])
    before = env.clip_count
    actions, clipped = np.array([[10.0], [1.0], [-3.0]]), np.array([[2.0], [1.0], [-2.0]])
    nxt, reward = env.step_states(states, actions), env.rewards(states, actions)
    assert env.clip_count == before + 2
    want, want_reward = env.step_states(states, clipped), env.rewards(states, clipped)
    assert np.array_equal(nxt, want) and np.array_equal(reward, want_reward)
    assert env.clip_count == before + 2


def test_wrap_angle_range():
    for th in np.linspace(-10, 10, 401):
        w = wrap_angle(th)
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w) - math.sin(th)) < 1e-12


def test_kernels_leave_their_inputs_alone():
    """The kernels write into arrays of their own: the sampler hands them views
    of its state and observation histories, which must stay as they were."""
    rng = np.random.default_rng(64)
    pendulum, grid = PendulumEnv(), gridworld_5x5()
    fmap = RbfFeatureMap.create(10, 3, bandwidth=1.0, seed=5)
    # past the wrap and the speed cap, torques past their bound
    history = np.stack([rng.uniform(-10, 10, size=(6, 4)), rng.uniform(-12, 12, size=(6, 4))], axis=2)
    torques = rng.uniform(-4, 4, size=(6, 4, 1))
    cells, moves = rng.integers(0, 25, size=(6, 4)), rng.integers(0, 4, size=(6, 4))
    observed = np.stack([np.cos(history[..., 0]), np.sin(history[..., 0]), history[..., 1]], axis=2)
    cases = [
        (pendulum.step_states, history, torques, lambda h, a: (h[:, 1], a[:, 1])),
        (pendulum.rewards, history, torques, lambda h, a: (h[:, :3], a[:, :3])),
        (pendulum.observe, history, None, lambda h, _: (h[:, 2],)),
        (grid.step_states, cells, moves, lambda h, a: (h[:, 1], a[:, 1], np.full(6, 0.5))),
        (grid.rewards, cells, moves, lambda h, a: (h[:, :3], a[:, :3])),
        (wrap_angle, history, None, lambda h, _: (h[:, 0, 0],)),
        (fmap.rows, observed, None, lambda h, _: (h[:, 3],)),
    ]
    for kernel, states, actions, args in cases:
        kept = [np.copy(x) for x in (states, actions)]
        kernel(*args(states, actions))
        for x, was in zip((states, actions), kept):
            assert np.array_equal(x, was), kernel.__name__
    # wrap_angle also takes Python floats and 0-d arrays
    theta = np.array(-7.0)
    assert wrap_angle(theta) == wrap_angle(-7.0) == 2.0 * math.pi - 7.0 and theta == -7.0


def test_rewards_of_a_history_are_each_steps():
    """rewards on (m, n, ...) states and actions, as the sampler calls it once
    per batch, gives bitwise the rewards of each step's (m, ...) batch."""
    rng = np.random.default_rng(65)
    pendulum, grid = PendulumEnv(), gridworld_5x5()
    history = np.stack([rng.uniform(-10, 10, size=(7, 5)), rng.uniform(-8, 8, size=(7, 5))], axis=2)
    torques = rng.uniform(-4, 4, size=(7, 5, 1))
    cells, moves = rng.integers(0, 25, size=(7, 5)), rng.integers(0, 4, size=(7, 5))
    for env, states, actions in ((pendulum, history, torques), (grid, cells, moves)):
        whole = env.rewards(states, actions)
        assert whole.shape == (7, 5)
        for i in range(5):
            assert np.array_equal(whole[:, i], env.rewards(states[:, i], actions[:, i]))


# ---------------------------------------------------------------------------
# Tabular environments


def test_chain_as_tabular_passes_mdp_invariants():
    env = two_state_chain()
    mdp = env.as_tabular()  # TabularMdp validates on construction
    assert mdp.n_states == 2 and mdp.n_actions == 2


def test_chain_oracle_values():
    env = two_state_chain()
    v = value_iteration(env.as_tabular(), tol=1e-12)
    assert np.allclose(v, [1.0, 2.0], atol=1e-10)


def _greedy_rollouts(env, pi, n, gamma, seed=0):
    """(start states, discounted returns) of n greedy episodes drawn from one
    batch's seed sequence and stepped together on the batched kernels;
    absorbed rows collect no more reward."""
    start_u, _, step_u = env.draw_variates(np.random.SeedSequence(seed), n, env.spec.horizon)
    starts = env.initial_states(start_u)
    states, live = starts.copy(), ~env.is_terminal(starts)
    total, disc = np.zeros(n), 1.0
    for i in range(env.spec.horizon):
        actions = np.argmax(pi[states], axis=1)
        nxt, r = env.step_states(states, actions, step_u[:, i]), env.rewards(states, actions)
        total += live * disc * r
        disc *= gamma
        states = np.where(live, nxt, states)
        live &= ~env.is_terminal(states)
    return starts, total


def test_chain_simulated_return_matches_oracle():
    # deterministic chain and greedy policy: each episode's discounted return
    # equals V*(start) exactly (up to horizon truncation)
    env = two_state_chain(horizon=40)
    mdp = env.as_tabular()
    v_star = value_iteration(mdp, tol=1e-12)
    starts, returns = _greedy_rollouts(env, greedy_policy(mdp, v_star), 10, mdp.gamma)
    assert np.allclose(returns, v_star[starts], rtol=0.0, atol=1e-9)


def test_point_mass_start_always_s0():
    env = make_env("chain5")
    assert _starts(env, 20).tolist() == [0] * 20


def test_gridworld_simulated_return_matches_oracle():
    env = gridworld_5x5()
    mdp = env.as_tabular()
    v_star = value_iteration(mdp, tol=1e-12)
    n = 4000
    _, returns = _greedy_rollouts(env, greedy_policy(mdp, v_star), n, mdp.gamma)
    want = mdp.mu @ v_star
    se = returns.std(ddof=1) / math.sqrt(n)
    assert abs(returns.mean() - want) < 4 * se + 1e-6


def test_tabular_transition_frequencies_match_export():
    env = make_env("chain5", slip=0.2)
    mdp = env.as_tabular()
    rng = np.random.default_rng(63)
    n_per = 10_000
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            nxt = env.step_states(np.full(n_per, s), np.full(n_per, a), rng.random(n_per))
            counts = np.bincount(nxt, minlength=mdp.n_states).astype(float)
            expected = mdp.transition[s, a] * n_per
            keep = expected > 0
            assert np.all(counts[~keep] == 0)
            freq_err = np.max(np.abs(counts / n_per - mdp.transition[s, a]))
            assert freq_err < 0.01
            if keep.sum() > 1:
                p = stats.chisquare(counts[keep], expected[keep]).pvalue
                assert p > 0.001, (s, a, p)


def test_tabular_step_rejects_out_of_range_actions():
    env = two_state_chain()
    with pytest.raises(ValueError):
        env.step_states(np.array([0, 1]), np.array([0, 2]), np.array([0.5, 0.5]))


def test_gridworld_terminal_absorption_shortens_episode():
    env = gridworld_5x5()
    # moving right from cell 23 enters the goal, which then absorbs
    states, actions = np.array([23]), np.array([0])
    nxt, r = env.step_states(states, actions, np.array([0.5])), env.rewards(states, actions)
    assert nxt.tolist() == [24] and r.tolist() == [1.0] and env.is_terminal(nxt).tolist() == [True]
    states, actions = np.full(4, 24), np.arange(4)
    stay, r = env.step_states(states, actions, np.full(4, 0.5)), env.rewards(states, actions)
    assert stay.tolist() == [24] * 4 and r.tolist() == [0.0] * 4
    assert env.is_terminal(np.arange(25)).tolist() == [False] * 24 + [True]


def test_make_env_from_mdp_file(tmp_path):
    env = two_state_chain()
    path = tmp_path / "chain.json"
    save_mdp(env.as_tabular(), str(path))
    loaded = make_env(f"mdp:{path}", horizon=10)
    assert loaded.as_tabular().n_states == 2
    assert loaded.spec.horizon == 10


def test_make_env_unknown_name():
    with pytest.raises(KeyError):
        make_env("mujoco-walker")
