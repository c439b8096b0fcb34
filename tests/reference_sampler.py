"""Reference for the lockstep sampler: trajectories rolled out one at a time,
one step at a time, on scalar environment kernels, each trajectory drawing
from its own generator as it goes.

`estimators.sample_trajectories` must give bitwise the same trajectories and
the same pendulum clip counts.
"""

from __future__ import annotations

import math

import numpy as np

from dualac.envs import PendulumEnv
from dualac.estimators import BatchRow
from dualac.policies import GaussianRbfPolicy


def _wrap_angle(theta: float) -> float:
    out = math.fmod(theta + math.pi, 2.0 * math.pi)
    if out <= 0.0:
        out += 2.0 * math.pi
    return out - math.pi


class ScalarTabular:
    def __init__(self, env):
        self.env = env
        self.clips = 0

    def initial_state(self, rng):
        return int(rng.choice(self.env.mdp.n_states, p=self.env.mdp.mu))

    def step_state(self, state, action, rng):
        mdp = self.env.mdp
        if not 0 <= action < mdp.n_actions:
            raise ValueError(f"action {action} out of range")
        reward = float(mdp.reward[state, action])
        return int(rng.choice(mdp.n_states, p=mdp.transition[state, action])), reward

    def observe(self, state):
        return int(state)

    def is_terminal(self, state) -> bool:
        return int(state) in self.env.terminal_states


class ScalarPendulum:
    def __init__(self, env: PendulumEnv):
        self.env = env
        self.clips = 0

    def initial_state(self, rng):
        return np.array([rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0)])

    def step_state(self, state, action, rng=None):
        e = self.env
        th, thdot = float(state[0]), float(state[1])
        u = float(np.asarray(action).reshape(-1)[0])
        if abs(u) > e.max_torque:
            self.clips += 1
            u = max(-e.max_torque, min(e.max_torque, u))
        reward = -(_wrap_angle(th) ** 2 + 0.1 * thdot**2 + 0.001 * u**2)
        thdot = thdot + (3.0 * e.g / (2.0 * e.l) * math.sin(th) + 3.0 * u / (e.m * e.l**2)) * e.dt
        thdot = max(-e.max_speed, min(e.max_speed, thdot))
        th = _wrap_angle(th + thdot * e.dt)
        return np.array([th, thdot]), reward

    def observe(self, state):
        th, thdot = float(state[0]), float(state[1])
        return np.array([math.cos(th), math.sin(th), thdot])

    def is_terminal(self, state) -> bool:
        return False


def features(fmap, s) -> np.ndarray:
    """The random Fourier features of one state, cos(F s / bandwidth + b),
    written out here so that the sampler's feature rows are checked against
    a formula of their own."""
    return np.cos(fmap.frequencies @ s / fmap.bandwidth + fmap.phases)


def _sample_action(policy, obs, rng):
    if isinstance(policy, GaussianRbfPolicy):
        mean = policy.weights @ features(policy.feature_map, obs)
        return mean + np.exp(policy.log_std) * rng.standard_normal(policy.action_dim)
    p = policy.prob_matrix()[obs]
    return int(rng.choice(policy.n_actions, p=p / p.sum()))


def sample_reference(env, policy, m: int, horizon: int, rng_seed):
    """(one BatchRow per trajectory, clipped actions) of the per-step loop."""
    kernel = ScalarPendulum(env) if isinstance(env, PendulumEnv) else ScalarTabular(env)
    seed_prefix = [int(s) for s in np.atleast_1d(rng_seed)]
    out = []
    for l in range(m):
        rng = np.random.default_rng(seed_prefix + [l])
        state = kernel.initial_state(rng)
        states = [kernel.observe(state)]
        actions, rewards = [], []
        for _ in range(horizon):
            if kernel.is_terminal(state):
                break
            a = _sample_action(policy, states[-1], rng)
            state, r = kernel.step_state(state, a, rng)
            actions.append(a)
            rewards.append(r)
            states.append(kernel.observe(state))
        out.append(
            BatchRow(np.array(states), np.array(actions), np.array(rewards), len(rewards), kernel.is_terminal(state))
        )
    return out, kernel.clips
