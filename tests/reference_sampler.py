"""Reference for the lockstep sampler: trajectories rolled out one at a time,
one step at a time, on scalar environment kernels, each trajectory drawing
as it goes from its own generators.

The batch's seed sequence spawns one child per kind of draw (starts, action
draws, transitions), and row l of each child's stream is trajectory l's.  So
trajectory l's generators are the children's, positioned at row l: uniforms
take one 64-bit output each, and PCG64.advance skips the l rows before it;
standard normals take a varying number of outputs, so the pendulum's action
generator first draws the l rows of noise before it.  Tabular draws are
Generator.choice on the MDP's probabilities and the pendulum's starts
Generator.uniform, not the sampler's inverse-CDF and affine maps of its
arrays.

`estimators.sample_trajectories` must give bitwise the same trajectories and
the same pendulum clip counts.
"""

from __future__ import annotations

import math

import numpy as np

from dualac.envs import PendulumEnv
from dualac.estimators import BatchRow
from dualac.policies import _COS_TURN_COEFFS, GaussianRbfPolicy


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
    a formula of their own: one state's product, its argument in turns less
    the nearest whole turn, t, and the package's cosine polynomial in t^2
    by np.polyval."""
    z = fmap.frequencies @ s / fmap.bandwidth + fmap.phases
    t = z * (0.5 / np.pi)
    t -= np.rint(t)
    return np.polyval(_COS_TURN_COEFFS, t * t)


def _sample_action(policy, obs, rng):
    if isinstance(policy, GaussianRbfPolicy):
        mean = policy.weights @ features(policy.feature_map, obs)
        return mean + np.exp(policy.log_std) * rng.standard_normal(policy.action_dim)
    p = policy.prob_matrix()[obs]
    return int(rng.choice(len(p), p=p / p.sum()))


def _advanced(child, outputs: int) -> np.random.Generator:
    """A generator on child's stream past its first `outputs` 64-bit outputs."""
    bits = np.random.PCG64(child)
    bits.advance(outputs)
    return np.random.Generator(bits)


def _row_generators(env, children, l: int, horizon: int):
    """Trajectory l's (start, action, transition) generators."""
    start = _advanced(children[0], l * env.start_draws)
    if isinstance(env, PendulumEnv):
        draws = np.random.default_rng(children[1])
        draws.standard_normal((l, horizon, env.spec.action_dim))
        return start, draws, None
    return start, _advanced(children[1], l * horizon), _advanced(children[2], l * horizon)


def sample_reference(env, policy, m: int, horizon: int, rng_seed):
    """(one BatchRow per trajectory, clipped actions) of the per-step loop."""
    kernel = ScalarPendulum(env) if isinstance(env, PendulumEnv) else ScalarTabular(env)
    children = np.random.SeedSequence([int(s) for s in np.atleast_1d(rng_seed)]).spawn(3)
    out = []
    for l in range(m):
        start_rng, action_rng, step_rng = _row_generators(env, children, l, horizon)
        state = kernel.initial_state(start_rng)
        states = [kernel.observe(state)]
        actions, rewards = [], []
        for _ in range(horizon):
            if kernel.is_terminal(state):
                break
            a = _sample_action(policy, states[-1], action_rng)
            state, r = kernel.step_state(state, a, step_rng)
            actions.append(a)
            rewards.append(r)
            states.append(kernel.observe(state))
        out.append(
            BatchRow(np.array(states), np.array(actions), np.array(rewards), len(rewards), kernel.is_terminal(state))
        )
    return out, kernel.clips
