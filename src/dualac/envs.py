"""Desk-scale environments as pure kernels on batches of states.

Tabular environments wrap an explicit TabularMdp (so their simulation
statistics are checkable against the exact oracles), and the pendulum is the
classic torque-limited swing-up task with semi-implicit Euler dynamics.

Every kernel works on m states at once, held as (m, ...) arrays, and takes
its randomness as variates drawn beforehand:

* draw_variates(seq, m, horizon) - a whole batch's random variates from one
  np.random.SeedSequence, as (start_u, action_u, step_u) arrays of m rows.
  Each array comes from one call on its own spawned child of seq (children
  0, 1 and 2: starts, action draws, transitions), filled row by row, so row
  l is trajectory l's and is the same for every m > l;
* initial_states(u) / step_states(states, actions, u) / observe(states) /
  is_terminal(states) - the batched kernels the lockstep sampler calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp, load_mdp


@dataclass(frozen=True)
class EnvSpec:
    horizon: int
    gamma_hint: float
    tabular: bool
    n_states: int | None = None
    n_actions: int | None = None
    obs_dim: int | None = None
    action_dim: int | None = None
    action_low: float | None = None
    action_high: float | None = None


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn by each uniform u against the cumulative probabilities
    along cdf's last axis: the count of entries <= u.  With
    cdf = cumsum(p) / cumsum(p)[-1] this is the index that
    Generator.choice(len(p), p=p) draws from the same uniform."""
    return (cdf <= u[:, None]).sum(axis=-1)


def cumulative(p: np.ndarray) -> np.ndarray:
    """cumsum(p) / cumsum(p)[-1] along the last axis, as Generator.choice builds it."""
    cdf = np.cumsum(p, axis=-1)
    return cdf / cdf[..., -1:]


class TabularEnv:
    """Finite MDP simulator; absorbing terminals are zero-reward self-loops."""

    start_draws = 1  # uniforms per start state

    def __init__(self, mdp: TabularMdp, horizon: int, terminal_states=(), name: str = "tabular"):
        self.mdp = mdp
        self.name = name
        self.terminal_states = frozenset(int(s) for s in terminal_states)
        self.spec = EnvSpec(
            horizon=horizon,
            gamma_hint=mdp.gamma,
            tabular=True,
            n_states=mdp.n_states,
            n_actions=mdp.n_actions,
        )
        self._start_cdf = cumulative(mdp.mu)
        self._step_cdf = cumulative(mdp.transition)
        self._terminal = np.isin(np.arange(mdp.n_states), list(self.terminal_states))

    def draw_variates(self, seq: np.random.SeedSequence, m: int, horizon: int):
        """Uniforms for m trajectories from seq's next three spawned children:
        the start states' (m,), the policy's action draws (m, horizon) and
        the transitions' (m, horizon)."""
        starts, draws, steps = map(np.random.default_rng, seq.spawn(3))
        return starts.random(m), draws.random((m, horizon)), steps.random((m, horizon))

    def initial_states(self, u: np.ndarray) -> np.ndarray:
        return inverse_cdf(self._start_cdf, u)

    def step_states(self, states: np.ndarray, actions: np.ndarray, u: np.ndarray):
        """(next states, rewards) of a batch of (state, action) pairs."""
        if np.any((actions < 0) | (actions >= self.mdp.n_actions)):
            raise ValueError(f"action out of range 0..{self.mdp.n_actions - 1}")
        return inverse_cdf(self._step_cdf[states, actions], u), self.mdp.reward[states, actions]

    def observe(self, states: np.ndarray) -> np.ndarray:
        return states

    def is_terminal(self, states: np.ndarray) -> np.ndarray:
        return self._terminal[states]

    def as_tabular(self) -> TabularMdp:
        return self.mdp


class PendulumEnv:
    """Torque-limited swing-up: state (theta, theta_dot), theta = 0 upright.

    Dynamics are semi-implicit Euler with the standard classic-control
    constants (g = 10, m = l = 1, dt = 0.05, torque bound 2, speed cap 8);
    the per-step reward is -(wrap(theta)^2 + 0.1 theta_dot^2 + 0.001 u^2)
    evaluated before the state update.  Episodes run a fixed horizon.
    clip_count counts the actions whose torque was clipped to the bound.
    """

    start_draws = 2  # uniforms per start state: theta, then theta_dot

    def __init__(
        self,
        g: float = 10.0,
        m: float = 1.0,
        l: float = 1.0,
        dt: float = 0.05,
        max_torque: float = 2.0,
        max_speed: float = 8.0,
        horizon: int = 200,
        gamma_hint: float = 0.995,
    ):
        self.g, self.m, self.l, self.dt = g, m, l, dt
        self.max_torque, self.max_speed = max_torque, max_speed
        self.name = "pendulum"
        self.spec = EnvSpec(
            horizon=horizon,
            gamma_hint=gamma_hint,
            tabular=False,
            obs_dim=3,
            action_dim=1,
            action_low=-max_torque,
            action_high=max_torque,
        )
        self.clip_count = 0

    def draw_variates(self, seq: np.random.SeedSequence, m: int, horizon: int):
        """Variates for m trajectories from seq's next two spawned children:
        the start states' uniforms (m, start_draws) and the Gaussian policy's
        standard normal action noise (m, horizon, action_dim); transitions
        are deterministic and draw nothing."""
        starts, draws = map(np.random.default_rng, seq.spawn(2))
        return starts.random((m, self.start_draws)), draws.standard_normal((m, horizon, self.spec.action_dim)), None

    def initial_states(self, u: np.ndarray) -> np.ndarray:
        """theta ~ U(-pi, pi), theta_dot ~ U(-1, 1), as low + (high - low) * u."""
        lows, highs = np.array([-math.pi, -1.0]), np.array([math.pi, 1.0])
        return lows + (highs - lows) * u

    def step_states(self, states: np.ndarray, actions: np.ndarray, u=None):
        """(next states, rewards) of a batch: states (m, 2), actions (m, action_dim);
        transitions are deterministic, so u is unused.

        Squares are np.float_power, the libm pow of Python's x ** 2: x * x
        rounds differently in about 0.1% of values."""
        th, thdot = states[:, 0], states[:, 1]
        torque = actions[:, 0]
        self.clip_count += int(np.count_nonzero(np.abs(torque) > self.max_torque))
        torque = np.clip(torque, -self.max_torque, self.max_torque)
        sq = np.float_power
        rewards = -(sq(wrap_angle(th), 2) + 0.1 * sq(thdot, 2) + 0.001 * sq(torque, 2))
        thdot = thdot + (3.0 * self.g / (2.0 * self.l) * np.sin(th) + 3.0 * torque / (self.m * self.l**2)) * self.dt
        thdot = np.clip(thdot, -self.max_speed, self.max_speed)
        th = wrap_angle(th + thdot * self.dt)
        return np.stack([th, thdot], axis=1), rewards

    def observe(self, states: np.ndarray) -> np.ndarray:
        th, thdot = states[:, 0], states[:, 1]
        return np.stack([np.cos(th), np.sin(th), thdot], axis=1)

    def is_terminal(self, states: np.ndarray) -> np.ndarray:
        return np.zeros(len(states), dtype=bool)

    def as_tabular(self):
        raise NotImplementedError("the pendulum has no tabular representation")


def wrap_angle(theta):
    """Wrap to (-pi, pi], elementwise."""
    out = np.fmod(theta + math.pi, 2.0 * math.pi)
    out = np.where(out <= 0.0, out + 2.0 * math.pi, out)
    return out - math.pi


# ---------------------------------------------------------------------------
# Builders


def two_state_chain(gamma: float = 0.5, horizon: int = 32, mu0: float = 0.9) -> TabularEnv:
    """Hand-solvable chain: s0 -(a1)-> s1, s1 pays 1 forever; V* = (1, 2) at gamma = 0.5.

    Starts are spread over both states (mu0 on s0) so that every value
    coordinate is anchored when training on sampled starts.
    """
    P = np.zeros((2, 2, 2))
    P[0, 0, 0] = 1.0
    P[0, 1, 1] = 1.0
    P[1, :, 1] = 1.0
    R = np.array([[0.0, 0.0], [1.0, 1.0]])
    mdp = TabularMdp(P, R, gamma, np.array([mu0, 1.0 - mu0]))
    return TabularEnv(mdp, horizon=horizon, name="chain2")


def five_state_chain(gamma: float = 0.9, slip: float = 0.1, horizon: int = 64) -> TabularEnv:
    """Five states in a line with slip; sitting at the right end pays 1 per step."""
    S, A = 5, 2
    P = np.zeros((S, A, S))
    for s in range(S):
        left, right = max(s - 1, 0), min(s + 1, S - 1)
        P[s, 0, left] += 1.0 - slip
        P[s, 0, right] += slip
        P[s, 1, right] += 1.0 - slip
        P[s, 1, left] += slip
    R = np.zeros((S, A))
    R[S - 1, :] = 1.0
    mu = np.zeros(S)
    mu[0] = 1.0
    mdp = TabularMdp(P, R, gamma, mu)
    return TabularEnv(mdp, horizon=horizon, name="chain5")


def gridworld_5x5(gamma: float = 0.9, horizon: int = 60) -> TabularEnv:
    """5x5 grid, deterministic moves, absorbing goal at the bottom-right corner.

    Reward 1 on the transition that enters the goal; uniform start over the
    24 non-goal cells.
    """
    side = 5
    S, A = side * side, 4
    goal = S - 1
    moves = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # right, down, left, up
    P = np.zeros((S, A, S))
    R = np.zeros((S, A))
    for s in range(S):
        x, y = s % side, s // side
        for a, (dx, dy) in enumerate(moves):
            if s == goal:
                P[s, a, s] = 1.0
                continue
            nx = min(max(x + dx, 0), side - 1)
            ny = min(max(y + dy, 0), side - 1)
            ns = ny * side + nx
            P[s, a, ns] = 1.0
            if ns == goal:
                R[s, a] = 1.0
    mu = np.full(S, 1.0 / (S - 1))
    mu[goal] = 0.0
    mdp = TabularMdp(P, R, gamma, mu)
    return TabularEnv(mdp, horizon=horizon, terminal_states=(goal,), name="gridworld")


_REGISTRY = {
    "chain2": two_state_chain,
    "chain5": five_state_chain,
    "gridworld": gridworld_5x5,
    "pendulum": PendulumEnv,
}


def make_env(name: str, **overrides):
    """Instantiate a registered environment, or load `mdp:<path>` as a TabularEnv."""
    if name.startswith("mdp:"):
        mdp = load_mdp(name[4:])
        return TabularEnv(mdp, horizon=int(overrides.get("horizon", 100)), name=name)
    if name not in _REGISTRY:
        raise KeyError(f"unknown environment {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**overrides)
