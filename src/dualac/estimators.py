"""Trajectory sampling and the stochastic gradient/update estimators.

Conventions that matter here:

* delta is the discounted k-step residual of a trajectory,
  sum_{i<=k} gamma^i r_i + gamma^{k+1} v(s_{k+1}) - v(s_0).  Trajectories
  that end early (terminal absorption) bootstrap with v at their last state
  and the discount exponent shrinks accordingly.
* Start states are always drawn from the environment's fixed initial
  distribution; the dual weighting enters through Trajectory.start_weight,
  carrying (tilde_alpha(s_0) + eta_mu).  The policy gradient and the residual
  part of the value gradient are weighted; the lead E_mu terms are not.
* The exact_grad_* functions are the exhaustive-expectation forms of the
  same estimators, used by the tabular verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lagrangian import iter_paths
from .mdp import TabularMdp, policy_value, validate_policy


@dataclass
class Trajectory:
    states: np.ndarray   # (n+1, ...) observations, including the final one
    actions: np.ndarray  # (n, ...)
    rewards: np.ndarray  # (n,)
    start_weight: float = 1.0
    terminated: bool = False  # ended by absorption (last state is terminal)

    def __post_init__(self):
        self.states = np.asarray(self.states)
        self.actions = np.asarray(self.actions)
        self.rewards = np.asarray(self.rewards, dtype=float)
        n = len(self.rewards)
        if len(self.actions) != n or len(self.states) != n + 1:
            raise ValueError("trajectory needs n+1 states for n actions/rewards")
        if self.start_weight < 0:
            raise ValueError("start_weight must be nonnegative")

    @property
    def n_steps(self) -> int:
        return len(self.rewards)

    def bootstraps_at(self, j: int) -> bool:
        """Whether the value function is evaluated at states[j] in delta_k.

        Absorbing terminal states are zero-reward self-loops, so their exact
        value is 0 and absorbed trajectories bootstrap with 0 instead of the
        learned v (which the sampled objective could never anchor there).
        """
        return not (self.terminated and j == self.n_steps)


def sample_trajectories(env, policy, m: int, horizon: int, rng_seed) -> list[Trajectory]:
    """Roll out m trajectories of length <= horizon under the given policy,
    all m in lockstep.

    Trajectory l consumes its own random stream, seeded by (rng_seed..., l)
    and drawn up front (env.draw_variates), so each trajectory is
    reproducible, independent of the others and of m, and bitwise the one
    that stepping it alone would give.  rng_seed may be an int or a sequence
    of ints.
    """
    if m < 1 or horizon < 1:
        raise ValueError("m and horizon must be >= 1")
    seed_prefix = [int(s) for s in np.atleast_1d(rng_seed)]
    streams = [env.draw_variates(np.random.default_rng(seed_prefix + [l]), horizon) for l in range(m)]
    start_u, action_u, step_u = (None if part[0] is None else np.array(part) for part in zip(*streams))
    state = env.initial_states(start_u)
    first = env.observe(state)
    obs = np.zeros((m, horizon + 1) + first.shape[1:], dtype=first.dtype)
    obs[:, 0] = first
    actions, rewards = None, np.zeros((m, horizon))
    lengths = np.zeros(m, dtype=int)
    draw = policy.action_sampler()
    live = np.flatnonzero(~env.is_terminal(state))
    for i in range(horizon):
        if live.size == 0:
            break
        a = draw(obs[live, i], action_u[live, i])
        nxt, r = env.step_states(state[live], a, None if step_u is None else step_u[live, i])
        if actions is None:
            actions = np.zeros((m, horizon) + a.shape[1:], dtype=a.dtype)
        state[live] = nxt
        obs[live, i + 1] = env.observe(nxt)
        actions[live, i] = a
        rewards[live, i] = r
        lengths[live] += 1
        live = live[~env.is_terminal(nxt)]
    if actions is None:  # every start was terminal
        actions = np.zeros((m, 0))
    terminated = env.is_terminal(state)
    return [
        Trajectory(obs[l, : n + 1], actions[l, :n], rewards[l, :n], terminated=bool(terminated[l]))
        for l, n in enumerate(lengths)
    ]


def mc_return(traj: Trajectory, gamma: float, k: int | None = None) -> float:
    """Discounted return over the first min(k+1, length) steps (all steps if k is None)."""
    n = traj.n_steps
    stop = n if k is None else min(k + 1, n)
    disc = gamma ** np.arange(stop)
    return float(disc @ traj.rewards[:stop])


class ReplayRow(NamedTuple):
    start: np.ndarray  # observation s_0
    mc_return: float   # full-length discounted return
    n_steps: int


@dataclass(frozen=True, eq=False)
class ReplayRows:
    """What the inner value fit's behavior replay reads of a past batch, one
    row per trajectory: its start observation, full-length mc_return and
    n_steps.  Held by column; iterating yields a ReplayRow per trajectory."""

    starts: np.ndarray = field(default_factory=lambda: np.zeros(0))
    returns: np.ndarray = field(default_factory=lambda: np.zeros(0))
    n_steps: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __len__(self) -> int:
        return len(self.returns)

    def __iter__(self):
        return map(ReplayRow, self.starts, self.returns, self.n_steps)


def replay_rows(trajs, gamma: float) -> ReplayRows:
    return ReplayRows(
        starts=np.array([traj.states[0] for traj in trajs]),
        returns=np.array([mc_return(traj, gamma) for traj in trajs]),
        n_steps=np.array([traj.n_steps for traj in trajs], dtype=int),
    )


def _value_fn(v):
    if hasattr(v, "value"):
        return v.value
    if callable(v):
        return v
    vec = np.asarray(v, dtype=float)
    return lambda s: float(vec[int(s)])


def traj_delta(traj: Trajectory, v, gamma: float, k: int) -> float:
    """delta_k of a trajectory, bootstrapping at the last state when shorter
    than k+1 steps (with 0 instead of v there if that state is terminal)."""
    vf = _value_fn(v)
    j = min(k + 1, traj.n_steps)
    tail = gamma**j * vf(traj.states[j]) if traj.bootstraps_at(j) else 0.0
    return float(mc_return(traj, gamma, k) + tail - vf(traj.states[0]))


class SoftmaxStartWeighting:
    """Softmax distribution over start states; the tabular theta_alpha vehicle."""

    def __init__(self, n_states: int, logits: np.ndarray | None = None):
        self.logits = np.zeros(n_states) if logits is None else np.array(logits, dtype=float)

    def distribution(self) -> np.ndarray:
        z = self.logits - self.logits.max()
        e = np.exp(z)
        return e / e.sum()

    def log_grad(self, state: int) -> np.ndarray:
        g = -self.distribution()
        g[int(state)] += 1.0
        return g

    def get_params(self) -> np.ndarray:
        return self.logits.copy()

    def set_params(self, flat: np.ndarray) -> None:
        self.logits = np.asarray(flat, dtype=float).copy()


def grad_alpha_estimate(trajs, v, start_model, gamma: float, k: int) -> np.ndarray:
    """Batch mean of delta_k(tau) * grad log alpha(s_0)."""
    if not trajs:
        raise ValueError("empty trajectory batch")
    total = None
    for traj in trajs:
        g = traj_delta(traj, v, gamma, k) * start_model.log_grad(traj.states[0])
        total = g if total is None else total + g
    return total / len(trajs)


def grad_pi_estimate(trajs, deltas, policy, k: int) -> np.ndarray:
    """Batch mean of start_weight * delta_k(tau) * sum_i grad log pi(a_i|s_i),
    given each trajectory's delta_k (traj_deltas)."""
    if not trajs:
        raise ValueError("empty trajectory batch")
    total = np.zeros(policy.n_params)
    for traj, delta in zip(trajs, deltas):
        steps = min(k + 1, traj.n_steps)
        score = np.zeros(policy.n_params)
        for i in range(steps):
            _, g = policy.log_prob_and_grad(traj.states[i], traj.actions[i])
            score += g
        total += traj.start_weight * delta * score
    return total / len(trajs)


@dataclass(frozen=True)
class ValueGradTerms:
    """The sampled value gradient of one batch, split by dependence on w:
    g(w) = constant - (2 eta_v / n_b) sum_b (returns_b - rows_b . w) rows_b."""

    constant: np.ndarray  # lead and weighted residual terms
    rows: np.ndarray      # (n_b, n_params) grad v(s_0) of each behavior row
    returns: np.ndarray   # (n_b,) mc_return of each behavior row
    eta_v: float


def value_grad_terms(trajs, behavior, value_model, gamma: float, k: int, eta_v: float) -> ValueGradTerms:
    """Build the parts of the sampled path-regularized value gradient that stay
    fixed while the value parameters move:

    (1 - gamma^{k+1}) E_mu[grad v(s_0)]
      + E[start_weight * (gamma^j grad v(s_j) - grad v(s_0))]      j = min(k+1, len)
      - 2 eta_v E[(mc_return(tau_b) - v(s_0)) grad v(s_0)]          over behavior rows

    behavior is an iterable of ReplayRow, one per behavior trajectory.

    Precondition: the value model is linear in its parameters, v(s) = w . grad v(s)
    with grad v(s) independent of w.  LinearValue and TabularValue satisfy it;
    then only v(s_0) in the penalty moves with w, and grad_v_estimate evaluates
    it from the stored rows.  No rows are built when eta_v is 0.
    """
    if not trajs:
        raise ValueError("empty trajectory batch")
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
    constant = (1.0 - gamma ** (k + 1)) * lead / len(trajs) + resid / len(trajs)
    rows, returns = np.zeros((0, n)), np.zeros(0)
    if eta_v > 0:
        behavior = list(behavior)
        if not behavior:
            raise ValueError("empty behavior batch with eta_v > 0")
        rows = np.array([value_model.eval_and_grad(row.start)[1] for row in behavior])
        returns = np.array([row.mc_return for row in behavior])
    return ValueGradTerms(constant, rows, returns, float(eta_v))


def grad_v_estimate(terms: ValueGradTerms, params) -> np.ndarray:
    """The sampled value gradient of value_grad_terms at value parameters params.

    Bitwise equal to summing the penalty trajectory by trajectory: vecdot takes
    each row's dot product as w @ row does, and the axis-0 sum from 0.0 adds
    the rows in order.
    """
    if terms.eta_v <= 0:
        return terms.constant.copy()
    resid = terms.returns - np.vecdot(terms.rows, params)
    pen = (resid[:, None] * terms.rows).sum(axis=0, initial=0.0)
    return terms.constant - 2.0 * terms.eta_v * pen / len(terms.returns)


def traj_deltas(trajs, v, gamma: float, k: int) -> np.ndarray:
    return np.array([traj_delta(traj, v, gamma, k) for traj in trajs])


def delta_means_by_start(trajs, deltas, n_states: int):
    """Per-start-state batch means of the trajectories' delta_k (tabular
    grouping), summed in batch order.

    Returns (means, counts); states with no sampled trajectory keep mean 0.
    """
    sums = np.zeros(n_states)
    counts = np.zeros(n_states, dtype=int)
    for traj, delta in zip(trajs, deltas):
        s0 = int(traj.states[0])
        sums[s0] += delta
        counts[s0] += 1
    means = np.zeros(n_states)
    seen = counts > 0
    means[seen] = sums[seen] / counts[seen]
    return means, counts


def alpha_closed_form(delta_means, eta_alpha: float) -> np.ndarray:
    """tilde_alpha = max(0, E[delta | start]) / eta_alpha, elementwise."""
    if eta_alpha <= 0:
        raise ValueError("eta_alpha must be positive")
    return np.maximum(0.0, np.asarray(delta_means, dtype=float)) / eta_alpha


def alpha_objective(
    tilde_alpha,
    delta_means,
    mu,
    eta_mu: float,
    eta_alpha: float,
    half_quadratic: bool = True,
) -> float:
    """Dual objective in tilde_alpha:
    E_mu[(tilde_alpha(s) + eta_mu) deltabar(s)] - c eta_alpha E_mu[tilde_alpha(s)^2].

    half_quadratic picks c = 1/2, the convention under which the closed-form
    update max(0, deltabar)/eta_alpha is exactly the maximizer; c = 1 is the
    literal printed penalty (whose maximizer carries an extra factor 1/2).
    """
    ta = np.asarray(tilde_alpha, dtype=float)
    db = np.asarray(delta_means, dtype=float)
    mu = np.asarray(mu, dtype=float)
    c = 0.5 if half_quadratic else 1.0
    return float(np.sum(mu * ((ta + eta_mu) * db)) - c * eta_alpha * np.sum(mu * ta**2))


# ---------------------------------------------------------------------------
# Exhaustive-expectation forms (tabular verification suite)


def exact_grad_alpha(mdp: TabularMdp, v, start_model: SoftmaxStartWeighting, pi, k: int) -> np.ndarray:
    """Exact E_alpha^pi[delta_k * grad log alpha(s_0)] by path enumeration."""
    vf = _value_fn(v)
    alpha = start_model.distribution()
    disc = mdp.gamma ** np.arange(k + 1)
    total = np.zeros(len(alpha))
    for prob, states, actions in iter_paths(mdp, alpha, pi, k):
        rewards = mdp.reward[list(states[:-1]), list(actions)]
        delta = disc @ rewards + mdp.gamma ** (k + 1) * vf(states[-1]) - vf(states[0])
        total += prob * delta * start_model.log_grad(states[0])
    return total


def exact_grad_pi(mdp: TabularMdp, v, alpha, policy, k: int) -> np.ndarray:
    """Exact E_alpha^pi[delta_k * sum_i grad log pi(a_i|s_i)] by path enumeration."""
    vf = _value_fn(v)
    pi = policy.prob_matrix()
    disc = mdp.gamma ** np.arange(k + 1)
    total = np.zeros(policy.n_params)
    for prob, states, actions in iter_paths(mdp, alpha, pi, k):
        rewards = mdp.reward[list(states[:-1]), list(actions)]
        delta = disc @ rewards + mdp.gamma ** (k + 1) * vf(states[-1]) - vf(states[0])
        score = np.zeros(policy.n_params)
        for s, a in zip(states[:-1], actions):
            _, g = policy.log_prob_and_grad(s, a)
            score += g
        total += prob * delta * score
    return total


def exact_grad_v(mdp: TabularMdp, v, alpha, pi, pi_b, k: int, eta_v: float) -> np.ndarray:
    """Exact gradient of the path-regularized objective w.r.t. tabular v, by enumeration."""
    v = np.asarray(v, dtype=float)
    grad = (1.0 - mdp.gamma ** (k + 1)) * mdp.mu.copy()
    for prob, states, actions in iter_paths(mdp, np.asarray(alpha, dtype=float), pi, k):
        grad[states[-1]] += prob * mdp.gamma ** (k + 1)
        grad[states[0]] -= prob
    v_b = policy_value(mdp, validate_policy(mdp, pi_b))
    grad -= 2.0 * eta_v * mdp.mu * (v_b - v)
    return grad
