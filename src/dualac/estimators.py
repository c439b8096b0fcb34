"""Trajectory sampling and the stochastic gradient/update estimators.

Conventions that matter here:

* A sampled batch is one immutable Batch of m trajectories padded to the
  horizon, and every estimator is an array expression on it.  The sampler
  draws a batch's variates from one seed sequence (env.draw_variates), row l
  of each array being trajectory l's, and steps all m rows as whole arrays.
* delta is the discounted k-step residual of a trajectory,
  sum_{i<=k} gamma^i r_i + gamma^{k+1} v(s_{k+1}) - v(s_0).  Trajectories
  that end early (terminal absorption) bootstrap with v at their last state
  and the discount exponent shrinks accordingly.
* Start states are always drawn from the environment's fixed initial
  distribution; the dual weighting enters through an (m,) array of start
  weights, (tilde_alpha(s_0) + eta_mu) per trajectory, passed beside the
  batch.  tilde_alpha(s_0) is the closed form at the mean delta_k of the
  trajectories that share the start observation (delta_means_by_start), on
  every environment.  The policy gradient and the residual part of the
  value gradient are weighted; the lead E_mu terms are not.
* A value function is a parameter vector w over a row map, v(s) =
  w . row(s) (policies.BiasedFeatureMap or IndicatorFeatureMap), so delta_k
  of a batch is affine in w: residuals builds the table of its parts once
  per batch, with one row-map call for the starts and bootstrap states.
  traj_deltas reads it, and value_grad_terms turns it into the quadratic
  (hessian, offset) that the inner value fit descends.
* exact_grad_pi and exact_grad_v are the exhaustive-expectation forms of the
  policy and value gradients, for the tabular oracle checks: weighted sums
  over the path table of lagrangian.enumerate_paths, with each path's
  weight prob * delta_k binned by its (state, action) pairs or by its first
  and last states (np.bincount).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lagrangian import enumerate_paths, path_deltas
from .mdp import TabularMdp, policy_value, validate_policy


class BatchRow(NamedTuple):
    """One trajectory of a Batch, cut to its length."""

    obs: np.ndarray      # (n+1, ...) observations, including the final one
    actions: np.ndarray  # (n, ...)
    rewards: np.ndarray  # (n,)
    n_steps: int
    terminated: bool


class Window(NamedTuple):
    """The first min(k+1, n) steps of every trajectory of a batch, the support
    of the k-step path measure, stacked trajectory by trajectory."""

    actions: np.ndarray  # (sum of steps, ...)
    steps: np.ndarray    # (m,) rows of each trajectory
    inputs: np.ndarray   # (sum of steps, ...) policy.inputs of the steps' states, as the sampler built them


@dataclass(frozen=True, eq=False)
class Batch:
    """m trajectories padded to the horizon H.  Trajectory l took lengths[l]
    steps: its observations are obs[l, :lengths[l] + 1] and its actions and
    rewards the first lengths[l] entries of its rows; the padding is zero.
    terminated[l] says it ended by absorption (its last state is terminal).
    Iterating yields one BatchRow per trajectory."""

    obs: np.ndarray         # (m, H+1, ...)
    actions: np.ndarray     # (m, H, ...)
    rewards: np.ndarray     # (m, H)
    lengths: np.ndarray     # (m,)
    terminated: np.ndarray  # (m,)
    inputs: np.ndarray      # (sum of window steps, ...) the sampler's Window.inputs
    window_len: int         # k+1: the window is the first min(k+1, n) steps

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        for l, n in enumerate(self.lengths):
            obs, actions, rewards = self.obs[l, : n + 1], self.actions[l, :n], self.rewards[l, :n]
            yield BatchRow(obs, actions, rewards, int(n), bool(self.terminated[l]))

    def window(self) -> Window:
        steps = np.minimum(self.window_len, self.lengths)
        inside = np.arange(self.rewards.shape[1]) < steps[:, None]
        return Window(self.actions[inside], steps, self.inputs)


def sample_trajectories(env, policy, m: int, horizon: int, rng_seed, *, window: int) -> Batch:
    """Roll out m trajectories of length <= horizon under the given policy,
    all m in lockstep, keeping the policy inputs that the action draws read
    at the first `window` steps (k+1) for Batch.window.

    The batch's variates are drawn up front from one
    np.random.SeedSequence(rng_seed) (env.draw_variates): one generator per
    kind of draw, whatever m is, each filling one array row by row.
    Trajectory l reads row l of each, so it is reproducible and the same for
    every m > l, and every row is stepped on its own (elementwise kernels and
    stacked products), so it is bitwise the trajectory that stepping row l
    alone would give.  rng_seed is a non-negative int or a sequence of them.
    """
    if m < 1 or horizon < 1 or window < 1:
        raise ValueError("m, horizon and window must be >= 1")
    seq = np.random.SeedSequence([int(s) for s in np.atleast_1d(rng_seed)])
    start_u, action_u, step_u = env.draw_variates(seq, m, horizon)
    state = env.initial_states(start_u)
    first = env.observe(state)
    obs = np.zeros((m, horizon + 1) + first.shape[1:], dtype=first.dtype)
    obs[:, 0] = first
    actions, rewards = None, np.zeros((m, horizon))
    lengths = np.zeros(m, dtype=int)
    draw = policy.action_sampler()
    done = env.is_terminal(state)
    for i in range(horizon):
        if done.all():
            break
        x = policy.inputs(obs[:, i])
        a = draw(x, action_u[:, i])
        state, rewards[:, i] = env.step_states(state, a, None if step_u is None else step_u[:, i])
        if actions is None:
            actions = np.zeros((m, horizon) + a.shape[1:], dtype=a.dtype)
            kept = np.zeros((m, min(window, horizon)) + x.shape[1:], dtype=x.dtype)
        if i < window:
            kept[:, i] = x
        obs[:, i + 1] = env.observe(state)
        actions[:, i] = a
        lengths += ~done
        done |= env.is_terminal(state)
    if actions is None:  # every start was terminal
        actions, kept = np.zeros((m, horizon)), np.zeros((m, 0))
    # rows that ended kept stepping; what they did after their end is padding
    padding = np.arange(horizon) >= lengths[:, None]
    obs[:, 1:][padding] = actions[padding] = rewards[padding] = 0
    inside = np.arange(kept.shape[1]) < lengths[:, None]
    # a view where no trajectory ends inside the window: the rows exist once
    inputs = kept.reshape((-1,) + kept.shape[2:]) if inside.all() else kept[inside]
    return Batch(obs, actions, rewards, lengths, done, inputs, window)


def _returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """sum_i gamma^i r_i along the last axis; zero padding adds nothing."""
    return np.vecdot(rewards, gamma ** np.arange(rewards.shape[-1]))


class ReplayRow(NamedTuple):
    start: np.ndarray  # observation s_0
    mc_return: float   # full-length discounted return
    n_steps: int


@dataclass(frozen=True, eq=False)
class ReplayRows:
    """What the inner value fit's behavior replay reads of a past batch, one
    row per trajectory: its start observation, full-length discounted return
    and n_steps.  Held by column; iterating yields a ReplayRow per
    trajectory."""

    starts: np.ndarray = field(default_factory=lambda: np.zeros(0))
    returns: np.ndarray = field(default_factory=lambda: np.zeros(0))
    n_steps: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __len__(self) -> int:
        return len(self.returns)

    def __iter__(self):
        return map(ReplayRow, self.starts, self.returns, self.n_steps)


def replay_rows(batch: Batch, gamma: float) -> ReplayRows:
    # the starts are copied so that the rows do not keep the batch alive
    return ReplayRows(starts=batch.obs[:, 0].copy(), returns=_returns(batch.rewards, gamma), n_steps=batch.lengths)


class Residuals(NamedTuple):
    """The parts of delta_k(w) = returns + discount * (w . boots) - w . starts
    of every trajectory of a batch, one entry or row per trajectory."""

    returns: np.ndarray   # (m,) discounted return over the first min(k+1, n) steps
    discount: np.ndarray  # (m,) gamma^j at the bootstrap index j, 0 where v is not evaluated there
    starts: np.ndarray    # (m, n_params) value rows of s_0
    boots: np.ndarray     # (m, n_params) value rows of s_j
    lead: float           # 1 - gamma^{k+1}


def residuals(batch: Batch, value_rows, gamma: float, k: int) -> Residuals:
    """The residual table of a batch under the row map value_rows, whose rows
    for the starts and the bootstrap states j = min(k+1, length) come from one
    call.  Absorbing terminal states are zero-reward self-loops, so their
    exact value is 0 and trajectories absorbed at s_j bootstrap with 0 instead
    of the learned v (which the sampled objective could never anchor there).
    gamma^j is np.float_power, the libm pow of Python's gamma ** j: np.power
    rounds differently for some j."""
    m = len(batch)
    j = np.minimum(k + 1, batch.lengths)
    absorbed = batch.terminated & (j == batch.lengths)
    rows = value_rows(np.concatenate([batch.obs[:, 0], batch.obs[np.arange(m), j]]))
    discount = np.where(absorbed, 0.0, np.float_power(gamma, j))
    return Residuals(_returns(batch.rewards[:, : k + 1], gamma), discount, rows[:m], rows[m:], 1.0 - gamma ** (k + 1))


def traj_deltas(res: Residuals, params) -> np.ndarray:
    """delta_k of every trajectory of the table at value parameters params."""
    return res.returns + res.discount * np.vecdot(res.boots, params) - np.vecdot(res.starts, params)


def grad_pi_estimate(window: Window, coefs, policy):
    """The policy gradient over a batch's window (Batch.window), and the
    window's score rows grad log pi(a_i|s_i) (policy.score_batch of the
    window's inputs), which the Fisher matrix reuses.

    The gradient is the batch mean of coefs * sum_i grad log pi(a_i|s_i) over
    each trajectory's rows, with coefs each trajectory's
    start_weight * delta_k: one weighted sum over the rows.
    """
    if len(window.steps) == 0:
        raise ValueError("empty trajectory batch")
    scores = policy.score_batch(window.inputs, window.actions)
    return np.repeat(coefs, window.steps) @ scores / len(window.steps), scores


def value_grad_terms(res: Residuals, weights, behavior, value_rows, eta_v: float):
    """The sampled path-regularized value gradient

    (1 - gamma^{k+1}) E_mu[grad v(s_0)]
      + E[start_weight * (gamma^j grad v(s_j) - grad v(s_0))]      j = min(k+1, len)
      - 2 eta_v E[(return(tau_b) - v(s_0)) grad v(s_0)]             over behavior rows

    as the quadratic (hessian, offset) with g(w) = offset + hessian @ w.

    res is the batch's residual table, weights holds each trajectory's start
    weight, and behavior is the pair (own, previous) of ReplayRows: the
    batch's own, whose start rows are res.starts, and the previous batch's
    (empty at the first iteration), whose start rows value_rows builds.
    v(s) = w . row(s), so only v(s_0) in the penalty moves with w:
    hessian = (2 eta_v / n_b) R^T R and
    offset = constant - (2 eta_v / n_b) R^T returns over the n_b behavior
    start rows R, where constant holds the lead and weighted residual terms.
    No behavior rows are built when eta_v is 0: hessian is zero and offset is
    constant.

    The sums run over axis 0 from 0.0, which adds the rows in batch order:
    bitwise the trajectory-by-trajectory sums, the residual's two terms
    interleaved per trajectory.
    """
    m = len(res.returns)
    if m == 0:
        raise ValueError("empty trajectory batch")
    tail = weights * res.discount
    resid = np.stack([-(weights[:, None] * res.starts), tail[:, None] * res.boots], axis=1).reshape(2 * m, -1)
    constant = res.lead * res.starts.sum(axis=0, initial=0.0) / m + resid.sum(axis=0, initial=0.0) / m
    if eta_v <= 0:
        return np.zeros((len(constant),) * 2), constant
    own, previous = behavior
    rows = np.concatenate([res.starts, value_rows(previous.starts)]) if len(previous) else res.starts
    returns = np.concatenate([own.returns, previous.returns])
    scale = 2.0 * eta_v / len(returns)
    return scale * (rows.T @ rows), constant - scale * (rows.T @ returns)


def start_groups(batch: Batch) -> np.ndarray:
    """Each trajectory's group: the index of its start observation among the
    batch's distinct ones.  Tabular starts group by state, and continuous
    starts, all distinct, are groups of one."""
    return np.unique(batch.obs[:, 0], axis=0, return_inverse=True)[1].reshape(-1)


def delta_means_by_start(groups, deltas) -> np.ndarray:
    """Each trajectory's sampled E[delta_k | s_0]: the mean of deltas over the
    trajectories of its start group (start_groups), summed in batch order."""
    return (np.bincount(groups, deltas) / np.bincount(groups))[groups]


def alpha_closed_form(delta_means, eta_alpha: float) -> np.ndarray:
    """tilde_alpha = max(0, E[delta | start]) / eta_alpha, elementwise."""
    if eta_alpha <= 0:
        raise ValueError("eta_alpha must be positive")
    return np.maximum(0.0, np.asarray(delta_means, dtype=float)) / eta_alpha


# ---------------------------------------------------------------------------
# Exhaustive-expectation forms (tabular verification suite); v is a vector
# of state values


def exact_grad_pi(mdp: TabularMdp, v, alpha, policy, k: int) -> np.ndarray:
    """Exact E_alpha^pi[delta_k * sum_i grad log pi(a_i|s_i)] by path enumeration:
    each path's weight prob * delta_k lands on the (s_i, a_i) pairs it visits,
    and the per-pair totals multiply the score table of every pair."""
    pi = policy.prob_matrix()
    n_states, n_actions = pi.shape
    table = policy.score_batch(np.repeat(np.arange(n_states), n_actions), np.tile(np.arange(n_actions), n_states))
    paths = enumerate_paths(mdp, alpha, pi, k)
    w = paths.prob * path_deltas(mdp, v, paths)
    pairs = (paths.states[:, :-1] * n_actions + paths.actions).ravel()
    return np.bincount(pairs, np.repeat(w, k + 1), minlength=n_states * n_actions) @ table


def exact_grad_v(mdp: TabularMdp, v, alpha, pi, pi_b, k: int, eta_v: float) -> np.ndarray:
    """Exact gradient of the path-regularized objective w.r.t. tabular v, by enumeration."""
    v = np.asarray(v, dtype=float)
    paths = enumerate_paths(mdp, alpha, pi, k)
    S = mdp.n_states
    first = np.bincount(paths.states[:, 0], paths.prob, minlength=S)
    last = np.bincount(paths.states[:, -1], paths.prob, minlength=S)
    v_b = policy_value(mdp, validate_policy(mdp, pi_b))
    lead = (1.0 - mdp.gamma ** (k + 1)) * mdp.mu
    return lead + mdp.gamma ** (k + 1) * last - first - 2.0 * eta_v * mdp.mu * (v_b - v)
