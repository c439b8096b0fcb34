"""Exact saddle-point objectives on tabular MDPs.

The multi-step objective couples a value vector v with a start-state
weighting alpha and a policy pi through the discounted k-step residual
delta_k along paths (estimators.residuals tabulates it for every trajectory
of a sampled batch, and estimators.traj_deltas evaluates it at any value
parameters).  The path-regularized objective adds a squared penalty pulling
v toward the behavior policy's exact return: its value gradient
(path_reg_value_gradient) and its minimizer over v (inner_min_v_exact) are
here, and its value, like the one-step objective's, is a test reference
(tests/reference_lagrangian.py).  Everything is computed in closed form
or by exhaustive path enumeration so the stochastic estimators have a
noise-free target.

The enumeration (enumerate_paths) is one table of every positive-probability
k-step path, built as arrays one step at a time, with each path's delta_k
computed once (path_deltas); the enumerated objective and the estimators'
exact gradients are weighted sums over that table.  It holds
S * (A * S)^(k+1) paths at most, so max_paths caps it, and the marginal
recursions (expected_delta_dp, value_linear_coefficient) are the
independent forms it is checked against.

`alpha` arguments are plain length-S distribution vectors over start states,
here and in the estimators' exact_grad_* forms.  The saddle-point weighting
of the k-step objective is mdp.discounted_state_occupancy at that k.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .mdp import TabularMdp, policy_value, transition_under, validate_policy


class EnumerationLimitError(RuntimeError):
    """Exact path enumeration would exceed the configured path cap."""


def validate_distribution(w: np.ndarray, name: str = "alpha") -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} must be a probability distribution")
    return w


def _step_distributions(mdp: TabularMdp, alpha: np.ndarray, pi: np.ndarray, k: int) -> np.ndarray:
    """Stack of state marginals d_0..d_{k+1} under pi from start distribution alpha."""
    p_pi = transition_under(mdp, pi)
    d = np.empty((k + 2, mdp.n_states))
    d[0] = alpha
    for i in range(k + 1):
        d[i + 1] = p_pi.T @ d[i]
    return d


def expected_delta_dp(mdp: TabularMdp, v: np.ndarray, alpha: np.ndarray, pi: np.ndarray, k: int) -> float:
    """E_alpha^pi[delta_k] by marginal-distribution recursion (no path enumeration)."""
    alpha = validate_distribution(alpha)
    v = np.asarray(v, dtype=float)
    d = _step_distributions(mdp, alpha, pi, k)
    r_pi = (validate_policy(mdp, pi) * mdp.reward).sum(axis=1)
    total = sum(mdp.gamma**i * d[i] @ r_pi for i in range(k + 1))
    return float(total + mdp.gamma ** (k + 1) * d[k + 1] @ v - alpha @ v)


class Paths(NamedTuple):
    """Every positive-probability k-step path of an enumeration, one row each."""

    prob: np.ndarray     # (n,)
    states: np.ndarray   # (n, k+2) s_0 .. s_{k+1}
    actions: np.ndarray  # (n, k+1) a_0 .. a_k


def enumerate_paths(mdp: TabularMdp, alpha: np.ndarray, pi: np.ndarray, k: int, max_paths: int = 1_000_000) -> Paths:
    """All positive-probability k-step paths from start distribution alpha
    under pi, built one step at a time from the positive (a, s') edges of
    each state.  A path's probability is the product
    ((alpha(s_0) pi(a_0|s_0)) P(s_1|s_0,a_0)) ... in path order.

    Raises EnumerationLimitError before building a step that would hold more
    than max_paths paths; every path continues (the rows of pi and P sum to
    1), so that is the check on the final count.
    """
    alpha = validate_distribution(alpha)
    pi = validate_policy(mdp, pi)
    P = mdp.transition
    edge_s, edge_a, edge_t = np.argwhere((pi[:, :, None] > 0) & (P > 0)).T  # grouped by state
    fan_out = np.bincount(edge_s, minlength=mdp.n_states)
    first_edge = np.cumsum(fan_out) - fan_out
    states = np.flatnonzero(alpha > 0)[:, None]
    actions = np.zeros((len(states), 0), dtype=int)
    prob = alpha[states[:, 0]]
    for _ in range(k + 1):
        fan = fan_out[states[:, -1]]
        n = int(fan.sum())
        if n > max_paths:
            raise EnumerationLimitError(
                f"path enumeration exceeded cap of {max_paths}; raise max_paths or use expected_delta_dp"
            )
        parent = np.repeat(np.arange(len(fan)), fan)
        # each new row takes its parent's last state's first edge plus its rank among the parent's rows
        edge = np.repeat(first_edge[states[:, -1]] - (np.cumsum(fan) - fan), fan) + np.arange(n)
        s, a, t = edge_s[edge], edge_a[edge], edge_t[edge]
        prob = (prob[parent] * pi[s, a]) * P[s, a, t]
        states = np.column_stack([states[parent], t])
        actions = np.column_stack([actions[parent], a])
    return Paths(prob, states, actions)


def path_deltas(mdp: TabularMdp, v: np.ndarray, paths: Paths) -> np.ndarray:
    """delta_k = sum_{i<=k} gamma^i R(s_i, a_i) + gamma^{k+1} v(s_{k+1}) - v(s_0) of every path."""
    v = np.asarray(v, dtype=float)
    k = paths.actions.shape[1] - 1
    rewards = mdp.reward[paths.states[:, :-1], paths.actions] @ mdp.gamma ** np.arange(k + 1)
    return rewards + mdp.gamma ** (k + 1) * v[paths.states[:, -1]] - v[paths.states[:, 0]]


def multi_step_lagrangian(
    mdp: TabularMdp,
    v: np.ndarray,
    alpha: np.ndarray,
    pi: np.ndarray,
    k: int,
    max_paths: int = 1_000_000,
) -> float:
    """(1 - gamma^{k+1}) E_mu[v] + E_alpha^pi[delta_k], enumerating every
    positive-probability path (guarded by max_paths)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    v = np.asarray(v, dtype=float)
    lead = (1.0 - mdp.gamma ** (k + 1)) * mdp.mu @ v
    paths = enumerate_paths(mdp, alpha, pi, k, max_paths)
    return float(lead + paths.prob @ path_deltas(mdp, v, paths))


def value_linear_coefficient(mdp: TabularMdp, alpha: np.ndarray, pi: np.ndarray, k: int) -> np.ndarray:
    """Gradient of the multi-step objective w.r.t. a tabular v (a constant vector):
    (1 - gamma^{k+1}) mu + gamma^{k+1} d_{k+1} - alpha."""
    alpha = validate_distribution(alpha)
    d = _step_distributions(mdp, alpha, pi, k)
    return (1.0 - mdp.gamma ** (k + 1)) * mdp.mu + mdp.gamma ** (k + 1) * d[k + 1] - alpha


def path_reg_value_gradient(
    mdp: TabularMdp,
    v: np.ndarray,
    alpha: np.ndarray,
    pi: np.ndarray,
    pi_b: np.ndarray,
    k: int,
    eta_v: float,
) -> np.ndarray:
    """Exact gradient of the path-regularized objective w.r.t. tabular v."""
    v = np.asarray(v, dtype=float)
    v_b = policy_value(mdp, pi_b)
    return value_linear_coefficient(mdp, alpha, pi, k) + 2.0 * eta_v * mdp.mu * (v - v_b)


def inner_min_v_exact(
    mdp: TabularMdp,
    alpha: np.ndarray,
    pi: np.ndarray,
    pi_b: np.ndarray,
    k: int,
    eta_v: float,
) -> np.ndarray:
    """Unique tabular minimizer of the path-regularized objective over v.

    The objective is linear-plus-diagonal-quadratic in v, so the normal
    equations are diagonal: v = V^{pi_b} - g_lin / (2 eta_v mu).
    """
    if eta_v < 0:
        raise ValueError("eta_v must be nonnegative")
    g_lin = value_linear_coefficient(mdp, alpha, pi, k)
    v_b = policy_value(mdp, pi_b)
    if eta_v == 0.0:
        raise np.linalg.LinAlgError("inner minimization over v is singular for eta_v = 0")
    curvature = 2.0 * eta_v * mdp.mu
    curved = curvature > 0
    unbounded = np.flatnonzero(~curved & (np.abs(g_lin) > 1e-14))
    if unbounded.size:
        s = unbounded[0]
        raise np.linalg.LinAlgError(
            f"objective is unbounded below in v({s}): mu({s}) = 0 but the linear term is nonzero"
        )
    return np.where(curved, v_b - g_lin / np.where(curved, curvature, 1.0), v_b)
