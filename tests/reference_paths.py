"""Reference for the path enumeration: a depth-first walk that yields one
positive-probability k-step path at a time, and the exact expectations as
per-path loops over it.

`lagrangian.enumerate_paths` must give the same set of paths with bitwise the
same probabilities, and the enumerated forms in `lagrangian` and
`estimators` must match these loops to rounding.  exact_grad_alpha, the
start-weight gradient, has no form in the package: it is checked against the
marginal recursion and against finite differences of the dual.
"""

from __future__ import annotations

import numpy as np

from dualac.lagrangian import validate_distribution
from dualac.mdp import policy_value, validate_policy
from reference_scores import tabular_score_rows


def iter_paths(mdp, alpha, pi, k):
    """Yield (probability, states, actions) over all positive-probability k-step paths."""
    alpha = validate_distribution(alpha)
    pi = validate_policy(mdp, pi)
    stack = [(s0, float(alpha[s0]), (s0,), ()) for s0 in range(mdp.n_states) if alpha[s0] > 0]
    while stack:
        s, prob, states, actions = stack.pop()
        if len(actions) == k + 1:
            yield prob, states, actions
            continue
        for a in range(mdp.n_actions):
            pa = pi[s, a]
            if pa == 0.0:
                continue
            for s2 in range(mdp.n_states):
                pt = mdp.transition[s, a, s2]
                if pt == 0.0:
                    continue
                stack.append((s2, prob * pa * pt, states + (s2,), actions + (a,)))


def _delta(mdp, v, states, actions, k):
    rewards = mdp.reward[list(states[:-1]), list(actions)]
    return mdp.gamma ** np.arange(k + 1) @ rewards + mdp.gamma ** (k + 1) * v[states[-1]] - v[states[0]]


def multi_step_lagrangian(mdp, v, alpha, pi, k):
    v = np.asarray(v, dtype=float)
    total = 0.0
    for prob, states, actions in iter_paths(mdp, alpha, pi, k):
        total += prob * _delta(mdp, v, states, actions, k)
    return float((1.0 - mdp.gamma ** (k + 1)) * mdp.mu @ v + total)


def exact_grad_alpha(mdp, v, alpha, pi, k):
    v = np.asarray(v, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    total = np.zeros(mdp.n_states)
    for prob, states, actions in iter_paths(mdp, alpha, pi, k):
        log_grad = -alpha
        log_grad[states[0]] += 1.0
        total += prob * _delta(mdp, v, states, actions, k) * log_grad
    return total


def exact_grad_pi(mdp, v, alpha, policy, k):
    v = np.asarray(v, dtype=float)
    pi = policy.prob_matrix()
    n_states, n_actions = pi.shape
    pairs = np.repeat(np.arange(n_states), n_actions), np.tile(np.arange(n_actions), n_states)
    table = tabular_score_rows(policy, *pairs).reshape(n_states, n_actions, -1)
    total = np.zeros(policy.n_params)
    for prob, states, actions in iter_paths(mdp, alpha, pi, k):
        total += prob * _delta(mdp, v, states, actions, k) * table[list(states[:-1]), list(actions)].sum(axis=0)
    return total


def exact_grad_v(mdp, v, alpha, pi, pi_b, k, eta_v):
    v = np.asarray(v, dtype=float)
    grad = (1.0 - mdp.gamma ** (k + 1)) * mdp.mu.copy()
    for prob, states, actions in iter_paths(mdp, alpha, pi, k):
        grad[states[-1]] += prob * mdp.gamma ** (k + 1)
        grad[states[0]] -= prob
    v_b = policy_value(mdp, validate_policy(mdp, pi_b))
    return grad - 2.0 * eta_v * mdp.mu * (v_b - v)
