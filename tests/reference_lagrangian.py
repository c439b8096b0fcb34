"""The saddle-point objectives' values, for the tabular checks.

The package keeps only their gradients and maximizers (`dualac.lagrangian`,
`dualac.estimators.alpha_closed_form`); the tests check those against the
objectives themselves: the duality gap against the one-step objective, the
value and policy gradients against finite differences of the
path-regularized one, and the closed-form start weighting against the dual
objective in tilde_alpha.
"""

from __future__ import annotations

import numpy as np

from dualac.lagrangian import multi_step_lagrangian, validate_distribution
from dualac.mdp import policy_value, q_values, validate_policy


def one_step_lagrangian(mdp, v, alpha, pi) -> float:
    """(1-gamma) E_mu[v] + sum_{s,a} alpha(s) pi(a|s) Delta[v](s, a), exactly,
    with Delta[v](s, a) = R(s, a) + gamma E[v(s')] - v(s)."""
    alpha = validate_distribution(alpha)
    pi = validate_policy(mdp, pi)
    v = np.asarray(v, dtype=float)
    residual = q_values(mdp, v) - v[:, None]
    return float((1.0 - mdp.gamma) * mdp.mu @ v + np.sum(alpha[:, None] * pi * residual))


def path_reg_lagrangian(mdp, v, alpha, pi, pi_b, k: int, eta_v: float, max_paths: int = 1_000_000) -> float:
    """Multi-step objective plus eta_v E_mu[(V^{pi_b}(s) - v(s))^2].

    V^{pi_b} is the exact infinite-horizon return of the behavior policy
    (linear solve), so the penalty target carries no sampling noise.
    """
    if eta_v < 0:
        raise ValueError("eta_v must be nonnegative")
    base = multi_step_lagrangian(mdp, v, alpha, pi, k, max_paths=max_paths)
    v_b = policy_value(mdp, pi_b)
    v = np.asarray(v, dtype=float)
    return float(base + eta_v * mdp.mu @ (v_b - v) ** 2)


def alpha_objective(tilde_alpha, delta_means, mu, eta_mu: float, eta_alpha: float, half_quadratic: bool = True) -> float:
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
