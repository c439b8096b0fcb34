"""Finite MDPs, Bellman operators, and exact linear-programming oracles.

Everything here is deterministic and pure: value iteration doubles as the
primal-LP oracle, and the occupancy measure of the greedy policy doubles as
the dual-LP oracle.  All stochastic components elsewhere in the package are
validated against these functions.

Every Bellman backup (q_values, bellman_optimality_operator and each sweep of
value_iteration) is one matrix-vector product over an action-major layout:
gamma * P as one (A*S, S) matrix whose row a*S + s is gamma * P[s, a], so Q
comes out as an (A, S) table and the backup is its max over axis 0.  One
product is faster than numpy's S stacked (A, S) products, and value
iteration lays the matrix out once and stays bitwise equal to repeated
one-step backups.  On deterministic MDPs each product is exact; on dense
ones it may round differently from the stacked (S, A, S) @ v.

save_mdp writes the text json.dump would write, but encodes one state's
transition block at a time with the C encoder (json.dumps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_PROB_ATOL = 1e-12


@dataclass(frozen=True)
class TabularMdp:
    """Discounted MDP with dense transition tensor P[s, a, s'] and reward R[s, a]."""

    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray      # (S, A)
    gamma: float
    mu: np.ndarray          # (S,) initial-state distribution

    def __post_init__(self):
        object.__setattr__(self, "transition", np.asarray(self.transition, dtype=float))
        object.__setattr__(self, "reward", np.asarray(self.reward, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        P, R, mu = self.transition, self.reward, self.mu
        if P.ndim != 3 or P.shape[0] != P.shape[2]:
            raise ValueError(f"transition must have shape (S, A, S), got {P.shape}")
        S, A = P.shape[0], P.shape[1]
        if R.shape != (S, A):
            raise ValueError(f"reward must have shape ({S}, {A}), got {R.shape}")
        if mu.shape != (S,):
            raise ValueError(f"mu must have shape ({S},), got {mu.shape}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie strictly inside (0, 1), got {self.gamma}")
        if np.any(P < 0):
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = P.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > _PROB_ATOL:
            raise ValueError("every transition[s, a, :] must sum to 1")
        if np.any(mu < 0) or abs(mu.sum() - 1.0) > _PROB_ATOL:
            raise ValueError("mu must be a probability distribution")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    @property
    def value_bound(self) -> float:
        """Upper bound max|R| / (1 - gamma) on the sup-norm of any fixed point."""
        return float(np.max(np.abs(self.reward)) / (1.0 - self.gamma))


def validate_policy(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Check that policy is a row-stochastic (S, A) matrix for this MDP."""
    pi = np.asarray(policy, dtype=float)
    if pi.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"policy must have shape ({mdp.n_states}, {mdp.n_actions}), got {pi.shape}")
    if np.any(pi < 0) or np.max(np.abs(pi.sum(axis=1) - 1.0)) > _PROB_ATOL:
        raise ValueError("policy rows must be probability distributions")
    return pi


def _check_value(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (mdp.n_states,):
        raise ValueError(f"value vector must have shape ({mdp.n_states},), got {v.shape}")
    return v


def _action_major(mdp: TabularMdp) -> tuple[np.ndarray, np.ndarray]:
    """R and gamma * P laid out action-major: the (A, S) table R.T and one
    (A*S, S) matrix whose row a*S + s is gamma * P[s, a]."""
    discounted = np.multiply(mdp.transition.swapaxes(0, 1), mdp.gamma, order="C").reshape(-1, mdp.n_states)
    return np.ascontiguousarray(mdp.reward.T), discounted


def _q_table(reward_t: np.ndarray, discounted: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q as an (A, S) table, Q[a, s] = R(s, a) + gamma * E_{s'|s,a}[v(s')],
    from one matrix-vector product over the action-major layout."""
    return reward_t + (discounted @ v).reshape(reward_t.shape)


def q_values(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    """Q[s, a] = R(s, a) + gamma * E_{s'|s,a}[v(s')]."""
    return _q_table(*_action_major(mdp), _check_value(mdp, v)).T


def bellman_optimality_operator(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    """One-step optimality backup (T v)(s) = max_a {R(s,a) + gamma E[v(s')]}."""
    return _q_table(*_action_major(mdp), _check_value(mdp, v)).max(axis=0)


def k_step_bellman(mdp: TabularMdp, v: np.ndarray, k: int) -> np.ndarray:
    """(k+1)-fold composition of the one-step optimality backup.

    k = 0 is the plain one-step operator.  On tabular MDPs the composition
    coincides with exhaustive closed-loop maximization over length-(k+1)
    action sequences, which the test suite checks by policy enumeration.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    out = _check_value(mdp, v)
    for _ in range(k + 1):
        out = bellman_optimality_operator(mdp, out)
    return out


def lambda_bellman(mdp: TabularMdp, v: np.ndarray, lam: float, k_max: int) -> np.ndarray:
    """Geometric mixture (1-lam) sum_k lam^k (T_k v), truncated at k_max.

    The tail mass lam^k_max is folded into the last term so the mixture
    weights sum to exactly 1; callers should pick k_max with lam^k_max small.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    out = np.zeros(mdp.n_states)
    term = bellman_optimality_operator(mdp, _check_value(mdp, v))  # T_0 v
    for k in range(k_max + 1):
        weight = lam**k_max if k == k_max else (1.0 - lam) * lam**k
        out += weight * term
        if k < k_max:
            term = bellman_optimality_operator(mdp, term)
    return out


def value_iteration(mdp: TabularMdp, tol: float = 1e-10, max_iters: int = 1_000_000) -> np.ndarray:
    """Iterate the one-step backup until ||T v - v||_inf <= tol.

    Serves as the primal-LP oracle: the LP optimum equals the fixed point.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    v = np.zeros(mdp.n_states)
    reward_t, discounted = _action_major(mdp)  # laid out once, not every sweep
    for _ in range(max_iters):
        v_next = _q_table(reward_t, discounted, v).max(axis=0)
        if np.max(np.abs(v_next - v)) <= tol:
            return v_next
        v = v_next
    raise RuntimeError(f"value iteration failed to reach tol={tol} in {max_iters} sweeps")


def greedy_policy(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    """Deterministic argmax policy w.r.t. the one-step backup; ties go to the lowest action index."""
    best = np.argmax(q_values(mdp, v), axis=1)
    pi = np.zeros((mdp.n_states, mdp.n_actions))
    pi[np.arange(mdp.n_states), best] = 1.0
    return pi


def transition_under(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Markov chain P^pi[s, s'] = sum_a pi(a|s) P(s'|s,a)."""
    pi = validate_policy(mdp, policy)
    return np.einsum("sa,sat->st", pi, mdp.transition)


def policy_value(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Exact V^pi by linear solve of (I - gamma P^pi) V = r^pi."""
    pi = validate_policy(mdp, policy)
    p_pi = transition_under(mdp, pi)
    r_pi = (pi * mdp.reward).sum(axis=1)
    return np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * p_pi, r_pi)


def discounted_state_occupancy(mdp: TabularMdp, policy: np.ndarray, k: int = 0) -> np.ndarray:
    """Normalized start-state weighting of the k-step flow equation
    alpha = (1 - gamma^{k+1}) mu + gamma^{k+1} ((P^pi)^T)^{k+1} alpha.

    At k = 0 this is the discounted state-visitation; for the k-step
    objective it is the weighting at which the value gradient vanishes, hence
    the saddle-point alpha used by the exact verification suite.
    """
    p_pow = np.linalg.matrix_power(transition_under(mdp, policy), k + 1)
    g = mdp.gamma ** (k + 1)
    alpha = np.linalg.solve(np.eye(mdp.n_states) - g * p_pow.T, (1.0 - g) * mdp.mu)
    # Guard against tiny negative round-off; the exact solution is nonnegative.
    alpha = np.clip(alpha, 0.0, None)
    return alpha / alpha.sum()


def occupancy_from_policy(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """State-action occupancy rho[s, a] = alpha(s) pi(a|s); the dual-LP oracle at pi."""
    pi = validate_policy(mdp, policy)
    return discounted_state_occupancy(mdp, pi)[:, None] * pi


def policy_from_occupancy(rho: np.ndarray) -> np.ndarray:
    """Row-normalize an occupancy measure into a policy; zero-mass rows become uniform."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("occupancy entries must be nonnegative")
    mass = rho.sum(axis=1, keepdims=True)
    empty = mass < 1e-12
    return np.where(empty, 1.0 / rho.shape[1], rho / np.where(empty, 1.0, mass))


def occupancy_flow_residual(mdp: TabularMdp, rho: np.ndarray) -> float:
    """Max violation of the dual-LP flow constraint
    sum_a rho(s', a) = (1-gamma) mu(s') + gamma sum_{s,a} rho(s,a) P(s'|s,a)."""
    rho = np.asarray(rho, dtype=float)
    inflow = (1.0 - mdp.gamma) * mdp.mu + mdp.gamma * np.einsum("sa,sat->t", rho, mdp.transition)
    return float(np.max(np.abs(rho.sum(axis=1) - inflow)))


def duality_gap(mdp: TabularMdp, v: np.ndarray, rho: np.ndarray) -> float:
    """(1-gamma) E_mu[v] - sum_{s,a} R(s,a) rho(s,a); zero at the primal/dual optima."""
    v = _check_value(mdp, v)
    return float((1.0 - mdp.gamma) * mdp.mu @ v - np.sum(mdp.reward * np.asarray(rho, dtype=float)))


def random_mdp(
    n_states: int,
    n_actions: int,
    gamma: float,
    rng: np.random.Generator,
    deterministic: bool = False,
    reward_scale: float = 1.0,
) -> TabularMdp:
    """Sample a dense random MDP (Dirichlet rows, uniform rewards, uniform-ish mu)."""
    if deterministic:
        P = np.zeros((n_states, n_actions, n_states))
        targets = rng.integers(0, n_states, size=(n_states, n_actions))
        np.put_along_axis(P, targets[:, :, None], 1.0, axis=2)
    else:
        P = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    R = rng.uniform(0.0, reward_scale, size=(n_states, n_actions))
    mu = rng.dirichlet(np.ones(n_states))
    return TabularMdp(transition=P, reward=R, gamma=gamma, mu=mu)


# ---------------------------------------------------------------------------
# Text-format round trip (JSON; field names mirror the TabularMdp dataclass).


def save_mdp(mdp: TabularMdp, path: str) -> None:
    """Write the bytes json.dump writes for the payload, but through the C
    encoder (json.dumps), one state's (A, S) transition block at a time."""
    head = json.dumps(
        {"n_states": mdp.n_states, "n_actions": mdp.n_actions, "gamma": mdp.gamma, "reward": mdp.reward.tolist()}
    )
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "transition": [')
        for s, block in enumerate(mdp.transition):
            fh.write((", " if s else "") + json.dumps(block.tolist()))
        fh.write('], "mu": ' + json.dumps(mdp.mu.tolist()) + "}")


def load_mdp(path: str) -> TabularMdp:
    with open(path) as fh:
        payload = json.load(fh)
    mdp = TabularMdp(
        transition=np.array(payload["transition"], dtype=float),
        reward=np.array(payload["reward"], dtype=float),
        gamma=float(payload["gamma"]),
        mu=np.array(payload["mu"], dtype=float),
    )
    if mdp.n_states != payload["n_states"] or mdp.n_actions != payload["n_actions"]:
        raise ValueError("header (n_states, n_actions) disagrees with array shapes")
    return mdp
