"""Finite MDPs, Bellman operators, and exact linear-programming oracles.

Everything here is deterministic and pure: value iteration doubles as the
primal-LP oracle, and the occupancy measure of the greedy policy doubles as
the dual-LP oracle.  All stochastic components elsewhere in the package are
validated against these functions.

Every Bellman backup (q_values, bellman_optimality_operator and each sweep of
value_iteration) is one matrix-vector product over an action-major layout:
gamma * P as one (A*S, S) matrix whose row a*S + s is gamma * P[s, a], so Q
comes out as an (A, S) table and the backup is its max over axis 0.  One
product is faster than numpy's S stacked (A, S) products.  On deterministic
MDPs each product is exact; on dense ones it may round differently from the
stacked (S, A, S) @ v.

value_iteration starts from policy iteration, which reaches V* in a few
linear solves, and then sweeps the one-step backup until the value-iteration
stopping test holds.  Its sweeps are bitwise the one-step backups from that
start, and its result does not depend on the BLAS thread count: the last
policy's value is solved by elimination in elementwise numpy operations.

save_mdp writes the text json.dump would write, at the cost of the
transition's nonzero entries: each (s, a) row is a row of "0.0" tokens with
the runs of other entries, encoded by the C encoder (json.dumps), spliced in.
load_mdp reads only what save_mdp writes.
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
        if not (np.isfinite(P).all() and np.isfinite(R).all() and np.isfinite(mu).all()):
            raise ValueError("transition, reward and mu must be finite")
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


# Policy iteration switches a state's action only when the greedy Q beats the
# current action's by this share of max(1, max|v|).  A solve's relative
# rounding is about cond * eps, 2e-13 at gamma = 0.999, so near-ties cannot
# cycle; the round cap bounds the work regardless.
_SWITCH_RTOL = 1e-12
_MAX_POLICY_ROUNDS = 100


def _solve_fixed_order(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m x = b by Gaussian elimination without pivoting, in elementwise
    numpy operations only.  No BLAS call means bytes that do not depend on the
    BLAS thread count.  m must be strictly diagonally dominant by rows, as
    I - gamma P^pi is, so no pivot vanishes."""
    m, x = m.copy(), b.copy()
    for k in range(len(x) - 1):
        factors = m[k + 1 :, k] / m[k, k]
        m[k + 1 :, k + 1 :] -= factors[:, None] * m[k, k + 1 :]
        x[k + 1 :] -= factors * x[k]
    for k in range(len(x) - 1, -1, -1):
        x[k] /= m[k, k]
        x[:k] -= m[:k, k] * x[k]
    return x


def _policy_iteration(reward_t: np.ndarray, discounted: np.ndarray) -> np.ndarray:
    """Howard's policy iteration from the greedy policy at v = 0, over the
    action-major layout.  Returns V^pi of its last deterministic policy,
    solved in fixed order; the rounds before that use LAPACK's solve."""
    n_states = reward_t.shape[1]
    states, eye = np.arange(n_states), np.eye(n_states)

    def system(policy):  # (I - gamma P^pi, r^pi)
        return eye - discounted[policy * n_states + states], reward_t[policy, states]

    policy = reward_t.argmax(axis=0)
    for _ in range(_MAX_POLICY_ROUNDS):
        v = np.linalg.solve(*system(policy))
        q = _q_table(reward_t, discounted, v)
        best = q.argmax(axis=0)
        switch = q[best, states] - q[policy, states] > _SWITCH_RTOL * max(1.0, np.max(np.abs(v)))
        if not switch.any():
            break
        policy = np.where(switch, best, policy)
    return _solve_fixed_order(*system(policy))


def value_iteration(mdp: TabularMdp, tol: float = 1e-10, max_iters: int = 1_000_000) -> np.ndarray:
    """V* with the certificate ||T v - v||_inf <= tol.

    Policy iteration gives the start: the exact value of a policy that no
    action beats by more than rounding.  From there the one-step backup is
    iterated until two successive iterates differ by at most tol, the stopping
    test of plain value iteration, and the last backup is returned.  So the
    result is within gamma tol / (1 - gamma) of V* even if policy iteration
    stops early.  max_iters bounds the sweeps after the start; policy
    iteration adds at most 100 rounds of one linear solve each.

    Serves as the primal-LP oracle: the LP optimum equals the fixed point.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    reward_t, discounted = _action_major(mdp)  # laid out once, not every sweep
    v = _policy_iteration(reward_t, discounted)
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
    """Write the bytes json.dump writes for the payload, with Python work
    that grows with the runs of nonzero transition entries, not with S * A * S.

    Each (s, a) row of the transition is written as a row of S "0.0" tokens
    with every run of entries other than +0.0 (-0.0 too, whose text differs)
    spliced in.  All runs are encoded in one call of the C encoder
    (json.dumps); a dense row is a single run."""
    n_states, n_actions = mdp.n_states, mdp.n_actions
    head = json.dumps({"n_states": n_states, "n_actions": n_actions, "gamma": mdp.gamma, "reward": mdp.reward.tolist()})
    rows = mdp.transition.reshape(-1, n_states)
    kept = (rows != 0.0) | np.signbit(rows)
    # Run i spans columns [j[2i], j[2i + 1]) of row q[2i].  Every row sums to
    # 1, so every row holds a run.
    q, j = np.nonzero(np.diff(kept, prepend=False, append=False, axis=1))
    first, stop = j[0::2], j[1::2]
    values = rows[kept].tolist()
    ends = np.cumsum(stop - first).tolist()
    # No number's text holds "], [", so the runs' texts split apart there.
    texts = json.dumps([values[a:b] for a, b in zip([0] + ends, ends)])[2:-2].split("], [")
    zero_row = "[" + ", ".join(["0.0"] * n_states) + "]"  # token j is zero_row[5j + 1 : 5j + 4]
    runs = zip(q[0::2].tolist(), (5 * first + 1).tolist(), (5 * stop - 1).tolist(), texts)
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "transition": [[')
        row, pos = 0, 0
        for run_row, start, end, text in runs:
            if run_row != row:  # close the row, and the state's block after n_actions rows
                fh.write(zero_row[pos:] + (", " if run_row % n_actions else "], ["))
                row, pos = run_row, 0
            fh.write(zero_row[pos:start] + text)
            pos = end
        fh.write(zero_row[pos:] + ']], "mu": ' + json.dumps(mdp.mu.tolist()) + "}")


def load_mdp(path: str) -> TabularMdp:
    """Read a file save_mdp wrote.  A missing field or a field of the wrong
    type is a ValueError that names it: the payload must be a JSON object,
    gamma a number but not a bool, n_states and n_actions ints, and reward,
    transition and mu arrays whose dtype numpy infers as an int or a float.
    The arrays are checked by that dtype, with no scan per element in Python,
    so booleans mixed into a list of floats pass, cast to 0.0 and 1.0."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"MDP file {path} must hold a JSON object, got {type(payload).__name__}")
    missing = [name for name in ("n_states", "n_actions", "gamma", "reward", "transition", "mu") if name not in payload]
    if missing:
        raise ValueError(f"MDP file {path} lacks the field(s) {', '.join(missing)}")
    gamma = payload["gamma"]
    if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
        raise ValueError(f"MDP file {path}: gamma must be a number, got {gamma!r}")
    for name in ("n_states", "n_actions"):
        if type(payload[name]) is not int:
            raise ValueError(f"MDP file {path}: {name} must be an int, got {payload[name]!r}")
    arrays = {name: np.array(payload[name]) for name in ("transition", "reward", "mu")}
    for name, array in arrays.items():
        if array.dtype.kind not in "iuf":
            raise ValueError(f"MDP file {path}: {name} must be an array of numbers, got dtype {array.dtype}")
    mdp = TabularMdp(gamma=gamma, **arrays)  # an int gamma, never inside (0, 1), is rejected there
    if mdp.n_states != payload["n_states"] or mdp.n_actions != payload["n_actions"]:
        raise ValueError("header (n_states, n_actions) disagrees with array shapes")
    return mdp
