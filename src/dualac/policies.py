"""Policy and value parameterizations with hand-derived gradients.

Three families, matching what the training driver needs:

* GaussianRbfPolicy - diagonal Gaussian whose mean is linear in random
  Fourier features of the state (continuous control).
* TabularSoftmaxPolicy - per-state softmax logits (tabular verification
  vehicle for the estimator equalities).
* LinearValue / TabularValue - value functions linear in features or in
  state indicators, v(s) = w . row(s), giving the rows of a batch of states
  at once.

All parameter gradients are returned as flat vectors so the optimizer can
treat every family uniformly.  No autodiff: each gradient is derived by hand
and checked against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import cumulative, inverse_cdf


def median_trick_bandwidth(states: np.ndarray, max_points: int = 1000, rng=None) -> float:
    """Median pairwise Euclidean distance of a state sample (subsampled for cost)."""
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) < 2:
        raise ValueError("median trick needs at least two samples")
    if len(x) > max_points:
        if rng is None:
            rng = np.random.default_rng(0)
        x = x[rng.choice(len(x), size=max_points, replace=False)]
    # pairwise distances one row at a time, in pdist's order; the full
    # (n, n, d) difference tensor would cost n^2 d floats at once
    dists = np.concatenate([np.sqrt(((x[i + 1 :] - x[i]) ** 2).sum(axis=1)) for i in range(len(x) - 1)])
    med = float(np.median(dists))
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (identical samples)")
    return med


@dataclass(frozen=True)
class RbfFeatureMap:
    """Random Fourier features f_j(s) = cos(w_j . s / bandwidth + b_j).

    Frequencies are standard normal and phases uniform on [0, 2pi), both
    frozen at construction, so (1/n) f(x).f(y) approximates half the RBF
    kernel exp(-||x-y||^2 / (2 bandwidth^2)).
    """

    frequencies: np.ndarray  # (n_features, state_dim)
    phases: np.ndarray       # (n_features,)
    bandwidth: float

    @classmethod
    def create(cls, n_features: int, state_dim: int, bandwidth: float, seed: int) -> "RbfFeatureMap":
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        rng = np.random.default_rng(seed)
        return cls(
            frequencies=rng.standard_normal((n_features, state_dim)),
            phases=rng.uniform(0.0, 2.0 * np.pi, size=n_features),
            bandwidth=float(bandwidth),
        )

    @property
    def n_features(self) -> int:
        return self.frequencies.shape[0]

    @property
    def state_dim(self) -> int:
        return self.frequencies.shape[1]

    def __call__(self, state: np.ndarray) -> np.ndarray:
        """Features for one state (D,) -> (F,), or a batch (N, D) -> (N, F)."""
        x = np.asarray(state, dtype=float)
        if x.ndim == 1:
            if x.shape[0] != self.state_dim:
                raise ValueError(f"state dim {x.shape[0]} != feature map dim {self.state_dim}")
            return np.cos(self.frequencies @ x / self.bandwidth + self.phases)
        if x.shape[1] != self.state_dim:
            raise ValueError(f"state dim {x.shape[1]} != feature map dim {self.state_dim}")
        return np.cos(x @ self.frequencies.T / self.bandwidth + self.phases)

    def rows(self, states: np.ndarray) -> np.ndarray:
        """Features of a batch (N, D) -> (N, F), each row bitwise equal to the
        map of that state alone: a stacked matrix-vector product, where
        x @ frequencies.T rounds differently in most rows."""
        x = np.asarray(states, dtype=float)
        return np.cos(np.matmul(self.frequencies, x[..., None])[..., 0] / self.bandwidth + self.phases)


class BiasedFeatureMap:
    """Appends a constant 1 to a base feature map's rows (intercept for linear values)."""

    def __init__(self, base):
        self.base = base
        self.n_features = base.n_features + 1

    def rows(self, states: np.ndarray) -> np.ndarray:
        f = self.base.rows(states)
        return np.concatenate([f, np.ones((len(f), 1))], axis=1)


class GaussianRbfPolicy:
    """pi(a|s) = Normal(W f(s), diag(exp(2 log_std)))."""

    def __init__(self, feature_map: RbfFeatureMap, action_dim: int, init_log_std: float = 0.0, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.feature_map = feature_map
        self.weights = 0.01 * rng.standard_normal((action_dim, feature_map.n_features))
        self.log_std = np.full(action_dim, float(init_log_std))

    @property
    def action_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def n_params(self) -> int:
        return self.weights.size + self.log_std.size

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.log_std])

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        nw = self.weights.size
        self.weights = flat[:nw].reshape(self.weights.shape).copy()
        self.log_std = flat[nw:].copy()

    def copy(self) -> "GaussianRbfPolicy":
        clone = GaussianRbfPolicy.__new__(GaussianRbfPolicy)
        clone.feature_map = self.feature_map
        clone.weights = self.weights.copy()
        clone.log_std = self.log_std.copy()
        return clone

    def action_sampler(self):
        """The current policy's action draw for a batch of states (N, D), one
        row of standard normal noise (N, action_dim) each: mean(state) +
        exp(log_std) * noise, bitwise for every row."""
        weights, scale, features = self.weights.copy(), np.exp(self.log_std), self.feature_map.rows
        return lambda states, noise: np.matmul(weights, features(states)[..., None])[..., 0] + scale * noise

    def score_batch(self, states, actions) -> np.ndarray:
        """Stacked log-probability gradients grad log pi(a|s), one row per
        (state, action) pair: (diff / var) f(s) for the weights and
        diff^2 / var - 1 for log_std, with diff = a - mean(s)."""
        phi = self.feature_map(np.asarray(states, dtype=float))  # (N, F)
        acts = np.asarray(actions, dtype=float).reshape(len(phi), self.action_dim)
        diff = acts - phi @ self.weights.T
        var = np.exp(2 * self.log_std)
        grad_w = (diff / var)[:, :, None] * phi[:, None, :]
        grad_ls = diff**2 / var - 1.0
        return np.concatenate([grad_w.reshape(len(phi), -1), grad_ls], axis=1)

    def kl(self, old: "GaussianRbfPolicy", states: np.ndarray) -> float:
        """Mean over states of KL(self(.|s) || old(.|s)); the two policies share
        the feature map, so the states' features are built once."""
        phi = self.feature_map(states)  # (N, F)
        mu1, mu2 = phi @ self.weights.T, phi @ old.weights.T
        var1, var2 = np.exp(2 * self.log_std), np.exp(2 * old.log_std)
        per_dim = (old.log_std - self.log_std) + (var1 + (mu1 - mu2) ** 2) / (2 * var2) - 0.5
        return float(per_dim.sum(axis=1).mean())


class TabularSoftmaxPolicy:
    """Per-state softmax over action logits."""

    def __init__(self, n_states: int, n_actions: int, logits: np.ndarray | None = None):
        self.logits = np.zeros((n_states, n_actions)) if logits is None else np.array(logits, dtype=float)

    @property
    def n_states(self) -> int:
        return self.logits.shape[0]

    @property
    def n_actions(self) -> int:
        return self.logits.shape[1]

    @property
    def n_params(self) -> int:
        return self.logits.size

    def get_params(self) -> np.ndarray:
        return self.logits.ravel().copy()

    def set_params(self, flat: np.ndarray) -> None:
        self.logits = np.asarray(flat, dtype=float).reshape(self.logits.shape).copy()

    def copy(self) -> "TabularSoftmaxPolicy":
        return TabularSoftmaxPolicy(self.n_states, self.n_actions, logits=self.logits)

    def log_prob_matrix(self) -> np.ndarray:
        z = self.logits - self.logits.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def prob_matrix(self) -> np.ndarray:
        return np.exp(self.log_prob_matrix())

    def action_sampler(self):
        """The current policy's action draw for a batch of states, one uniform
        each, by inverse CDF: the action Generator.choice(n_actions, p=p(s))
        draws from the same uniform, with p(s) the row of prob_matrix
        normalized again."""
        p = self.prob_matrix()
        cdf = cumulative(p / p.sum(axis=1, keepdims=True))
        return lambda states, u: inverse_cdf(cdf[states], u)

    def score_batch(self, states, actions) -> np.ndarray:
        """Stacked log-probability gradients grad log pi(a|s) = e_a - p(s) in
        the logits of s, one row per (state, action) pair."""
        states, actions = np.asarray(states, dtype=int), np.asarray(actions, dtype=int)
        rows = np.arange(len(states))
        out = np.zeros((len(states),) + self.logits.shape)
        out[rows, states] = -self.prob_matrix()[states]
        out[rows, states, actions] += 1.0
        return out.reshape(len(states), -1)

    def kl(self, old: "TabularSoftmaxPolicy", states) -> float:
        lp, lq = self.log_prob_matrix(), old.log_prob_matrix()
        per_state = np.sum(np.exp(lp) * (lp - lq), axis=1)
        return float(np.mean(per_state[np.asarray(states, dtype=int)]))


class LinearValue:
    """v(s) = w . f(s) for a fixed feature map."""

    def __init__(self, feature_map):
        self.feature_map = feature_map
        self.weights = np.zeros(feature_map.n_features)

    @property
    def n_params(self) -> int:
        return self.weights.size

    def get_params(self) -> np.ndarray:
        return self.weights.copy()

    def set_params(self, flat: np.ndarray) -> None:
        self.weights = np.asarray(flat, dtype=float).copy()

    def copy(self) -> "LinearValue":
        clone = LinearValue.__new__(LinearValue)
        clone.feature_map = self.feature_map
        clone.weights = self.weights.copy()
        return clone

    def rows(self, states) -> np.ndarray:
        """grad v(s) = f(s) for a batch of states, one row each."""
        return self.feature_map.rows(states)


class TabularValue:
    """One value parameter per state; the gradient is the state indicator."""

    def __init__(self, n_states: int):
        self.values = np.zeros(n_states)

    @property
    def n_params(self) -> int:
        return self.values.size

    def get_params(self) -> np.ndarray:
        return self.values.copy()

    def set_params(self, flat: np.ndarray) -> None:
        self.values = np.asarray(flat, dtype=float).copy()

    def copy(self) -> "TabularValue":
        clone = TabularValue(len(self.values))
        clone.values = self.values.copy()
        return clone

    def rows(self, states) -> np.ndarray:
        """grad v(s), the indicator of s, for a batch of states, one row each."""
        return np.eye(len(self.values))[np.asarray(states)]
