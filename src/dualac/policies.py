"""Policies with hand-derived gradients, and the row maps of the values.

* GaussianRbfPolicy - diagonal Gaussian whose mean is linear in random
  Fourier features of the state (continuous control).
* TabularSoftmaxPolicy - per-state softmax logits (tabular verification
  vehicle for the estimator equalities).
* BiasedFeatureMap / IndicatorFeatureMap - the row maps of the value
  functions, v(s) = w . row(s): features with an intercept, or state
  indicators.  A value function is its parameter vector w beside one of
  them; rows gives the rows of a batch of states at once.

The random Fourier features take their cosine from _cosine, a float64
polynomial accurate to 1.8e-10 and a smooth function of its argument, which
costs less than libm's np.cos (below).

Both policies read states through policy.inputs (the feature rows, or the
int states): the action draw, score_batch and kl take inputs, which the
sampler builds once and keeps for the k-step window (estimators.Batch).

Each policy family has one score method, score_batch, which returns the
score rows grad log pi(a|s) in the family's own form: the weighted sum that
is the policy gradient and the diagonal blocks of the damped Fisher that the
prox step solves.  The Gaussian policy's rows are dense (DenseScores, one
block); a tabular row is zero outside its own state's logits
(TabularScores, one A x A block per state, built by np.bincount without
forming the rows).

All parameter gradients are returned as flat vectors so the optimizer can
treat every family uniformly.  No autodiff: each gradient is derived by hand
and checked against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import cumulative, inverse_cdf


# cos(2 pi t) for |t| <= 1/2 as a polynomial of degree 7 in t^2, highest
# power first: the interpolant of cos(2 pi sqrt(u)) at the 8 Chebyshev nodes
# of [0, 1/4], solved in 50-digit arithmetic and rounded to float64.  Its
# interpolation error is below 1.8e-10 (1.2e-10 on a fine grid).
_COS_TURN_COEFFS = (
    -1.4529875452477699,
    7.8000222125709575,
    -26.404630620590822,
    60.242124930672276,
    -85.45665775366736,
    64.93938905248876,
    -19.73920874308773,
    0.9999999998846177,
)


def _cosine(z: np.ndarray) -> np.ndarray:
    """cos(z) of a float64 array, elementwise and in place: z / 2pi less its
    nearest integer is t in [-1/2, 1/2] (the subtraction is exact), and
    Horner's rule evaluates the polynomial in t^2.

    It is accurate to 1.8e-10 + eps (3 |z| + 180), eps = 2^-53: the
    interpolation error, the two roundings of z / 2pi (t moves by 3 eps |t|)
    and those of the square and of Horner's 14 operations.  That is far
    below the about 1/sqrt(F) to which F random features approximate their
    kernel (0.1 at the pendulum's 100).  It is also a smooth function of z
    to float64 precision, so a change of an ulp in z stays a change of about
    an ulp in the result.  A cosine rounded to float32 would not: its
    result steps by a float32 ulp (6e-8) wherever z crosses a float32
    rounding boundary, and the pendulum's records amplify those steps.
    Its 18 elementwise numpy operations cost less than libm's scalar
    float64 np.cos: one pendulum batch (52 trajectories, 200 steps) samples
    in 15.9 ms with it and in 21.9 ms with np.cos on a 2-core Xeon."""
    t = z * (0.5 / np.pi)
    t -= np.rint(t)
    t *= t
    np.multiply(t, _COS_TURN_COEFFS[0], out=z)
    z += _COS_TURN_COEFFS[1]
    for c in _COS_TURN_COEFFS[2:]:
        z *= t
        z += c
    return z


def median_trick_bandwidth(states: np.ndarray) -> float:
    """Median pairwise Euclidean distance of a state sample."""
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) < 2:
        raise ValueError("median trick needs at least two samples")
    # pairwise distances one row at a time, in pdist's order; the full
    # (n, n, d) difference tensor would cost n^2 d floats at once
    dists = np.concatenate([np.sqrt(((x[i + 1 :] - x[i]) ** 2).sum(axis=1)) for i in range(len(x) - 1)])
    med = float(np.median(dists))
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (identical samples)")
    return med


@dataclass(frozen=True, slots=True)
class RbfFeatureMap:
    """Random Fourier features f_j(s) = cos(w_j . s / bandwidth + b_j).

    Frequencies are standard normal and phases uniform on [0, 2pi), both
    frozen at construction, so (1/n) f(x).f(y) approximates half the RBF
    kernel exp(-||x-y||^2 / (2 bandwidth^2)).
    """

    frequencies: np.ndarray  # (n_features, state_dim)
    phases: np.ndarray       # (n_features,)
    bandwidth: float

    def __post_init__(self):
        shape, phases = np.shape(self.frequencies), np.shape(self.phases)
        if len(shape) != 2 or phases != shape[:1]:
            raise ValueError(f"need frequencies (F, D) and phases (F,), got shapes {shape} and {phases}")
        if not 0 < self.bandwidth < np.inf:
            raise ValueError("bandwidth must be positive and finite")
        if not (np.isfinite(self.frequencies).all() and np.isfinite(self.phases).all()):
            raise ValueError("frequencies and phases must be finite")

    @classmethod
    def create(cls, n_features: int, state_dim: int, bandwidth: float, seed: int) -> "RbfFeatureMap":
        rng = np.random.default_rng(seed)
        return cls(
            frequencies=rng.standard_normal((n_features, state_dim)),
            phases=rng.uniform(0.0, 2.0 * np.pi, size=n_features),
            bandwidth=float(bandwidth),
        )

    @property
    def n_features(self) -> int:
        return self.frequencies.shape[0]

    def rows(self, states: np.ndarray) -> np.ndarray:
        """Features of a batch (N, D) -> (N, F), each row bitwise equal to the
        map of that state alone: a stacked matrix-vector product, where
        x @ frequencies.T rounds differently in most rows.  The divide, the
        add and the cosine (_cosine) run in place on the product."""
        x = np.asarray(states, dtype=float)
        z = np.matmul(self.frequencies, x[..., None])[..., 0]
        z /= self.bandwidth
        z += self.phases
        return _cosine(z)


class BiasedFeatureMap:
    """Appends a constant 1 to a base feature map's rows (intercept for linear values)."""

    __slots__ = ("base", "n_features")

    def __init__(self, base):
        self.base = base
        self.n_features = base.n_features + 1

    def rows(self, states: np.ndarray) -> np.ndarray:
        f = self.base.rows(states)
        return np.concatenate([f, np.ones((len(f), 1))], axis=1)


class IndicatorFeatureMap:
    """The indicator of each of n_features states: a tabular value's row map."""

    __slots__ = ("n_features",)

    def __init__(self, n_features: int):
        self.n_features = n_features

    def rows(self, states) -> np.ndarray:
        return np.eye(self.n_features)[np.asarray(states)]


class DenseScores:
    """Score rows held as one dense (N, P) array.  The Fisher is their
    weighted Gram matrix, a single (P, P) block."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def __len__(self) -> int:
        return len(self.rows)

    def weighted_sum(self, w) -> np.ndarray:
        """sum_i w_i row_i."""
        return w @ self.rows

    def fisher_blocks(self, w, damping: float) -> np.ndarray:
        """sum_i w_i row_i row_i^T + damping I as one (1, P, P) block.  The
        weights must be nonnegative: the matrix is the Gram matrix of the
        rows scaled by sqrt(w), which keeps it exactly symmetric."""
        scaled = np.sqrt(w)[:, None] * self.rows
        matrix = scaled.T @ scaled
        matrix[np.diag_indices_from(matrix)] += damping
        return matrix[None]


class TabularScores:
    """The score rows e_a - p(s) of (state, action) pairs in the logits of
    s, held as the pairs and the probability table p (S, A) instead of
    (N, S A) rows.

    A weighted sum over the rows bins by state.  With N_s the weights
    binned by (s, a) pair and W_s their sum over the rows in state s (two
    np.bincount calls), state s's logits get N_s - W_s p(s) of the gradient,
    and the Fisher is block-diagonal with the A x A block
    diag(N_s) - N_s p(s)^T - p(s) N_s^T + W_s p(s) p(s)^T + damping I.
    The bins add the rows in order and the blocks are small, so the forms
    and their solves round the same at any BLAS thread count.  They
    subtract terms of size W_s: where p(s) is nearly one-hot they agree
    with the dense rows' forms to about 1e-16 W_s, not to relative
    precision."""

    def __init__(self, states, actions, probs):
        self.states, self.actions, self.probs = states, actions, probs

    def __len__(self) -> int:
        return len(self.states)

    def _bins(self, w):
        n_states, n_actions = self.probs.shape
        pairs = np.bincount(self.states * n_actions + self.actions, w, minlength=self.probs.size)
        return pairs.reshape(n_states, n_actions), np.bincount(self.states, w, minlength=n_states)

    def weighted_sum(self, w) -> np.ndarray:
        """sum_i w_i (e_{a_i} - p(s_i)), flat in the logits' order."""
        pairs, totals = self._bins(w)
        return (pairs - totals[:, None] * self.probs).ravel()

    def fisher_blocks(self, w, damping: float) -> np.ndarray:
        """The (S, A, A) diagonal blocks of sum_i w_i g_i g_i^T + damping I,
        each exactly symmetric; a state that no row visits gets damping I."""
        pairs, totals = self._bins(w)
        p = self.probs
        cross = pairs[:, :, None] * p[:, None, :]
        blocks = totals[:, None, None] * (p[:, :, None] * p[:, None, :]) - (cross + cross.transpose(0, 2, 1))
        diag = np.arange(p.shape[1])
        blocks[:, diag, diag] += pairs + damping
        return blocks


class GaussianRbfPolicy:
    """pi(a|s) = Normal(W f(s), diag(exp(2 log_std)))."""

    __slots__ = ("feature_map", "weights", "log_std")

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

    def inputs(self, states) -> np.ndarray:
        """The feature rows f(s) of a batch of states (N, D) -> (N, F)."""
        return self.feature_map.rows(states)

    def action_sampler(self):
        """The current policy's action draw for the inputs of a batch of
        states (N, F), one row of standard normal noise (N, action_dim) each:
        mean(state) + exp(log_std) * noise, bitwise for every row."""
        weights, scale = self.weights.copy(), np.exp(self.log_std)
        return lambda phi, noise: np.matmul(weights, phi[..., None])[..., 0] + scale * noise

    def score_batch(self, phi, actions) -> DenseScores:
        """The log-probability gradients grad log pi(a|s), one dense row per
        (input, action) pair: (diff / var) f(s) for the weights and
        diff^2 / var - 1 for log_std, with diff = a - mean(s) and phi the
        feature rows f(s) (inputs)."""
        acts = np.asarray(actions, dtype=float).reshape(len(phi), self.action_dim)
        diff = acts - phi @ self.weights.T
        var = np.exp(2 * self.log_std)
        grad_w = (diff / var)[:, :, None] * phi[:, None, :]
        grad_ls = diff**2 / var - 1.0
        return DenseScores(np.concatenate([grad_w.reshape(len(phi), -1), grad_ls], axis=1))

    def kl(self, old: "GaussianRbfPolicy", phi: np.ndarray) -> float:
        """Mean over states of KL(self(.|s) || old(.|s)), given their feature
        rows phi (inputs), which the two policies share."""
        mu1, mu2 = phi @ self.weights.T, phi @ old.weights.T
        var1, var2 = np.exp(2 * self.log_std), np.exp(2 * old.log_std)
        per_dim = (old.log_std - self.log_std) + (var1 + (mu1 - mu2) ** 2) / (2 * var2) - 0.5
        return float(per_dim.sum(axis=1).mean())


class TabularSoftmaxPolicy:
    """Per-state softmax over action logits."""

    __slots__ = ("logits",)

    def __init__(self, n_states: int, n_actions: int, logits: np.ndarray | None = None):
        self.logits = np.zeros((n_states, n_actions)) if logits is None else np.array(logits, dtype=float)

    @property
    def n_params(self) -> int:
        return self.logits.size

    def get_params(self) -> np.ndarray:
        return self.logits.ravel().copy()

    def set_params(self, flat: np.ndarray) -> None:
        self.logits = np.asarray(flat, dtype=float).reshape(self.logits.shape).copy()

    def copy(self) -> "TabularSoftmaxPolicy":
        return TabularSoftmaxPolicy(*self.logits.shape, logits=self.logits)

    def log_prob_matrix(self) -> np.ndarray:
        z = self.logits - self.logits.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def prob_matrix(self) -> np.ndarray:
        return np.exp(self.log_prob_matrix())

    def inputs(self, states) -> np.ndarray:
        """The states themselves, as ints."""
        return np.asarray(states, dtype=int)

    def action_sampler(self):
        """The current policy's action draw for the inputs of a batch of
        states, one uniform each, by inverse CDF: the action
        Generator.choice(n_actions, p=p(s)) draws from the same uniform, with
        p(s) the row of prob_matrix normalized again."""
        p = self.prob_matrix()
        cdf = cumulative(p / p.sum(axis=1, keepdims=True))
        return lambda states, u: inverse_cdf(cdf[states], u)

    def score_batch(self, states, actions) -> TabularScores:
        """The log-probability gradients grad log pi(a|s) = e_a - p(s) in the
        logits of s of (state, action) pairs, held as the pairs and the
        current probability table."""
        return TabularScores(np.asarray(states, dtype=int), np.asarray(actions, dtype=int), self.prob_matrix())

    def kl(self, old: "TabularSoftmaxPolicy", states) -> float:
        lp, lq = self.log_prob_matrix(), old.log_prob_matrix()
        per_state = np.sum(np.exp(lp) * (lp - lq), axis=1)
        return float(np.mean(per_state[np.asarray(states, dtype=int)]))
