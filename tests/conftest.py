import itertools
import os

import numpy as np
import pytest

from dualac.estimators import Batch, residuals, traj_deltas
from dualac.mdp import TabularMdp, policy_value
from dualac.policies import IndicatorFeatureMap


def pytest_report_header(config):
    # the pinned record digests hold at OpenBLAS's default thread count on a
    # 2-core machine; the Gram product and the LU solve round differently at
    # other thread counts
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}, "
        f"os.cpu_count()={os.cpu_count()}, numpy {np.__version__} BLAS: "
        f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', 'no OpenBLAS configuration')})"
    )


def make_single_state_mdp(gamma=0.9, r=1.0, n_actions=1):
    """One state, self-loop, constant reward: V* = r / (1 - gamma)."""
    P = np.ones((1, n_actions, 1))
    R = np.full((1, n_actions), r)
    return TabularMdp(transition=P, reward=R, gamma=gamma, mu=np.array([1.0]))


def make_chain2_mdp(gamma=0.5):
    """Two-state deterministic chain, hand-solvable.

    s0: a0 self-loop (R=0), a1 -> s1 (R=0); s1: both actions self-loop (R=1).
    With gamma=0.5: V*(s1) = 2, V*(s0) = 1; optimal policy takes a1 at s0.
    """
    P = np.zeros((2, 2, 2))
    P[0, 0, 0] = 1.0
    P[0, 1, 1] = 1.0
    P[1, :, 1] = 1.0
    R = np.array([[0.0, 0.0], [1.0, 1.0]])
    return TabularMdp(transition=P, reward=R, gamma=gamma, mu=np.array([1.0, 0.0]))


def make_batch(paths) -> Batch:
    """A Batch of hand-written trajectories, padded as the sampler pads them.
    Each path is (states, actions, rewards), optionally followed by whether
    it ended by absorption.  Its window is the whole of every path, with the
    states as the inputs, as a tabular policy reads them."""
    paths = [(np.asarray(p[0]), np.asarray(p[1]), np.asarray(p[2], dtype=float), len(p) > 3 and p[3]) for p in paths]
    horizon = max((len(p[2]) for p in paths), default=0)

    def pad(column, width):
        arrays = [p[column] for p in paths]
        shape = arrays[0].shape[1:] if arrays else ()
        out = np.zeros((len(arrays), width) + shape, dtype=arrays[0].dtype if arrays else int)
        for row, x in zip(out, arrays):
            row[: len(x)] = x
        return out

    return Batch(
        obs=pad(0, horizon + 1),
        actions=pad(1, horizon),
        rewards=pad(2, horizon),
        lengths=np.array([len(p[2]) for p in paths], dtype=int),
        terminated=np.array([bool(p[3]) for p in paths], dtype=bool),
        inputs=np.concatenate([p[0][: len(p[2])] for p in paths]) if paths else np.zeros(0, dtype=int),
        window_len=horizon,
    )


def tabular_deltas(batch: Batch, values, gamma: float, k: int) -> np.ndarray:
    """delta_k of a batch's trajectories under the tabular value vector values."""
    values = np.asarray(values, dtype=float)
    return traj_deltas(residuals(batch, IndicatorFeatureMap(len(values)).rows, gamma, k), values)


def fd_grad(f, x0, h=1e-5) -> np.ndarray:
    """Central finite-difference gradient of the scalar function f at x0."""
    g = np.zeros_like(x0)
    for i in range(len(x0)):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return g


def enumerate_policy_values(mdp, finite_horizon_k=None, tail_v=None) -> np.ndarray:
    """Max over deterministic policies, each evaluated by an independent method.

    finite_horizon_k=None: stationary policies, infinite-horizon value by
    linear solve (oracle for value_iteration).  Otherwise: time-varying plans
    over steps 0..k, value sum_{i<=k} gamma^i R + gamma^{k+1} E[tail_v], by
    backward sweeps (oracle for the composed k-step operator).
    """
    S, A = mdp.n_states, mdp.n_actions
    best = np.full(S, -np.inf)
    if finite_horizon_k is None:
        for acts in itertools.product(range(A), repeat=S):
            pi = np.zeros((S, A))
            pi[np.arange(S), list(acts)] = 1.0
            best = np.maximum(best, policy_value(mdp, pi))
        return best
    for assignment in itertools.product(range(A), repeat=S * (finite_horizon_k + 1)):
        plan = np.array(assignment).reshape(finite_horizon_k + 1, S)
        w = tail_v.copy()
        for i in range(finite_horizon_k, -1, -1):
            acts = plan[i]
            P_i = mdp.transition[np.arange(S), acts]
            w = mdp.reward[np.arange(S), acts] + mdp.gamma * P_i @ w
        best = np.maximum(best, w)
    return best


def softmax(logits) -> np.ndarray:
    """A softmax start distribution over states from its logits."""
    logits = np.asarray(logits, dtype=float)
    e = np.exp(logits - logits.max())
    return e / e.sum()


@pytest.fixture
def single_state_mdp():
    return make_single_state_mdp()


@pytest.fixture
def chain2_mdp():
    return make_chain2_mdp()
