"""Reference Bellman operators that only the tests read: the k-step
composition, its geometric lambda mixture, and the sup-norm bound on a fixed
point.  Each is a plain loop over `mdp.bellman_optimality_operator`.
"""

from __future__ import annotations

import numpy as np

from dualac.mdp import TabularMdp, bellman_optimality_operator


def k_step_bellman(mdp: TabularMdp, v: np.ndarray, k: int) -> np.ndarray:
    """(k+1)-fold composition of the one-step optimality backup.

    k = 0 is the plain one-step operator.  On tabular MDPs the composition
    coincides with exhaustive closed-loop maximization over length-(k+1)
    action sequences, which the test suite checks by policy enumeration.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    out = v
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
    term = bellman_optimality_operator(mdp, v)  # T_0 v
    for k in range(k_max + 1):
        weight = lam**k_max if k == k_max else (1.0 - lam) * lam**k
        out += weight * term
        if k < k_max:
            term = bellman_optimality_operator(mdp, term)
    return out


def value_bound(mdp: TabularMdp) -> float:
    """Upper bound max|R| / (1 - gamma) on the sup-norm of any fixed point."""
    return float(np.max(np.abs(mdp.reward)) / (1.0 - mdp.gamma))
