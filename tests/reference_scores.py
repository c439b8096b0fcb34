"""Reference for the tabular score rows: grad log pi(a|s) = e_a - p(s) in the
logits of s, one dense row of all S A logits per (state, action) pair.

The package never forms these rows: `policies.TabularScores` bins the pairs
by state instead, and `estimators.exact_grad_pi` writes out its own table.
The tests compare those forms with these rows.
"""

from __future__ import annotations

import numpy as np


def tabular_score_rows(policy, states, actions) -> np.ndarray:
    """The (N, S A) score rows of a TabularSoftmaxPolicy at N (state, action) pairs."""
    states, actions = np.asarray(states, dtype=int), np.asarray(actions, dtype=int)
    rows = np.arange(len(states))
    out = np.zeros((len(states),) + policy.logits.shape)
    out[rows, states] = -policy.prob_matrix()[states]
    out[rows, states, actions] += 1.0
    return out.reshape(len(states), -1)
