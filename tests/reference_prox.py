"""The exact KL prox step on tabular softmax policies: the reference that the
natural-gradient step of `dualac.optim` is checked against.

Training never takes this step: on softmax policies the prox objective is
unbounded below along directions that saturate the logits.
"""

import numpy as np
from scipy import optimize


def softmax_kl_grad(policy, old, states) -> np.ndarray:
    """Gradient in policy's logits of the mean over states of
    KL(policy(.|s) || old(.|s)), flattened like policy.get_params()."""
    lp, lq = policy.log_prob_matrix(), old.log_prob_matrix()
    p, ratio = np.exp(lp), lp - lq
    per_state_kl = np.sum(p * ratio, axis=1)
    states = np.asarray(states, dtype=int)
    grad = np.zeros_like(policy.logits)
    np.add.at(grad, states, p[states] * (ratio[states] - per_state_kl[states, None]))
    return grad.ravel() / len(states)


def exact_prox_pi(policy, g: np.ndarray, zeta: float, kl_states, max_iters: int = 2000, gtol: float = 1e-12):
    """Solve theta = argmin -theta.g + KL(pi_theta || pi_old)/zeta numerically.

    The KL is the batch mean over kl_states against the softmax policy's
    current parameters.  Returns the new flat parameter vector.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    theta0 = policy.get_params()
    cand = policy.copy()

    def fg(theta):
        cand.set_params(theta)
        val = -float((theta - theta0) @ g) + cand.kl(policy, kl_states) / zeta
        grad = -g + softmax_kl_grad(cand, policy, kl_states) / zeta
        return val, grad

    res = optimize.minimize(
        fg,
        theta0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iters, "gtol": gtol, "ftol": 0.0},
    )
    if not np.all(np.isfinite(res.x)):
        raise RuntimeError(f"prox solve diverged: {res.message}")
    return res.x
