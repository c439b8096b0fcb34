"""The inner value fit step by step: the reference that the closed form of
`dualac.optim.fit_value` is checked against.

fit_value_loop is gradient descent as a Python loop, one gradient call per
step, and grad_v_estimate evaluates the sampled value gradient of
`estimators.ValueGradTerms` from its behavior rows, the way the loop read it
before the fit took its closed form.
"""

import math

import numpy as np

from dualac.optim import FitDivergedError, FitResult


def grad_v_estimate(terms, params) -> np.ndarray:
    """The sampled value gradient of value_grad_terms at value parameters params.

    Bitwise equal to summing the penalty trajectory by trajectory: vecdot takes
    each row's dot product as w @ row does, and the axis-0 sum from 0.0 adds
    the rows in order.
    """
    if terms.eta_v <= 0:
        return terms.constant.copy()
    resid = terms.returns - np.vecdot(terms.rows, params)
    pen = (resid[:, None] * terms.rows).sum(axis=0, initial=0.0)
    return terms.constant - 2.0 * terms.eta_v * pen / len(terms.returns)


def fit_value_loop(params0, grad_fn, kappa: float, max_iters: int, grad_tol: float) -> FitResult:
    """Gradient descent on the value objective: theta <- theta - kappa grad.

    grad_fn returns the objective's gradient at the current parameters; the
    loop stops once its norm drops to grad_tol.  Once the budget runs out,
    grad_norm is the norm one step before the returned parameters.  A
    non-finite gradient raises FitDivergedError with the last finite iterate.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    params = np.asarray(params0, dtype=float).copy()
    grad_norm = np.inf
    for i in range(1, max_iters + 1):
        grad = np.asarray(grad_fn(params), dtype=float)
        grad_norm = math.sqrt(grad @ grad)  # np.linalg.norm's own formula, bit for bit
        # a NaN or inf entry makes the norm non-finite; a finite gradient may overflow it
        if not math.isfinite(grad_norm) and not np.all(np.isfinite(grad)):
            raise FitDivergedError(params, f"non-finite value gradient at inner step {i}")
        if grad_norm <= grad_tol:
            return FitResult(params, True, grad_norm, i - 1)
        params = params - kappa * grad
    return FitResult(params, False, grad_norm, max_iters)
