"""The inner value fit step by step: the reference that the closed form of
`dualac.optim.fit_value` is checked against.

fit_value_loop is gradient descent as a Python loop, one gradient call per
step.  The tests hand it the gradient w -> offset + hessian @ w of a
quadratic, such as the one `estimators.value_grad_terms` builds for a
batch, or a sequence of gradients that turns non-finite at a given step.
"""

import math

import numpy as np

from dualac.optim import FitDivergedError, FitResult


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
