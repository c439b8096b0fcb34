"""Update machinery: stepsize schedule, inner value fit, and the policy's KL
prox step in natural-gradient form, one dense solve of the damped Fisher.

Every policy here has at most about a hundred parameters, so the Fisher is
formed as a matrix and solved exactly; the exact prox solve that the step is
checked against is a test reference (tests/reference_prox.py).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StepsizeSchedule:
    """Outer stepsize zeta_t = C / (n0 + t^beta), decaying in t."""

    c: float = 0.01
    n0: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        if self.c <= 0 or self.n0 < 0:
            raise ValueError("need c > 0 and n0 >= 0")
        if not 0.5 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [1/2, 1]")

    def at(self, t: int) -> float:
        if t < 1:
            raise ValueError("t starts at 1")
        return self.c / (self.n0 + t**self.beta)


@dataclass(frozen=True)
class Fisher:
    """The damped empirical Fisher sum_i w_i g_i g_i^T + damping I of the
    score rows g_i, formed as one dense matrix."""

    scores: np.ndarray  # (m, n_params), the rows it was formed from (bench/tracer.py counts them)
    matrix: np.ndarray  # (n_params, n_params)


def fisher_estimate(scores, damping: float = 1e-4, weights=None) -> Fisher:
    """Empirical score outer-product Fisher over a batch of score rows, one
    per (state, action) pair (policy.score_batch).

    weights defaults to 1/m; the rows of every pair weighted by its exact
    probability yield the analytic Fisher.  The weights must be nonnegative:
    the matrix is the Gram matrix of the rows scaled by sqrt(w), which keeps
    it exactly symmetric.
    """
    scores = np.asarray(scores, dtype=float)
    m = len(scores)
    if m == 0:
        raise ValueError("empty Fisher batch")
    w = np.full(m, 1.0 / m) if weights is None else np.asarray(weights, dtype=float)
    rows = np.sqrt(w)[:, None] * scores
    matrix = rows.T @ rows
    matrix[np.diag_indices_from(matrix)] += damping
    return Fisher(scores, matrix)


def natural_gradient_step(
    params: np.ndarray,
    g: np.ndarray,
    fisher: Fisher,
    zeta: float,
    normalize: bool = False,
) -> np.ndarray:
    """theta + zeta F^{-1} g, optionally rescaled by 1/sqrt(g . F^{-1} g).

    F^{-1} g is one dense solve; np.linalg.LinAlgError if F is singular.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    params = np.asarray(params, dtype=float)
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return params.copy()
    direction = np.linalg.solve(fisher.matrix, g)
    if normalize:
        sq = float(g @ direction)
        if sq > 1e-12 and np.isfinite(sq):
            direction = direction / np.sqrt(sq)
        else:
            # includes the tiny-positive case, where dividing by sqrt(sq)
            # would blow pure noise up to a unit-size step
            log.warning("gradient norm g.F^-1.g = %.3g not usable; using unnormalized step", sq)
    return params + zeta * direction


class FitDivergedError(RuntimeError):
    """Inner value fit hit a non-finite gradient; carries the last finite iterate."""

    def __init__(self, params: np.ndarray, iteration: int):
        super().__init__(f"non-finite value gradient at inner step {iteration}")
        self.params = params
        self.iteration = iteration


@dataclass
class FitResult:
    params: np.ndarray
    converged: bool
    grad_norm: float
    n_iters: int


def fit_value(params0, grad_fn, kappa, max_iters: int, grad_tol: float) -> FitResult:
    """Gradient descent on the value objective: theta <- theta - kappa_i grad.

    grad_fn returns the objective's gradient at the current parameters; the
    loop stops once its norm drops to grad_tol.  kappa may be a constant or a
    callable of the 1-based step index.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    step_at = kappa if callable(kappa) else (lambda i: kappa)
    params = np.asarray(params0, dtype=float).copy()
    grad_norm = np.inf
    for i in range(1, max_iters + 1):
        grad = np.asarray(grad_fn(params), dtype=float)
        grad_norm = math.sqrt(grad @ grad)  # np.linalg.norm's own formula, bit for bit
        # a NaN or inf entry makes the norm non-finite; a finite gradient may overflow it
        if not math.isfinite(grad_norm) and not np.all(np.isfinite(grad)):
            raise FitDivergedError(params, i)
        if grad_norm <= grad_tol:
            return FitResult(params, True, grad_norm, i - 1)
        params = params - step_at(i) * grad
    return FitResult(params, False, grad_norm, max_iters)
