"""Update machinery: stepsize schedule, the inner value fit as fixed-budget
gradient descent in closed form, and the policy's KL prox step in
natural-gradient form, one stacked solve of the damped Fisher's diagonal
blocks.

Every model here has at most about a hundred parameters, so the value fit's
Hessian and the Fisher's blocks are formed as matrices and decomposed
exactly; the step-by-step descent and the exact prox solve that they are
checked against are test references (tests/reference_fit.py,
tests/reference_prox.py).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class StepsizeSchedule:
    """Outer stepsize zeta_t = C / (n0 + t^beta), decaying in t."""

    c: float = 0.5
    n0: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        if not (0 < self.c < math.inf and 0 <= self.n0 < math.inf):
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
    score rows g_i, as its diagonal blocks: blocks[b] covers parameters
    b n to (b + 1) n - 1, and the Fisher is zero outside them.  A tabular
    policy's rows give one A x A block per state, dense rows one (P, P)
    block."""

    scores: object       # the score form it was built from, one entry per row (bench/tracer.py counts them)
    blocks: np.ndarray   # (B, n, n) with B n = n_params


def fisher_estimate(scores, damping: float = 1e-4, weights=None) -> Fisher:
    """Empirical score outer-product Fisher over a batch of score rows, one
    per (state, action) pair, in the score form of the policy's family
    (policy.score_batch, or policies.DenseScores of any rows).

    weights defaults to 1/m; the rows of every pair weighted by its exact
    probability yield the analytic Fisher.  The weights must be nonnegative.
    """
    m = len(scores)
    if m == 0:
        raise ValueError("empty Fisher batch")
    w = np.full(m, 1.0 / m) if weights is None else np.asarray(weights, dtype=float)
    return Fisher(scores, scores.fisher_blocks(w, damping))


def natural_gradient_step(
    params: np.ndarray,
    g: np.ndarray,
    fisher: Fisher,
    zeta: float,
    normalize: bool = False,
) -> np.ndarray:
    """theta + zeta F^{-1} g, optionally rescaled by 1/sqrt(g . F^{-1} g).

    F^{-1} g is one stacked solve over the Fisher's blocks, each block with
    its own slice of g (bitwise the 2-D solve for a single block);
    np.linalg.LinAlgError if a block is singular.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    params = np.asarray(params, dtype=float)
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return params.copy()
    blocks = fisher.blocks
    direction = np.linalg.solve(blocks, g.reshape(len(blocks), -1, 1)).reshape(-1)
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
    """The inner value fit would diverge: its quadratic is not finite, or the
    stepsize times the Hessian's largest eigenvalue exceeds 2, so that every
    gradient step grows the gradient along that direction.  Raised before
    any step; params holds the starting parameters w_0."""

    def __init__(self, params: np.ndarray, reason: str):
        super().__init__(reason)
        self.params = params


@dataclass
class FitResult:
    params: np.ndarray
    converged: bool   # stopped early: |g| <= grad_tol at params
    grad_norm: float  # |g| = |b + H w| at params
    n_iters: int      # gradient steps taken


def fit_value(params0, hessian, offset, kappa: float, max_iters: int, grad_tol: float) -> FitResult:
    """Gradient descent w <- w - kappa g(w) on a quadratic with gradient
    g(w) = offset + hessian @ w, for a symmetric PSD hessian, in closed form.

    The descent stops at the first step n < max_iters with |g(w_n)| <=
    grad_tol, or else after max_iters steps.  With hessian = U diag(lam) U^T,
    g(w_n) = U diag((1 - kappa lam)^n) U^T g(w_0) and
    w_n = w_0 - U diag(phi_n(lam)) U^T g(w_0), where
    phi_n(lam) = (1 - (1 - kappa lam)^n) / lam and phi_n(0) = n kappa: one
    eigendecomposition.  |g(w_n)| does not increase with n while
    kappa lam <= 2, so bisection finds the stopping step, and the budget
    costs neither time nor memory.  A zero hessian takes no
    eigendecomposition: w_n = w_0 - n kappa offset.  Eigenvalues below 0 are
    rounding and count as 0.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    params0 = np.asarray(params0, dtype=float)
    hessian, offset = np.asarray(hessian, dtype=float), np.asarray(offset, dtype=float)
    if not (np.all(np.isfinite(hessian)) and np.all(np.isfinite(offset))):
        raise FitDivergedError(params0.copy(), "non-finite value gradient")
    if not hessian.any():
        grad_norm = math.sqrt(offset @ offset)  # np.linalg.norm's own formula, bit for bit
        n = 0 if grad_norm <= grad_tol else max_iters
        return FitResult(params0 - (n * kappa) * offset, n < max_iters, grad_norm, n)
    lam, vecs = np.linalg.eigh(hessian)
    x = kappa * np.maximum(lam, 0.0)
    if x[-1] > 2.0:
        raise FitDivergedError(
            params0.copy(), f"stepsize {kappa:.3g} times the largest curvature {lam[-1]:.3g} exceeds 2"
        )
    coef = vecs.T @ (offset + hessian @ params0)  # g(w_0) in the eigenbasis
    # |1 - x|^n = (1 - d)^n with d = min(x, 2 - x) in [0, 1], taken as
    # exp(n log1p(-d)): the power itself loses digits where x is near 0 or 2
    with np.errstate(divide="ignore"):
        log_decay = np.log1p(-np.minimum(x, 2.0 - x))

    def grad_norm_at(n: int) -> float:
        grad = coef * np.exp(n * log_decay) if n else coef
        return math.sqrt(grad @ grad)

    lo, hi = -1, max_iters  # the first n < max_iters with |g(w_n)| <= grad_tol lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if grad_norm_at(mid) <= grad_tol:
            hi = mid
        else:
            lo = mid
    n = hi
    params = params0.copy()
    if n:
        # 1 - (1 - x)^n, where (1 - x)^n = (1 - d)^n, negated for x > 1 and odd n
        power_m1 = np.expm1(n * log_decay)
        gain = np.where((x > 1.0) & (n % 2 == 1), 2.0 + power_m1, -power_m1)
        phi = kappa * np.divide(gain, x, out=np.full_like(x, float(n)), where=x > 0)
        params -= vecs @ (phi * coef)
    grad = offset + hessian @ params
    return FitResult(params, n < max_iters, math.sqrt(grad @ grad), n)
