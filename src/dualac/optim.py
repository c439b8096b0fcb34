"""Update machinery: stepsize schedule, inner value fit, Fisher/CG, the
natural-gradient form of the policy's KL prox step, and the exact prox solve
that it is checked against.
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
class CgConfig:
    max_iters: int = 20
    damping: float = 1e-4
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.damping < 0:
            raise ValueError("damping must be nonnegative")


class FisherOperator:
    """Matrix-free v -> sum_i w_i g_i (g_i . v) + damping v over score rows g_i."""

    def __init__(self, scores: np.ndarray, damping: float, weights: np.ndarray | None = None):
        self.scores = np.asarray(scores, dtype=float)
        self.damping = float(damping)
        m = len(self.scores)
        self.weights = np.full(m, 1.0 / m) if weights is None else np.asarray(weights, dtype=float)

    @property
    def dim(self) -> int:
        return self.scores.shape[1]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return self.scores.T @ (self.weights * (self.scores @ v)) + self.damping * v


def fisher_estimate(scores, damping: float = 1e-4, weights=None) -> FisherOperator:
    """Empirical score outer-product Fisher over a batch of score rows, one
    per (state, action) pair (policy.score_batch).

    weights defaults to 1/m; the rows of every pair weighted by its exact
    probability yield the analytic Fisher.
    """
    if len(scores) == 0:
        raise ValueError("empty Fisher batch")
    return FisherOperator(scores, damping=damping, weights=weights)


def cg_solve(operator, rhs: np.ndarray, cfg: CgConfig = CgConfig()) -> np.ndarray:
    """Conjugate gradients from x = 0 on a symmetric PSD operator."""
    b = np.asarray(rhs, dtype=float)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for _ in range(cfg.max_iters):
        if np.sqrt(rs) <= cfg.residual_tol:
            break
        ap = operator(p)
        denom = float(p @ ap)
        if not np.isfinite(denom) or denom <= 0.0:
            if denom == 0.0 and rs <= 1e-300:
                break
            raise FloatingPointError("conjugate gradient breakdown (non-SPD or non-finite operator)")
        step = rs / denom
        x += step * p
        r -= step * ap
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise FloatingPointError("conjugate gradient produced non-finite residual")
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def natural_gradient_step(
    params: np.ndarray,
    g: np.ndarray,
    fisher: FisherOperator,
    zeta: float,
    normalize: bool = False,
    cg: CgConfig = CgConfig(),
) -> np.ndarray:
    """theta + zeta F^{-1} g, optionally rescaled by 1/sqrt(g . F^{-1} g)."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    params = np.asarray(params, dtype=float)
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return params.copy()
    direction = cg_solve(fisher, g, cg)
    if normalize:
        sq = float(g @ direction)
        if sq > 1e-12 and np.isfinite(sq):
            direction = direction / np.sqrt(sq)
        else:
            # includes the tiny-positive case, where dividing by sqrt(sq)
            # would blow pure noise up to a unit-size step
            log.warning("gradient norm g.F^-1.g = %.3g not usable; using unnormalized step", sq)
    return params + zeta * direction


def exact_prox_pi(
    policy,
    g: np.ndarray,
    zeta: float,
    kl_states,
    max_iters: int = 2000,
    gtol: float = 1e-12,
) -> np.ndarray:
    """Solve theta = argmin -theta.g + KL(pi_theta || pi_old)/zeta numerically.

    The KL is the batch mean over kl_states against the policy's current
    parameters.  Returns the new flat parameter vector.  This is the reference
    that the natural-gradient step is checked against; training does not use
    it, because on softmax policies the objective is unbounded below along
    directions that saturate the logits.
    """
    # imported here: scipy.optimize is slow to import, and only this
    # reference solver needs it
    from scipy import optimize

    if zeta <= 0:
        raise ValueError("zeta must be positive")
    theta0 = policy.get_params()
    cand = policy.copy()

    def fg(theta):
        cand.set_params(theta)
        val = -float((theta - theta0) @ g) + cand.kl(policy, kl_states) / zeta
        grad = -g + cand.kl_grad(policy, kl_states) / zeta
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
