import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualac.envs import make_env
from dualac.estimators import grad_pi_estimate, sample_trajectories
from dualac.lagrangian import inner_min_v_exact, path_reg_value_gradient
from dualac.mdp import random_mdp
from dualac.optim import (
    FitDivergedError,
    StepsizeSchedule,
    fisher_estimate,
    fit_value,
    natural_gradient_step,
)
from dualac.policies import DenseScores, TabularSoftmaxPolicy
from conftest import tabular_deltas
from reference_fit import fit_value_loop
from reference_prox import exact_prox_pi
from reference_scores import tabular_score_rows


# ---------------------------------------------------------------------------
# Stepsize schedule


def test_stepsize_default_mode():
    sched = StepsizeSchedule(c=1.0, n0=0.0, beta=1.0)
    assert sched.at(4) == pytest.approx(0.25)


def test_stepsize_default_monotone():
    sched = StepsizeSchedule(c=0.3, n0=2.0, beta=0.5)
    vals = [sched.at(t) for t in range(1, 10_001)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_stepsize_validation():
    with pytest.raises(ValueError):
        StepsizeSchedule(c=1.0, beta=0.3)
    for bad in ({"c": -1.0}, {"c": math.nan}, {"c": math.inf}, {"n0": math.nan}, {"n0": math.inf}, {"n0": -math.inf}):
        with pytest.raises(ValueError, match="need c > 0 and n0 >= 0"):
            StepsizeSchedule(**bad)


# ---------------------------------------------------------------------------
# fit_value: gradient descent on a quadratic in closed form, against the
# step-by-step loop of tests/reference_fit.py


def affine_parts(grad_fn, n):
    """(H, b) of an affine gradient g(w) = b + H w, read off n + 1 calls."""
    b = grad_fn(np.zeros(n))
    return np.column_stack([grad_fn(e) - b for e in np.eye(n)]), b


def test_fit_value_converges_to_exact_inner_min():
    rng = np.random.default_rng(211)
    mdp = random_mdp(3, 2, 0.9, rng)
    alpha = rng.dirichlet(np.ones(3))
    pi = rng.dirichlet(np.ones(2), size=3)
    pi_b = rng.dirichlet(np.ones(2), size=3)
    k, eta_v = 1, 0.8

    def grad_fn(v):
        return path_reg_value_gradient(mdp, v, alpha, pi, pi_b, k=k, eta_v=eta_v)

    hessian, offset = affine_parts(grad_fn, 3)
    kappa = 0.5 / (2 * eta_v * mdp.mu.max())
    res = fit_value(np.zeros(3), hessian, offset, kappa=kappa, max_iters=20_000, grad_tol=1e-10)
    closed = inner_min_v_exact(mdp, alpha, pi, pi_b, k=k, eta_v=eta_v)
    assert res.converged
    assert np.max(np.abs(res.params - closed)) < 1e-4


def test_fit_value_vacuous_tolerance():
    for hessian in (np.zeros((2, 2)), np.eye(2)):
        res = fit_value(np.array([1.0, 2.0]), hessian, np.ones(2), kappa=0.1, max_iters=50, grad_tol=1e9)
        assert res.converged
        assert np.array_equal(res.params, [1.0, 2.0])
        assert res.n_iters == 0


def test_fit_value_matches_least_squares_on_fixed_batch():
    # deterministic full-batch descent on a quadratic == normal-equations solve
    rng = np.random.default_rng(223)
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    hessian, offset = 2.0 * X.T @ X / len(y), -2.0 * X.T @ y / len(y)
    res = fit_value(np.zeros(4), hessian, offset, kappa=0.05, max_iters=50_000, grad_tol=1e-12)
    direct = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.max(np.abs(res.params - direct)) < 1e-4


# The reference loop's per-step contract: the closed form is checked against
# it, so it must stop, diverge and overflow where the loop always did.


def test_fit_value_divergence_carries_last_iterate():
    calls = {"n": 0}

    def grad_fn(p):
        calls["n"] += 1
        return np.array([np.nan]) if calls["n"] > 3 else np.array([1.0])

    with pytest.raises(FitDivergedError, match="inner step 4") as exc:
        fit_value_loop(np.array([0.0]), grad_fn, kappa=0.1, max_iters=100, grad_tol=0.0)
    assert np.all(np.isfinite(exc.value.params))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_value_non_finite_gradient_raises_at_its_step(bad):
    grads = [np.array([1.0, 2.0]), np.array([-1.0, 0.5]), np.array([3.0, bad]), np.array([1.0, 1.0])]

    def grad_fn(p):
        return grads.pop(0)

    with pytest.raises(FitDivergedError, match="inner step 3") as exc:
        fit_value_loop(np.zeros(2), grad_fn, kappa=0.5, max_iters=10, grad_tol=0.0)
    assert np.array_equal(exc.value.params, [0.0, -1.25])  # after steps 1 and 2 only
    # the closed form refuses a non-finite quadratic before any step
    with pytest.raises(FitDivergedError) as exc:
        fit_value(np.zeros(2), np.eye(2), np.array([3.0, bad]), kappa=0.5, max_iters=10, grad_tol=0.0)
    assert np.array_equal(exc.value.params, [0.0, 0.0])


def test_fit_value_overflowing_norm_is_not_divergence():
    # every entry finite, but grad @ grad overflows to inf
    grad = np.array([1e200, -1e200])
    with np.errstate(over="ignore"):
        loop = fit_value_loop(np.zeros(2), lambda p: grad, kappa=0.5, max_iters=3, grad_tol=1.0)
        res = fit_value(np.zeros(2), np.zeros((2, 2)), grad, kappa=0.5, max_iters=3, grad_tol=1.0)
    for fit in (loop, res):
        assert not fit.converged and fit.grad_norm == np.inf and fit.n_iters == 3
        assert np.array_equal(fit.params, -0.5 * grad - 0.5 * grad - 0.5 * grad)


def psd_quadratic(rng, n, rank, top):
    """A symmetric PSD H = A^T A of the given rank with kappa * lambda_max =
    top at kappa = 1, an offset b and a start w_0."""
    a = rng.normal(size=(rank, n))
    hessian = a.T @ a
    if rank:
        hessian *= top / np.linalg.eigvalsh(hessian)[-1]
    return hessian, rng.normal(size=n), rng.normal(size=n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 8),
    rank_share=st.floats(0.0, 1.0),
    top=st.floats(0.01, 1.99999),  # kappa lambda_max, kept off 2 by more than eigh's rounding
    kappa=st.floats(0.01, 1.0),
    max_iters=st.integers(1, 300),
    tol_share=st.floats(0.0, 1.2),
)
@example(seed=1, n=6, rank_share=0.5, top=1.0, kappa=0.3, max_iters=200, tol_share=0.3)  # rank-deficient H
@example(seed=2, n=5, rank_share=0.0, top=1.0, kappa=0.2, max_iters=80, tol_share=0.0)  # H = 0: eta_v = 0
@example(seed=3, n=4, rank_share=1.0, top=1.0, kappa=0.5, max_iters=50, tol_share=1.1)  # stop at step 0
@example(seed=4, n=4, rank_share=1.0, top=1.99999, kappa=1.0, max_iters=120, tol_share=0.5)  # kappa lambda near 2
@example(seed=5, n=3, rank_share=1.0, top=1.99999, kappa=0.7, max_iters=41, tol_share=0.0)  # odd step count near 2
def test_fit_value_equals_the_reference_loop(seed, n, rank_share, top, kappa, max_iters, tol_share):
    rng = np.random.default_rng(seed)
    hessian, offset, params0 = psd_quadratic(rng, n, round(rank_share * n), top / kappa)
    norms = []

    def grad_fn(w):
        g = offset + hessian @ w
        norms.append(math.sqrt(g @ g))
        return g

    g0 = offset + hessian @ params0
    grad_tol = tol_share * math.sqrt(g0 @ g0)
    loop = fit_value_loop(params0, grad_fn, kappa, max_iters, grad_tol)
    # no step's gradient norm within rounding of the tolerance
    assume(all(abs(norm - grad_tol) > 1e-6 * grad_tol for norm in norms))
    res = fit_value(params0, hessian, offset, kappa, max_iters, grad_tol)
    assert (res.converged, res.n_iters) == (loop.converged, loop.n_iters)
    scale = np.abs(params0).max() + kappa * math.sqrt(g0 @ g0) * max(1, res.n_iters)
    assert np.allclose(res.params, loop.params, rtol=1e-8, atol=1e-8 * scale)
    # the residual at the returned parameters: the loop's once it stopped early,
    # one step past the loop's stale one once the budget ran out
    grad = offset + hessian @ res.params
    assert res.grad_norm == math.sqrt(grad @ grad)
    if loop.converged:
        assert res.grad_norm <= grad_tol
    else:
        assert res.grad_norm <= loop.grad_norm * (1 + 1e-8) + 1e-12 * scale


def test_fit_value_reports_the_residual_at_its_parameters():
    # once the budget runs out, |g| is that of the returned parameters, not of
    # the iterate one step before them
    hessian, offset, kappa = np.diag([1.0, 0.1]), np.array([1.0, 1.0]), 0.5
    loop = fit_value_loop(np.zeros(2), lambda w: offset + hessian @ w, kappa, max_iters=5, grad_tol=0.0)
    res = fit_value(np.zeros(2), hessian, offset, kappa, max_iters=5, grad_tol=0.0)
    decay = (1 - kappa * np.diag(hessian)) ** 5
    assert res.grad_norm == pytest.approx(np.linalg.norm(decay * offset), rel=1e-14)
    assert loop.grad_norm == pytest.approx(np.linalg.norm(decay / (1 - kappa * np.diag(hessian)) * offset))
    assert res.grad_norm < loop.grad_norm


def test_fit_value_diverges_from_the_spectrum():
    # kappa * lambda_max > 2 grows the gradient at every step: refused before
    # the first, with w_0; at exactly 2 the descent oscillates but is finite
    hessian, offset, params0 = np.diag([1.0, 25.0]), np.array([1.0, -1.0]), np.array([0.5, 0.25])
    with pytest.raises(FitDivergedError, match="exceeds 2") as exc:
        fit_value(params0, hessian, offset, kappa=0.1, max_iters=3, grad_tol=0.0)
    assert np.array_equal(exc.value.params, params0)
    res = fit_value(params0, hessian, offset, kappa=0.08, max_iters=3, grad_tol=0.0)
    loop = fit_value_loop(params0, lambda w: offset + hessian @ w, 0.08, max_iters=3, grad_tol=0.0)
    assert np.allclose(res.params, loop.params, rtol=1e-12)


def test_fit_value_budget_costs_no_memory():
    # a pendulum-sized quadratic (101 parameters, rank 24, kappa lambda_max
    # 0.45) whose gradient lies in H's range: a budget of 10**9 steps stops
    # where a budget of 200 does, and holds no array of the budget's length
    rng = np.random.default_rng(271)
    hessian, _, params0 = psd_quadratic(rng, 101, 24, 0.45 / 0.2)
    offset = -hessian @ rng.normal(size=101)
    for grad_tol in (1.0, 0.1, 1e-2):
        short = fit_value(params0, hessian, offset, kappa=0.2, max_iters=200, grad_tol=grad_tol)
        tracemalloc.start()
        try:
            long = fit_value(params0, hessian, offset, kappa=0.2, max_iters=10**9, grad_tol=grad_tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert short.converged and 0 < short.n_iters < 200
        assert (long.converged, long.n_iters, long.grad_norm) == (True, short.n_iters, short.grad_norm)
        assert np.array_equal(long.params, short.params)
        assert peak < 2**20
    # no stop: every step of the budget taken, at the same cost
    tracemalloc.start()
    try:
        res = fit_value(params0, hessian, offset + rng.normal(size=101), kappa=0.2, max_iters=10**9, grad_tol=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.converged and res.n_iters == 10**9 and np.all(np.isfinite(res.params))
    assert peak < 2**20


# ---------------------------------------------------------------------------
# Fisher matrix


def test_fisher_rank_one():
    g = np.array([1.0, -2.0, 0.5])
    fisher = fisher_estimate(DenseScores(g[None, :]), damping=0.01)
    v = np.array([0.3, 0.1, -0.7])
    assert fisher.blocks.shape == (1, 3, 3)
    assert np.allclose(fisher.blocks[0] @ v, g * (g @ v) + 0.01 * v)
    assert np.array_equal(fisher.scores.rows, g[None, :])


def test_fisher_null_space_gives_damping():
    scores = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    fisher = fisher_estimate(DenseScores(scores), damping=0.5)
    v = np.array([0.0, 0.0, 2.0])
    assert np.allclose(fisher.blocks[0] @ v, 0.5 * v)


def test_fisher_matches_analytic_categorical():
    rng = np.random.default_rng(227)
    policy = TabularSoftmaxPolicy(2, 3, logits=rng.normal(size=(2, 3)))
    p = policy.prob_matrix()
    states, actions, weights = [], [], []
    for s in range(2):
        for a in range(3):
            states.append(s)
            actions.append(a)
            weights.append(p[s, a] / 2.0)  # uniform over states, exact over actions
    fisher = fisher_estimate(policy.score_batch(states, actions), damping=0.0, weights=np.array(weights))
    # analytic: block diag of (diag(p_s) - p_s p_s^T) / n_states
    F = np.zeros((6, 6))
    for s in range(2):
        block = (np.diag(p[s]) - np.outer(p[s], p[s])) / 2.0
        F[s * 3 : (s + 1) * 3, s * 3 : (s + 1) * 3] = block
    assert np.max(np.abs(block_diag(*fisher.blocks) - F)) < 1e-8


# ---------------------------------------------------------------------------
# Natural gradient step


def test_natural_gradient_identity_fisher_is_plain_ascent():
    fisher = fisher_estimate(DenseScores(np.zeros((1, 3))), damping=1.0)  # F = I
    params = np.array([1.0, 2.0, 3.0])
    g = np.array([0.1, -0.2, 0.3])
    out = natural_gradient_step(params, g, fisher, zeta=0.5, normalize=False)
    assert np.allclose(out, params + 0.5 * g)


def test_natural_gradient_zero_gradient_no_move():
    fisher = fisher_estimate(DenseScores(np.ones((1, 2))), damping=0.1)
    params = np.array([0.4, -0.4])
    out = natural_gradient_step(params, np.zeros(2), fisher, zeta=1.0, normalize=True)
    assert np.array_equal(out, params)


def test_natural_gradient_scale_invariance_under_normalize():
    rng = np.random.default_rng(241)
    fisher = fisher_estimate(DenseScores(rng.normal(size=(20, 5))), damping=1e-3)
    params = rng.normal(size=5)
    g = rng.normal(size=5)
    a = natural_gradient_step(params, g, fisher, zeta=0.2, normalize=True)
    b = natural_gradient_step(params, 10.0 * g, fisher, zeta=0.2, normalize=True)
    assert np.allclose(a, b, atol=1e-10)


def test_natural_gradient_solves_the_damped_fisher_exactly():
    # the step's direction against an independent least-squares form of the
    # same system: F = A^T A with A = [sqrt(w) S; sqrt(damping) I]
    rng = np.random.default_rng(243)
    scores, weights, damping = rng.normal(size=(200, 12)), rng.random(200), 1e-4
    scores[:, 0] = scores[:, 1]  # a rank-deficient score matrix: only the damping keeps F regular
    g = rng.normal(size=12)
    fisher = fisher_estimate(DenseScores(scores), damping=damping, weights=weights)
    direction = natural_gradient_step(np.zeros(12), g, fisher, zeta=1.0)
    q, r = np.linalg.qr(np.vstack([np.sqrt(weights)[:, None] * scores, np.sqrt(damping) * np.eye(12)]))
    exact = np.linalg.solve(r, np.linalg.solve(r.T, g))
    assert np.linalg.norm(direction - exact) <= 1e-8 * np.linalg.norm(exact)


@st.composite
def tabular_score_cases(draw):
    """A random softmax policy (logit scales up to a saturated softmax), rows
    in a random subset of its states (so that some states have no row), and
    random nonnegative row weights (some 0) and signed gradient coefficients."""
    n_states, n_actions = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0, 20.0]))
    policy = TabularSoftmaxPolicy(n_states, n_actions, logits=scale * rng.normal(size=(n_states, n_actions)))
    visited = rng.choice(n_states, size=draw(st.integers(1, n_states)), replace=False)
    n_rows = draw(st.integers(1, 40))
    states, actions = rng.choice(visited, size=n_rows), rng.integers(0, n_actions, size=n_rows)
    weights = rng.random(n_rows) * (rng.random(n_rows) < 0.8)
    return policy, states, actions, weights, rng.normal(size=n_rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tabular_score_cases(), st.sampled_from([1e-4, 1e-2]))
def test_tabular_block_forms_match_dense_score_rows(case, damping):
    # the tabular gradient and Fisher, built per state from bincounts,
    # against the same forms of the dense (N, S A) reference score rows, and the
    # stacked per-state solve against the QR form of the dense system:
    # F = A^T A with A = [sqrt(w) S; sqrt(damping) I], so F^-1 g = R^-1 R^-T g
    policy, states, actions, weights, coefs = case
    n_states, n_actions = policy.logits.shape
    rows = tabular_score_rows(policy, states, actions)
    scores = policy.score_batch(states, actions)
    assert len(scores) == len(rows)
    g = scores.weighted_sum(coefs) / len(rows)
    # the forms subtract terms of the size of the summed weights
    assert np.max(np.abs(g - coefs @ rows / len(rows))) <= 1e-14 * np.abs(coefs).sum()
    fisher = fisher_estimate(scores, damping=damping, weights=weights)
    dense = fisher_estimate(DenseScores(rows), damping=damping, weights=weights)
    assert fisher.blocks.shape == (n_states, n_actions, n_actions) and fisher.scores is scores
    assert np.max(np.abs(block_diag(*fisher.blocks) - dense.blocks[0])) <= 1e-14 * (1.0 + weights.sum())
    assert np.array_equal(fisher.blocks, fisher.blocks.transpose(0, 2, 1))
    for s in set(range(n_states)) - set(states.tolist()):
        assert np.array_equal(fisher.blocks[s], damping * np.eye(n_actions))
    _, r = np.linalg.qr(np.vstack([np.sqrt(weights)[:, None] * rows, np.sqrt(damping) * np.eye(policy.n_params)]))
    exact = np.linalg.solve(r, np.linalg.solve(r.T, g))
    sq = g @ exact
    assume(not 0.5e-12 < sq < 2e-12)  # where the normalized step's fallback threshold sits
    for normalize, expected in ((False, exact), (True, exact / np.sqrt(sq) if sq > 1e-12 else exact)):
        step = natural_gradient_step(np.zeros(policy.n_params), g, fisher, zeta=1.0, normalize=normalize)
        assert np.linalg.norm(step - expected) <= 1e-8 * np.linalg.norm(expected), normalize


def test_natural_gradient_singular_fisher_raises():
    fisher = fisher_estimate(DenseScores(np.array([[1.0, 1.0]])), damping=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        natural_gradient_step(np.zeros(2), np.array([1.0, 0.0]), fisher, zeta=1.0)


def exhaustive_fisher(policy, kl_states, damping):
    states, actions, weights = [], [], []
    p = policy.prob_matrix()
    for s in kl_states:
        for a in range(policy.logits.shape[1]):
            states.append(s)
            actions.append(a)
            weights.append(p[s, a] / len(kl_states))
    return fisher_estimate(policy.score_batch(states, actions), damping=damping, weights=np.array(weights))


def test_logit_shift_invariance():
    env = make_env("chain2")
    rng = np.random.default_rng(251)
    logits = rng.normal(size=(2, 2))
    batch = None
    outs = []
    for shift in (0.0, 3.7):
        policy = TabularSoftmaxPolicy(2, 2, logits=logits + shift * np.ones((2, 2)) * np.array([[1.0], [2.0]]))
        if batch is None:
            batch = sample_trajectories(env, policy, m=12, horizon=6, rng_seed=13, window=2)
        deltas = tabular_deltas(batch, [1.0, 2.0], env.mdp.gamma, k=1)
        g, _ = grad_pi_estimate(batch.window(), deltas, policy)
        fisher = exhaustive_fisher(policy, [0, 1], damping=1e-8)
        new_params = natural_gradient_step(policy.get_params(), g, fisher, zeta=0.3, normalize=False)
        cand = policy.copy()
        cand.set_params(new_params)
        outs.append(cand.prob_matrix())
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-8


# ---------------------------------------------------------------------------
# Exact prox vs natural gradient


def make_prox_setup(seed=257):
    rng = np.random.default_rng(seed)
    policy = TabularSoftmaxPolicy(2, 3, logits=rng.normal(size=(2, 3)))
    g = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
    # project per-state rows to the score span (softmax scores sum to zero per row)
    g = g - np.repeat(g.reshape(2, 3).mean(axis=1), 3)
    return policy, g


def test_exact_prox_zero_gradient_returns_old():
    policy, _ = make_prox_setup()
    out = exact_prox_pi(policy, np.zeros(6), zeta=0.5, kl_states=[0, 1])
    assert np.max(np.abs(out - policy.get_params())) < 1e-8


def test_exact_prox_small_zeta_stays_near_old():
    policy, g = make_prox_setup()
    out = exact_prox_pi(policy, g, zeta=1e-6, kl_states=[0, 1])
    assert np.max(np.abs(out - policy.get_params())) < 1e-4


def test_kl_growth_quadratic_in_zeta():
    # KL(new || old) after a natural-gradient step scales ~ zeta^2
    policy, g = make_prox_setup(seed=263)
    kl_states = [0, 1]
    fisher = exhaustive_fisher(policy, kl_states, damping=1e-10)
    zetas = np.array([3e-2, 1e-2, 3e-3, 1e-3])
    kls = []
    for zeta in zetas:
        new = policy.copy()
        new.set_params(natural_gradient_step(policy.get_params(), g, fisher, zeta=zeta, normalize=False))
        kls.append(new.kl(policy, kl_states))
    slope = np.polyfit(np.log(zetas), np.log(kls), 1)[0]
    assert 1.9 < slope < 2.1
