import numpy as np
import pytest

from dualac.envs import make_env
from dualac.estimators import grad_pi_estimate, sample_trajectories, traj_deltas
from dualac.lagrangian import inner_min_v_exact, path_reg_value_gradient
from dualac.mdp import random_mdp
from dualac.optim import (
    FitDivergedError,
    StepsizeSchedule,
    fisher_estimate,
    fit_value,
    natural_gradient_step,
)
from dualac.policies import TabularSoftmaxPolicy
from conftest import tabular_value
from reference_prox import exact_prox_pi


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
    with pytest.raises(ValueError):
        StepsizeSchedule(c=-1.0)


# ---------------------------------------------------------------------------
# fit_value


def test_fit_value_converges_to_exact_inner_min():
    rng = np.random.default_rng(211)
    mdp = random_mdp(3, 2, 0.9, rng)
    alpha = rng.dirichlet(np.ones(3))
    pi = rng.dirichlet(np.ones(2), size=3)
    pi_b = rng.dirichlet(np.ones(2), size=3)
    k, eta_v = 1, 0.8

    def grad_fn(v):
        return path_reg_value_gradient(mdp, v, alpha, pi, pi_b, k=k, eta_v=eta_v)

    res = fit_value(np.zeros(3), grad_fn, kappa=0.5 / (2 * eta_v * mdp.mu.max()), max_iters=20_000, grad_tol=1e-10)
    closed = inner_min_v_exact(mdp, alpha, pi, pi_b, k=k, eta_v=eta_v)
    assert res.converged
    assert np.max(np.abs(res.params - closed)) < 1e-4


def test_fit_value_vacuous_tolerance():
    res = fit_value(np.array([1.0, 2.0]), lambda p: np.ones(2), kappa=0.1, max_iters=50, grad_tol=1e9)
    assert res.converged
    assert np.array_equal(res.params, [1.0, 2.0])
    assert res.n_iters == 0


def test_fit_value_matches_least_squares_on_fixed_batch():
    # deterministic full-batch descent on a quadratic == normal-equations solve
    rng = np.random.default_rng(223)
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40)

    def grad_fn(w):
        return 2.0 * X.T @ (X @ w - y) / len(y)

    res = fit_value(np.zeros(4), grad_fn, kappa=0.05, max_iters=50_000, grad_tol=1e-12)
    direct = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.max(np.abs(res.params - direct)) < 1e-4


def test_fit_value_divergence_carries_last_iterate():
    calls = {"n": 0}

    def grad_fn(p):
        calls["n"] += 1
        return np.array([np.nan]) if calls["n"] > 3 else np.array([1.0])

    with pytest.raises(FitDivergedError) as exc:
        fit_value(np.array([0.0]), grad_fn, kappa=0.1, max_iters=100, grad_tol=0.0)
    assert np.all(np.isfinite(exc.value.params))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_value_non_finite_gradient_raises_at_its_step(bad):
    grads = [np.array([1.0, 2.0]), np.array([-1.0, 0.5]), np.array([3.0, bad]), np.array([1.0, 1.0])]

    def grad_fn(p):
        return grads.pop(0)

    with pytest.raises(FitDivergedError) as exc:
        fit_value(np.zeros(2), grad_fn, kappa=0.5, max_iters=10, grad_tol=0.0)
    assert exc.value.iteration == 3
    assert np.array_equal(exc.value.params, [0.0, -1.25])  # after steps 1 and 2 only


def test_fit_value_overflowing_norm_is_not_divergence():
    # every entry finite, but grad @ grad overflows to inf
    grad = np.array([1e200, -1e200])
    with np.errstate(over="ignore"):
        res = fit_value(np.zeros(2), lambda p: grad, kappa=0.5, max_iters=3, grad_tol=1.0)
    assert not res.converged and res.grad_norm == np.inf and res.n_iters == 3
    assert np.array_equal(res.params, -0.5 * grad - 0.5 * grad - 0.5 * grad)


# ---------------------------------------------------------------------------
# Fisher matrix


def test_fisher_rank_one():
    g = np.array([1.0, -2.0, 0.5])
    fisher = fisher_estimate(g[None, :], damping=0.01)
    v = np.array([0.3, 0.1, -0.7])
    assert np.allclose(fisher.matrix @ v, g * (g @ v) + 0.01 * v)
    assert np.array_equal(fisher.scores, g[None, :])


def test_fisher_null_space_gives_damping():
    scores = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    fisher = fisher_estimate(scores, damping=0.5)
    v = np.array([0.0, 0.0, 2.0])
    assert np.allclose(fisher.matrix @ v, 0.5 * v)


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
    assert np.max(np.abs(fisher.matrix - F)) < 1e-8


def test_fisher_symmetry_and_psd():
    rng = np.random.default_rng(229)
    scores = rng.normal(size=(30, 8))
    F = fisher_estimate(scores, damping=1e-4).matrix
    for _ in range(10):
        u, v = rng.normal(size=8), rng.normal(size=8)
        assert abs(u @ F @ v - v @ F @ u) < 1e-10
        assert v @ F @ v >= 1e-4 * v @ v - 1e-12


# ---------------------------------------------------------------------------
# Natural gradient step


def test_natural_gradient_identity_fisher_is_plain_ascent():
    fisher = fisher_estimate(np.zeros((1, 3)), damping=1.0)  # F = I
    params = np.array([1.0, 2.0, 3.0])
    g = np.array([0.1, -0.2, 0.3])
    out = natural_gradient_step(params, g, fisher, zeta=0.5, normalize=False)
    assert np.allclose(out, params + 0.5 * g)


def test_natural_gradient_zero_gradient_no_move():
    fisher = fisher_estimate(np.ones((1, 2)), damping=0.1)
    params = np.array([0.4, -0.4])
    out = natural_gradient_step(params, np.zeros(2), fisher, zeta=1.0, normalize=True)
    assert np.array_equal(out, params)


def test_natural_gradient_scale_invariance_under_normalize():
    rng = np.random.default_rng(241)
    fisher = fisher_estimate(rng.normal(size=(20, 5)), damping=1e-3)
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
    fisher = fisher_estimate(scores, damping=damping, weights=weights)
    direction = natural_gradient_step(np.zeros(12), g, fisher, zeta=1.0)
    q, r = np.linalg.qr(np.vstack([np.sqrt(weights)[:, None] * scores, np.sqrt(damping) * np.eye(12)]))
    exact = np.linalg.solve(r, np.linalg.solve(r.T, g))
    assert np.linalg.norm(direction - exact) <= 1e-8 * np.linalg.norm(exact)


def test_natural_gradient_singular_fisher_raises():
    fisher = fisher_estimate(np.array([[1.0, 1.0]]), damping=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        natural_gradient_step(np.zeros(2), np.array([1.0, 0.0]), fisher, zeta=1.0)


def exhaustive_fisher(policy, kl_states, damping):
    states, actions, weights = [], [], []
    p = policy.prob_matrix()
    for s in kl_states:
        for a in range(policy.n_actions):
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
            batch = sample_trajectories(env, policy, m=12, horizon=6, rng_seed=13)
        deltas = traj_deltas(batch, tabular_value([1.0, 2.0]), env.mdp.gamma, k=1)
        g, _ = grad_pi_estimate(batch.window(1), deltas, policy)
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


def test_exact_prox_matches_natural_gradient_to_second_order():
    policy, g = make_prox_setup()
    kl_states = [0, 1]
    fisher = exhaustive_fisher(policy, kl_states, damping=1e-12)
    zetas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    gaps = []
    for zeta in zetas:
        prox = exact_prox_pi(policy, g, zeta=zeta, kl_states=kl_states, gtol=1e-14)
        ngrad = natural_gradient_step(policy.get_params(), g, fisher, zeta=zeta, normalize=False)
        gaps.append(np.linalg.norm(prox - ngrad))
    slope = np.polyfit(np.log(zetas), np.log(gaps), 1)[0]
    assert slope >= 1.8, (slope, gaps)


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
