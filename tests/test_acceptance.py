"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-5 are exact/numerical checks against independent oracles;
criterion 6 runs real seeded training on gridworld.  Criteria 7 (the
pendulum headline) and 8 (the ablation comparison) are not written yet.
Run with -s to see the per-criterion lines as they complete.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from dualac.driver import (
    DualAcConfig,
    InnerVConfig,
    ablation_suite,
    dual_ac_iteration,
    final_performance,
    init_state,
    tabular_policy_return,
)
from dualac.envs import make_env
from dualac.estimators import (
    SoftmaxStartWeighting,
    alpha_closed_form,
    alpha_objective,
    exact_grad_alpha,
    exact_grad_pi,
    exact_grad_v,
)
from dualac.lagrangian import (
    inner_min_v_exact,
    k_step_weighting,
    one_step_lagrangian,
    path_reg_lagrangian,
)
from dualac.mdp import (
    TabularMdp,
    bellman_optimality_operator,
    discounted_state_occupancy,
    duality_gap,
    greedy_policy,
    k_step_bellman,
    lambda_bellman,
    occupancy_from_policy,
    policy_from_occupancy,
    random_mdp,
    value_iteration,
)
from dualac.optim import (
    StepsizeSchedule,
    fisher_estimate,
    natural_gradient_step,
)
from dualac.policies import TabularSoftmaxPolicy
from reference_prox import exact_prox_pi


class Criterion:
    """Prints one pass/fail line per criterion, whatever the outcome."""

    def __init__(self, number, label, budget_s):
        self.number, self.label, self.budget_s = number, label, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {status} {self.label} ({elapsed:.1f}s / budget {self.budget_s}s)")
        return False


def fd_grad(f, x0, h=1e-5):
    g = np.zeros_like(x0)
    for i in range(len(x0)):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------


def test_criterion_1_duality_suite():
    with Criterion(1, "LP duality on 50 random MDPs", 10) as crit:
        rng = np.random.default_rng(1001)
        for i in range(50):
            mdp = random_mdp(int(rng.integers(2, 21)), int(rng.integers(2, 5)), 0.9 if i % 2 else 0.99, rng)
            v_star = value_iteration(mdp, tol=1e-9)
            pi_star = greedy_policy(mdp, v_star)
            rho = occupancy_from_policy(mdp, pi_star)
            assert abs(duality_gap(mdp, v_star, rho)) < 1e-6
            assert abs(rho.sum() - 1.0) < 1e-8
            recovered = policy_from_occupancy(rho)
            alpha = discounted_state_occupancy(mdp, pi_star)
            for s in range(mdp.n_states):
                if alpha[s] > 1e-12:
                    assert np.allclose(recovered[s], pi_star[s], atol=1e-9)
        assert time.perf_counter() - crit.t0 < 10


def test_criterion_2_operator_suite():
    with Criterion(2, "Bellman operator properties", 30) as crit:
        rng = np.random.default_rng(1002)
        mdp = random_mdp(6, 3, 0.9, rng)
        tol = 1e-9
        v_star = value_iteration(mdp, tol=tol)
        # fixed points
        for k in (0, 1, 5):
            assert np.max(np.abs(k_step_bellman(mdp, v_star, k) - v_star)) <= 10 * tol
        for lam in (0.3, 0.9):
            assert np.max(np.abs(lambda_bellman(mdp, v_star, lam, 250) - v_star)) <= 10 * tol
        # monotonicity
        for _ in range(10):
            v = rng.normal(size=6) * 3
            u = np.maximum(rng.normal(size=6) * 3, v)
            for k in (0, 1, 3):
                assert np.all(k_step_bellman(mdp, u, k) >= k_step_bellman(mdp, v, k) - 1e-12)
            for lam in (0.3, 0.8):
                assert np.all(lambda_bellman(mdp, u, lam, 30) >= lambda_bellman(mdp, v, lam, 30) - 1e-12)
        # contraction
        for _ in range(20):
            u, v = rng.normal(size=6) * 5, rng.normal(size=6) * 5
            lhs = np.max(np.abs(bellman_optimality_operator(mdp, u) - bellman_optimality_operator(mdp, v)))
            assert lhs <= mdp.gamma * np.max(np.abs(u - v)) + 1e-12
        # composition equals closed-loop plan enumeration
        for n_s, n_a, k in [(3, 2, 3), (2, 3, 3), (4, 2, 2), (4, 3, 1)]:
            small = random_mdp(n_s, n_a, 0.85, rng)
            v = rng.normal(size=n_s)
            best = np.full(n_s, -np.inf)
            for assignment in itertools.product(range(n_a), repeat=n_s * (k + 1)):
                plan = np.array(assignment).reshape(k + 1, n_s)
                w = v.copy()
                for i in range(k, -1, -1):
                    acts = plan[i]
                    w = small.reward[np.arange(n_s), acts] + small.gamma * small.transition[np.arange(n_s), acts] @ w
                best = np.maximum(best, w)
            assert np.allclose(k_step_bellman(small, v, k), best, atol=1e-10)
        assert time.perf_counter() - crit.t0 < 30


def test_criterion_3_saddle_regularization_suite():
    with Criterion(3, "saddle point and path regularization", 30) as crit:
        rng = np.random.default_rng(1003)
        mdp = random_mdp(5, 3, 0.9, rng)
        v_star = value_iteration(mdp, tol=1e-13)
        pi_star = greedy_policy(mdp, v_star)
        ceiling = (1 - mdp.gamma) * mdp.mu @ v_star
        for _ in range(20):
            alpha = rng.dirichlet(np.ones(5))
            pi = rng.dirichlet(np.ones(3), size=5)
            assert one_step_lagrangian(mdp, v_star, alpha, pi) <= ceiling + 1e-10
        # regularizer centered at pi* leaves the minimizer at V*
        for k in (0, 2):
            alpha_star = k_step_weighting(mdp, pi_star, k)
            for eta_v in (0.01, 0.1, 1.0):
                v = inner_min_v_exact(mdp, alpha_star, pi_star, pi_star, k=k, eta_v=eta_v)
                assert np.max(np.abs(v - v_star)) < 1e-6
        # positive definite Hessian in tabular v
        alpha = rng.dirichlet(np.ones(5))
        pi = rng.dirichlet(np.ones(3), size=5)
        pi_b = rng.dirichlet(np.ones(3), size=5)
        v0 = rng.normal(size=5)
        h = 1e-4

        def f(v):
            return path_reg_lagrangian(mdp, v, alpha, pi, pi_b, k=1, eta_v=0.5)

        H = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                ei, ej = np.zeros(5), np.zeros(5)
                ei[i], ej[j] = h, h
                H[i, j] = (f(v0 + ei + ej) - f(v0 + ei) - f(v0 + ej) + f(v0)) / h**2
        assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() > 0
        assert time.perf_counter() - crit.t0 < 30


def test_criterion_4_gradient_estimator_suite():
    with Criterion(4, "estimator forms match finite differences; closed-form reweighting dominates", 60) as crit:
        rng = np.random.default_rng(1004)
        P = rng.dirichlet(np.ones(2), size=(2, 2))
        R = rng.uniform(0, 1, size=(2, 2))
        mdp = TabularMdp(P, R, 0.9, np.array([0.4, 0.6]))
        policy = TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
        pi_b = rng.dirichlet(np.ones(2), size=2)
        start = SoftmaxStartWeighting(2, logits=np.array([0.3, -0.5]))
        k, eta_v = 1, 0.5

        def dual_in_alpha(theta):
            model = SoftmaxStartWeighting(2, logits=theta)
            a = model.distribution()
            v = inner_min_v_exact(mdp, a, policy.prob_matrix(), pi_b, k=k, eta_v=eta_v)
            return path_reg_lagrangian(mdp, v, a, policy.prob_matrix(), pi_b, k=k, eta_v=eta_v)

        alpha0 = start.distribution()
        v_min = inner_min_v_exact(mdp, alpha0, policy.prob_matrix(), pi_b, k=k, eta_v=eta_v)
        got = exact_grad_alpha(mdp, v_min, start, policy.prob_matrix(), k=k)
        want = fd_grad(dual_in_alpha, start.get_params())
        assert np.max(np.abs(got - want)) <= 1e-4 * max(1.0, np.max(np.abs(want)))

        def dual_in_pi(theta):
            cand = policy.copy()
            cand.set_params(theta)
            v = inner_min_v_exact(mdp, alpha0, cand.prob_matrix(), pi_b, k=k, eta_v=eta_v)
            return path_reg_lagrangian(mdp, v, alpha0, cand.prob_matrix(), pi_b, k=k, eta_v=eta_v)

        got = exact_grad_pi(mdp, v_min, alpha0, policy, k=k)
        want = fd_grad(dual_in_pi, policy.get_params())
        assert np.max(np.abs(got - want)) <= 1e-4 * max(1.0, np.max(np.abs(want)))

        v0 = rng.normal(size=2)
        for eta in (0.0, 0.7):

            def obj(v):
                return path_reg_lagrangian(mdp, v, alpha0, policy.prob_matrix(), pi_b, k=2, eta_v=eta)

            got = exact_grad_v(mdp, v0, alpha0, policy.prob_matrix(), pi_b, k=2, eta_v=eta)
            want = fd_grad(obj, v0)
            assert np.max(np.abs(got - want)) <= 1e-4 * max(1.0, np.max(np.abs(want)))

        # closed-form reweighting dominates the grid under the documented convention
        mu = rng.dirichlet(np.ones(2))
        deltas = np.array([2.3, -1.1])
        star = alpha_closed_form(deltas, 1.0)
        best = alpha_objective(star, deltas, mu, eta_mu=0.1, eta_alpha=1.0)
        grid = np.arange(0.0, 5.0 + 1e-9, 0.1)
        for cand in itertools.product(grid, grid):
            assert best >= alpha_objective(np.array(cand), deltas, mu, 0.1, 1.0) - 1e-12
        assert time.perf_counter() - crit.t0 < 60


def gridworld_config(**overrides):
    base = dict(
        k=10,
        eta_v=1.0,
        eta_alpha=1.0,
        eta_mu=0.5,
        schedule=StepsizeSchedule(c=0.5, n0=1.0, beta=0.5),
        batch_m=24,
        iterations=300,
        inner_v=InnerVConfig(stepsize=0.2, max_iters=80, grad_tol=1e-4, biased_iters=5),
    )
    base.update(overrides)
    return DualAcConfig(**base)


def test_criterion_6_end_to_end_gridworld():
    with Criterion(6, "full training reaches >= 95% of the oracle return on every seed", 300) as crit:
        oracle_env = make_env("gridworld")
        mdp = oracle_env.as_tabular()
        oracle = mdp.mu @ value_iteration(mdp, tol=1e-12)
        for seed in range(5):
            env = make_env("gridworld")
            state = init_state(gridworld_config(seed=seed, batch_m=24), env)
            reached = None
            for t in range(1, 301):
                state, _ = dual_ac_iteration(state)
                if reached is None and t % 10 == 0:
                    if tabular_policy_return(env, state.policy) >= 0.95 * oracle:
                        reached = t
            if reached is None:
                reached_final = tabular_policy_return(env, state.policy)
                assert reached_final >= 0.95 * oracle, (seed, reached_final / oracle)
        assert time.perf_counter() - crit.t0 < 300


def test_criterion_5_optimizer_suite():
    with Criterion(5, "Fisher/solve/prox agreement and invariances", 60) as crit:
        rng = np.random.default_rng(1005)
        # Fisher symmetry and PSD
        scores = rng.normal(size=(30, 8))
        F = fisher_estimate(scores, damping=1e-4).matrix
        for _ in range(10):
            u, v = rng.normal(size=8), rng.normal(size=8)
            assert abs(u @ F @ v - v @ F @ u) < 1e-10
            assert v @ F @ v >= 1e-4 * (v @ v) - 1e-12
        # the step's solve vs the independent QR form of the damped system:
        # F = A^T A with A = [sqrt(w) S; sqrt(damping) I], so F^-1 g = R^-1 R^-T g
        for n in (3, 8, 14, 20):
            scores, weights, g = rng.normal(size=(5 * n, n)), rng.random(5 * n), rng.normal(size=n)
            fisher = fisher_estimate(scores, damping=1e-4, weights=weights)
            x = natural_gradient_step(np.zeros(n), g, fisher, zeta=1.0)
            _, r = np.linalg.qr(np.vstack([np.sqrt(weights)[:, None] * scores, np.sqrt(1e-4) * np.eye(n)]))
            assert np.max(np.abs(x - np.linalg.solve(r, np.linalg.solve(r.T, g)))) < 1e-8
        # prox vs natural gradient: second-order agreement (balanced logits and
        # unit gradient keep every zeta in the quadratic regime)
        policy = TabularSoftmaxPolicy(2, 3, logits=0.5 * rng.normal(size=(2, 3)))
        g = rng.normal(size=6)
        g = g - np.repeat(g.reshape(2, 3).mean(axis=1), 3)
        g = g / np.linalg.norm(g)
        kl_states = [0, 1]
        p = policy.prob_matrix()
        states, actions, weights = [], [], []
        for s in kl_states:
            for a in range(3):
                states.append(s)
                actions.append(a)
                weights.append(p[s, a] / len(kl_states))
        fisher = fisher_estimate(policy.score_batch(states, actions), damping=1e-12, weights=np.array(weights))
        zetas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        gaps = []
        for zeta in zetas:
            prox = exact_prox_pi(policy, g, zeta=zeta, kl_states=kl_states, gtol=1e-14)
            ngrad = natural_gradient_step(policy.get_params(), g, fisher, zeta, normalize=False)
            gaps.append(np.linalg.norm(prox - ngrad))
        slope = np.polyfit(np.log(zetas), np.log(gaps), 1)[0]
        assert slope >= 1.8
        # logit-shift invariance of the induced update
        outs = []
        logits = rng.normal(size=(2, 3))
        for shift in (0.0, 2.5):
            pol = TabularSoftmaxPolicy(2, 3, logits=logits + shift)
            fisher2 = fisher_estimate(
                pol.score_batch(states, actions),
                damping=1e-8,
                weights=np.array([pol.prob_matrix()[s, a] / 2 for s, a in zip(states, actions)]),
            )
            new = pol.copy()
            new.set_params(natural_gradient_step(pol.get_params(), g, fisher2, 0.3, normalize=False))
            outs.append(new.prob_matrix())
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-8
        assert time.perf_counter() - crit.t0 < 60
