import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualac.estimators import exact_grad_pi, exact_grad_v
from dualac.lagrangian import (
    EnumerationLimitError,
    enumerate_paths,
    expected_delta_dp,
    inner_min_v_exact,
    multi_step_lagrangian,
    path_reg_value_gradient,
    value_linear_coefficient,
)
from dualac.mdp import (
    TabularMdp,
    discounted_state_occupancy,
    greedy_policy,
    policy_value,
    random_mdp,
    value_iteration,
)
from dualac.policies import TabularSoftmaxPolicy
from conftest import fd_grad, make_batch, softmax, tabular_deltas
import reference_paths
from reference_lagrangian import one_step_lagrangian, path_reg_lagrangian
from reference_mdp import value_bound


def optimal_triple(mdp, k=0, tol=1e-12):
    v_star = value_iteration(mdp, tol=tol)
    pi_star = greedy_policy(mdp, v_star)
    alpha_star = discounted_state_occupancy(mdp, pi_star, k)
    return v_star, alpha_star, pi_star


# ---------------------------------------------------------------------------
# The k-step residual delta of one path (estimators.residuals and
# traj_deltas); k + 1 is the number of steps


def test_delta_fixed_point_path():
    path = make_batch([([0, 0], [0], [1.0])])
    assert tabular_deltas(path, [10.0], 0.9, k=0)[0] == pytest.approx(0.0, abs=1e-12)


def test_delta_is_sampled_one_step_residual():
    # k = 0: delta = R + gamma v(s1) - v(s0) with the expectation replaced by the sample
    path = make_batch([([0, 1], [1], [0.5])])
    assert tabular_deltas(path, [2.0, -1.0], 0.9, k=0)[0] == pytest.approx(0.5 + 0.9 * (-1.0) - 2.0)


def test_delta_zero_value_is_discounted_return():
    path = make_batch([([0, 1, 0, 1], [0, 1, 0], [1.0, 2.0, 4.0])])
    assert tabular_deltas(path, np.zeros(2), 0.5, k=2)[0] == pytest.approx(1.0 + 1.0 + 1.0)


# ---------------------------------------------------------------------------
# One-step objective


def test_one_step_at_optimum_single_state(single_state_mdp):
    v_star = np.array([10.0])
    val = one_step_lagrangian(single_state_mdp, v_star, np.array([1.0]), np.array([[1.0]]))
    assert val == pytest.approx(1.0)


def test_one_step_at_optimum_random_mdp():
    rng = np.random.default_rng(41)
    mdp = random_mdp(5, 3, 0.9, rng)
    v_star, alpha_star, pi_star = optimal_triple(mdp)
    want = (1 - mdp.gamma) * mdp.mu @ v_star
    assert one_step_lagrangian(mdp, v_star, alpha_star, pi_star) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# Multi-step objective


def test_multi_step_k0_reduces_to_one_step():
    rng = np.random.default_rng(47)
    mdp = random_mdp(4, 2, 0.9, rng)
    v = rng.normal(size=4)
    alpha = rng.dirichlet(np.ones(4))
    pi = rng.dirichlet(np.ones(2), size=4)
    a = multi_step_lagrangian(mdp, v, alpha, pi, k=0)
    b = one_step_lagrangian(mdp, v, alpha, pi)
    assert a == pytest.approx(b, abs=1e-12)


def test_multi_step_at_optimum_by_enumeration():
    rng = np.random.default_rng(53)
    mdp = random_mdp(3, 2, 0.8, rng)
    for k in (0, 1, 3):
        v_star, alpha_star, pi_star = optimal_triple(mdp, k=k)
        want = (1 - mdp.gamma ** (k + 1)) * mdp.mu @ v_star
        got = multi_step_lagrangian(mdp, v_star, alpha_star, pi_star, k=k)
        assert got == pytest.approx(want, abs=1e-8)


def test_multi_step_single_state_hand_value(single_state_mdp):
    # One path only; the v terms cancel, leaving sum_{i<=3} 0.9^i = 3.439.
    got = multi_step_lagrangian(single_state_mdp, np.array([4.0]), np.array([1.0]), np.array([[1.0]]), k=3)
    assert got == pytest.approx(3.439, abs=1e-12)


def test_multi_step_matches_dp_recursion():
    rng = np.random.default_rng(59)
    mdp = random_mdp(4, 2, 0.9, rng)
    v = rng.normal(size=4)
    alpha = rng.dirichlet(np.ones(4))
    pi = rng.dirichlet(np.ones(2), size=4)
    k = 2
    enum = multi_step_lagrangian(mdp, v, alpha, pi, k=k)
    dp = (1 - mdp.gamma ** (k + 1)) * mdp.mu @ v + expected_delta_dp(mdp, v, alpha, pi, k)
    assert enum == pytest.approx(dp, abs=1e-10)


def test_multi_step_enumeration_guard():
    rng = np.random.default_rng(61)
    mdp = random_mdp(4, 3, 0.9, rng)
    alpha = np.full(4, 0.25)
    pi = np.full((4, 3), 1.0 / 3.0)
    with pytest.raises(EnumerationLimitError):
        multi_step_lagrangian(mdp, np.zeros(4), alpha, pi, k=4, max_paths=100)


def _rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def _some_zero(rng, shape) -> np.ndarray:
    """A boolean mask over shape that zeroes about 40% of each last-axis row,
    never the whole row."""
    zero = rng.random(shape) < 0.4
    keep = rng.integers(shape[-1], size=shape[:-1])
    np.put_along_axis(zero, keep[..., None], False, axis=-1)
    return zero


@st.composite
def path_cases(draw):
    """A random deterministic or dense MDP with zeros in P, pi and alpha."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    deterministic = draw(st.booleans())
    S, A = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    k = draw(st.integers(0, 4 if deterministic else 2))
    mdp = random_mdp(S, A, 0.9, rng, deterministic=deterministic)
    if not deterministic:
        P = np.where(_some_zero(rng, (S, A, S)), 0.0, mdp.transition)
        mdp = TabularMdp(P / P.sum(axis=2, keepdims=True), mdp.reward, mdp.gamma, mdp.mu)
    policy = TabularSoftmaxPolicy(S, A, logits=np.where(_some_zero(rng, (S, A)), -np.inf, rng.normal(size=(S, A))))
    alpha = softmax(np.where(_some_zero(rng, (1, S))[0], -np.inf, rng.normal(size=S)))
    return mdp, policy, alpha, k, rng


@settings(max_examples=60, deadline=None)
@given(path_cases())
def test_enumerate_paths_matches_depth_first_reference(case):
    mdp, policy, alpha, k, rng = case
    pi = policy.prob_matrix()
    want = {(states, actions): prob for prob, states, actions in reference_paths.iter_paths(mdp, alpha, pi, k)}
    count = len(want)
    # the cap at its boundary: exactly count paths pass, one fewer raises
    paths = enumerate_paths(mdp, alpha, pi, k, max_paths=count)
    with pytest.raises(EnumerationLimitError):
        enumerate_paths(mdp, alpha, pi, k, max_paths=count - 1)
    assert paths.states.shape == (count, k + 2) and paths.actions.shape == (count, k + 1)
    got = dict(zip(zip(map(tuple, paths.states.tolist()), map(tuple, paths.actions.tolist())), paths.prob.tolist()))
    assert got == want  # the same paths, bitwise the same probabilities

    v, pi_b = rng.normal(size=mdp.n_states), rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
    forms = {
        multi_step_lagrangian: (mdp, v, alpha, pi, k),
        exact_grad_v: (mdp, v, alpha, pi, pi_b, k, 0.7),
        exact_grad_pi: (mdp, v, alpha, policy, k),
    }
    for form, args in forms.items():
        assert _rel(form(*args), getattr(reference_paths, form.__name__)(*args)) <= 1e-12, form.__name__
    # the start-weight gradient alpha(s) (E[delta_k | s] - E_alpha[delta_k]) has
    # no table form; its loop against the marginal recursion from each start
    per_start = np.array([expected_delta_dp(mdp, v, e, pi, k) for e in np.eye(mdp.n_states)])
    want = alpha * (per_start - alpha @ per_start)
    assert _rel(reference_paths.exact_grad_alpha(mdp, v, alpha, pi, k), want) <= 1e-12


# ---------------------------------------------------------------------------
# Path regularization


def test_path_reg_zero_eta_reduces(chain2_mdp):
    v = np.array([0.4, 1.1])
    alpha = np.array([0.5, 0.5])
    pi = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert path_reg_lagrangian(chain2_mdp, v, alpha, pi, pi, k=1, eta_v=0.0) == pytest.approx(
        multi_step_lagrangian(chain2_mdp, v, alpha, pi, k=1)
    )


def test_path_reg_exact_match_no_penalty(chain2_mdp):
    pi_b = np.array([[0.3, 0.7], [1.0, 0.0]])
    v_b = policy_value(chain2_mdp, pi_b)
    alpha = np.array([0.5, 0.5])
    pi = np.array([[0.5, 0.5], [0.5, 0.5]])
    with_pen = path_reg_lagrangian(chain2_mdp, v_b, alpha, pi, pi_b, k=1, eta_v=5.0)
    without = multi_step_lagrangian(chain2_mdp, v_b, alpha, pi, k=1)
    assert with_pen == pytest.approx(without, abs=1e-12)


def test_path_reg_single_state_penalty(single_state_mdp):
    # V^{pi_b} = 10, v = 8, eta_v = 1, mu a point mass: penalty adds exactly 4.
    v = np.array([8.0])
    one = np.array([1.0])
    pi = np.array([[1.0]])
    base = multi_step_lagrangian(single_state_mdp, v, one, pi, k=2)
    got = path_reg_lagrangian(single_state_mdp, v, one, pi, pi, k=2, eta_v=1.0)
    assert got == pytest.approx(base + 4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Inner minimization over v


def test_inner_min_large_eta_pins_to_behavior_value():
    rng = np.random.default_rng(71)
    mdp = random_mdp(4, 2, 0.9, rng)
    alpha = rng.dirichlet(np.ones(4))
    pi = rng.dirichlet(np.ones(2), size=4)
    pi_b = rng.dirichlet(np.ones(2), size=4)
    v = inner_min_v_exact(mdp, alpha, pi, pi_b, k=1, eta_v=1e6)
    assert np.max(np.abs(v - policy_value(mdp, pi_b))) < 1e-3


def test_inner_min_single_state_hand(single_state_mdp):
    # Linear term cancels for a single state, so the minimizer is V^{pi_b} = 10.
    one = np.array([1.0])
    pi = np.array([[1.0]])
    v = inner_min_v_exact(single_state_mdp, one, pi, pi, k=0, eta_v=0.5)
    assert v == pytest.approx([10.0], abs=1e-10)


def test_inner_min_matches_gradient_descent_oracle():
    rng = np.random.default_rng(73)
    mdp = random_mdp(3, 2, 0.9, rng)
    alpha = rng.dirichlet(np.ones(3))
    pi = rng.dirichlet(np.ones(2), size=3)
    pi_b = rng.dirichlet(np.ones(2), size=3)
    k, eta_v = 1, 0.7

    def objective(v):
        return path_reg_lagrangian(mdp, v, alpha, pi, pi_b, k=k, eta_v=eta_v)

    v = np.zeros(3)
    step = 1.0 / (2 * eta_v * mdp.mu.max())
    for _ in range(2000):
        g = fd_grad(objective, v, h=1e-6)
        if np.linalg.norm(g) < 1e-9:
            break
        v = v - step * g
    closed = inner_min_v_exact(mdp, alpha, pi, pi_b, k=k, eta_v=eta_v)
    assert np.max(np.abs(v - closed)) < 1e-6


def test_inner_min_gradient_vanishes():
    rng = np.random.default_rng(79)
    mdp = random_mdp(5, 3, 0.95, rng)
    alpha = rng.dirichlet(np.ones(5))
    pi = rng.dirichlet(np.ones(3), size=5)
    pi_b = rng.dirichlet(np.ones(3), size=5)
    v = inner_min_v_exact(mdp, alpha, pi, pi_b, k=2, eta_v=0.3)
    g = path_reg_value_gradient(mdp, v, alpha, pi, pi_b, k=2, eta_v=0.3)
    assert np.linalg.norm(g) <= 1e-8


def test_inner_min_names_first_unbounded_state():
    # mu puts no mass on states 1 and 2 but alpha does, so the linear term
    # there is nonzero and nothing curves the objective
    rng = np.random.default_rng(81)
    base = random_mdp(4, 2, 0.9, rng)
    mdp = TabularMdp(base.transition, base.reward, base.gamma, np.array([0.5, 0.0, 0.0, 0.5]))
    pi = rng.dirichlet(np.ones(2), size=4)
    with pytest.raises(np.linalg.LinAlgError, match=r"unbounded below in v\(1\): mu\(1\) = 0"):
        inner_min_v_exact(mdp, np.full(4, 0.25), pi, pi, k=0, eta_v=0.5)


def test_inner_min_eta_zero_is_singular(chain2_mdp):
    alpha = np.array([0.5, 0.5])
    pi = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(np.linalg.LinAlgError):
        inner_min_v_exact(chain2_mdp, alpha, pi, pi, k=0, eta_v=0.0)


# ---------------------------------------------------------------------------
# Invariants


def test_multi_step_strong_duality_on_grid(chain2_mdp):
    # Dual value with v confined to the max|R|/(1-gamma) box, maximized over a
    # 0.05-resolution grid of (alpha, pi).  The chain's saddle point lies on
    # the grid exactly, so the grid maximum matches (1-gamma^2) E_mu[V*].
    mdp = chain2_mdp
    k = 1
    v_star = value_iteration(mdp, tol=1e-13)
    saddle = (1 - mdp.gamma ** (k + 1)) * mdp.mu @ v_star
    bound = value_bound(mdp)
    grid = np.linspace(0.0, 1.0, 21)
    best = -np.inf
    for p in grid:
        alpha = np.array([p, 1.0 - p])
        for q0 in grid:
            for q1 in grid:
                pi = np.array([[1.0 - q0, q0], [1.0 - q1, q1]])
                reward_part = expected_delta_dp(mdp, np.zeros(2), alpha, pi, k)
                g_lin = value_linear_coefficient(mdp, alpha, pi, k)
                best = max(best, reward_part - bound * np.abs(g_lin).sum())
    assert best <= saddle + 1e-9
    assert best == pytest.approx(saddle, abs=1e-9)
