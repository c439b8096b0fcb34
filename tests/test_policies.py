import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from dualac.policies import (
    _COS_TURN_COEFFS,
    BiasedFeatureMap,
    GaussianRbfPolicy,
    IndicatorFeatureMap,
    RbfFeatureMap,
    TabularSoftmaxPolicy,
    median_trick_bandwidth,
)
from conftest import fd_grad
from reference_prox import softmax_kl_grad
from reference_sampler import features


# ---------------------------------------------------------------------------
# Median trick


def test_median_trick_two_points():
    assert median_trick_bandwidth(np.array([[0.0], [2.0]])) == pytest.approx(2.0)


def test_median_trick_three_points_line():
    assert median_trick_bandwidth(np.array([0.0, 1.0, 3.0])) == pytest.approx(2.0)


def test_median_trick_matches_brute_force():
    rng = np.random.default_rng(101)
    x = rng.standard_normal((1000, 3))
    dists = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    brute = np.median(dists[np.triu_indices(1000, k=1)])
    assert median_trick_bandwidth(x) == pytest.approx(brute)
    # sanity: concentrates near sqrt(2 d) for standard normal data
    assert abs(median_trick_bandwidth(x) - np.sqrt(2 * 3)) < 0.3


def test_median_trick_equals_pdist_median():
    rng = np.random.default_rng(102)
    for _ in range(50):
        x = rng.standard_normal((int(rng.integers(2, 600)), int(rng.integers(1, 5)))) * rng.uniform(0.1, 10.0)
        assert median_trick_bandwidth(x) == np.median(pdist(x))


def test_median_trick_identical_points_rejected():
    with pytest.raises(ValueError):
        median_trick_bandwidth(np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# RBF features


def test_rbf_zero_frequencies_give_ones():
    fmap = RbfFeatureMap(frequencies=np.zeros((4, 2)), phases=np.zeros(4), bandwidth=1.0)
    assert np.allclose(fmap.rows(np.array([[0.3, -0.7]])), np.ones((1, 4)))


def test_rbf_range():
    fmap = RbfFeatureMap.create(64, 3, bandwidth=0.8, seed=5)
    f = fmap.rows(np.random.default_rng(6).normal(size=(20, 3)) * 4)
    assert np.all(f >= -1.0) and np.all(f <= 1.0)


def test_rbf_kernel_approximation():
    # (1/n) f(x).f(y) -> 0.5 exp(-||x-y||^2 / (2 bw^2)) as n grows
    bw = 1.3
    fmap = RbfFeatureMap.create(10_000, 2, bandwidth=bw, seed=7)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x, y = rng.normal(size=2), rng.normal(size=2)
        fx, fy = fmap.rows(np.stack([x, y]))
        approx = fx @ fy / fmap.n_features
        exact = 0.5 * np.exp(-np.sum((x - y) ** 2) / (2 * bw**2))
        assert abs(approx - exact) < 0.02


def test_rbf_rows_are_the_cosine_polynomial_of_each_state():
    # bitwise the reference's per-state formula (argument in turns less the
    # nearest whole turn, then the polynomial in its square), as float64
    fmap = RbfFeatureMap.create(100, 3, bandwidth=1.7, seed=3)
    states = np.random.default_rng(4).normal(size=(257, 3)) * [1.0, 1.0, 8.0]
    rows = fmap.rows(states)
    assert rows.dtype == np.float64
    assert np.array_equal(rows, np.stack([features(fmap, s) for s in states]))


def test_rbf_rows_within_a_derived_bound_of_libm_cosine():
    # |rows - np.cos(z)| from its parts, eps = 2^-53:
    # - 0.5 / pi and z * (0.5 / pi) round: t = z / 2pi moves by 3 eps |t|,
    #   so cos(2 pi t) by 2 pi 3 eps |t| = 3 eps |z|;
    # - t - rint(t) is exact and t^2 rounds once: P(u) = cos(2 pi sqrt(u))
    #   moves by eps u |P'(u)| = eps pi sqrt(u) |sin| <= (pi / 2) eps;
    # - Horner's rule of degree n errs by at most 2 n eps sum_k |c_k| u^k
    #   (Higham, Accuracy and Stability of Numerical Algorithms, 5.1), and
    #   the coefficients' own rounding by eps sum_k |c_k| u^k, u <= 1/4;
    # - interpolating at the n + 1 Chebyshev nodes of [0, 1/4] errs by at
    #   most 2 (1/16)^(n+1) max |P^(n+1)| / (n+1)!, the derivative bounded
    #   termwise from P's Taylor series sum_k (-1)^k (2 pi)^(2k) u^k / (2k)!;
    # - np.cos is within an ulp, eps.
    eps = 2.0**-53
    n = len(_COS_TURN_COEFFS) - 1
    coeff_sum = sum(abs(c) * 0.25**k for k, c in enumerate(reversed(_COS_TURN_COEFFS)))
    derivative = sum(
        (2 * math.pi) ** (2 * k) * math.factorial(k) / (math.factorial(k - n - 1) * math.factorial(2 * k)) * 0.25 ** (k - n - 1)
        for k in range(n + 1, n + 40)
    )
    interpolation = 2 * (1 / 16) ** (n + 1) * derivative / math.factorial(n + 1)
    fixed = eps * (math.pi / 2 + (2 * n + 1) * coeff_sum + 1) + interpolation
    assert fixed < 2e-10
    for seed, scale in ((5, 1.0), (6, 10.0), (7, 100.0)):
        fmap = RbfFeatureMap.create(100, 3, bandwidth=1.0, seed=seed)
        states = np.random.default_rng(seed).normal(size=(400, 3)) * scale
        z = np.stack([fmap.frequencies @ s / fmap.bandwidth + fmap.phases for s in states])
        assert np.all(np.abs(fmap.rows(states) - np.cos(z)) <= 3 * eps * np.abs(z) + fixed)


def test_rbf_batch_rows_equal_each_state_alone():
    # N = 1..33 covers every SIMD tail length of the elementwise operations
    fmap = RbfFeatureMap.create(100, 3, bandwidth=1.3, seed=8)
    rng = np.random.default_rng(9)
    for n in range(1, 34):
        states = rng.normal(size=(n, 3)) * [1.0, 1.0, 8.0]
        rows = fmap.rows(states)
        for s, row in zip(states, rows, strict=True):
            assert np.array_equal(row, fmap.rows(s[None])[0])


def test_rbf_determinism():
    a = RbfFeatureMap.create(16, 3, bandwidth=1.0, seed=42)
    b = RbfFeatureMap.create(16, 3, bandwidth=1.0, seed=42)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(a.phases, b.phases)


# ---------------------------------------------------------------------------
# Gaussian policy


def make_gaussian(seed=11, n_features=6, state_dim=3, action_dim=2):
    fmap = RbfFeatureMap.create(n_features, state_dim, bandwidth=1.0, seed=seed)
    pol = GaussianRbfPolicy(fmap, action_dim=action_dim, init_log_std=-0.3, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    pol.weights = rng.standard_normal(pol.weights.shape) * 0.5
    pol.log_std = rng.uniform(-1.0, 0.5, size=action_dim)
    return pol


def gaussian_mean(pol, s):
    return pol.weights @ pol.inputs(s[None])[0]


def gaussian_log_prob(pol, s, a):
    """log pi(a|s) of the diagonal Gaussian policy, for one state."""
    z = (np.asarray(a, dtype=float) - gaussian_mean(pol, s)) / np.exp(pol.log_std)
    return float(-0.5 * z @ z - pol.log_std.sum() - 0.5 * pol.action_dim * np.log(2.0 * np.pi))


def test_gaussian_log_prob_at_mean():
    pol = make_gaussian()
    s = np.array([0.1, -0.4, 0.9])
    a = gaussian_mean(pol, s)
    assert gaussian_log_prob(pol, s, a) == pytest.approx(-0.5 * np.sum(np.log(2 * np.pi * np.exp(2 * pol.log_std))))
    grad = pol.score_batch(pol.inputs(s[None]), a[None]).rows[0]
    assert np.allclose(grad[: pol.weights.size], 0.0)


def test_gaussian_grad_matches_finite_differences():
    rng = np.random.default_rng(13)
    for trial in range(100):
        pol = make_gaussian(seed=trial)
        s = rng.normal(size=3)
        a = rng.normal(size=2)
        grad = pol.score_batch(pol.inputs(s[None]), a[None]).rows[0]

        def f(theta, pol=pol, s=s, a=a):
            c = pol.copy()
            c.set_params(theta)
            return gaussian_log_prob(c, s, a)

        num = fd_grad(f, pol.get_params())
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-6)


def test_gaussian_sampling_round_trip():
    pol = make_gaussian(seed=21)
    s = np.array([0.5, 0.0, -1.0])
    rng = np.random.default_rng(22)
    draws = pol.action_sampler()(pol.inputs(np.tile(s, (10_000, 1))), rng.standard_normal((10_000, pol.action_dim)))
    mu, sd = gaussian_mean(pol, s), np.exp(pol.log_std)
    se_mean = sd / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 3 * se_mean)
    var = draws.var(axis=0, ddof=1)
    se_var = sd**2 * np.sqrt(2.0 / (len(draws) - 1))
    assert np.all(np.abs(var - sd**2) < 3 * se_var)


def test_gaussian_kl_zero_to_self():
    pol = make_gaussian(seed=31)
    old = pol.copy()
    states = np.random.default_rng(32).normal(size=(5, 3))
    assert pol.kl(old, pol.inputs(states)) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Tabular softmax policy


def test_softmax_uniform_two_actions():
    pol = TabularSoftmaxPolicy(1, 2)
    assert pol.log_prob_matrix()[0, 0] == pytest.approx(np.log(0.5))
    grad = pol.score_batch([0], [0]).weighted_sum(np.ones(1))
    assert np.allclose(grad, [0.5, -0.5])


def test_softmax_grad_matches_finite_differences():
    rng = np.random.default_rng(33)
    for _ in range(100):
        pol = TabularSoftmaxPolicy(3, 4, logits=rng.normal(size=(3, 4)))
        s, a = int(rng.integers(3)), int(rng.integers(4))
        grad = pol.score_batch([s], [a]).weighted_sum(np.ones(1))

        def f(theta, pol=pol, s=s, a=a):
            c = pol.copy()
            c.set_params(theta)
            return c.log_prob_matrix()[s, a]

        assert np.allclose(grad, fd_grad(f, pol.get_params()), rtol=1e-4, atol=1e-7)


def test_softmax_rows_normalize():
    pol = TabularSoftmaxPolicy(4, 3, logits=np.random.default_rng(34).normal(size=(4, 3)) * 10)
    p = pol.prob_matrix()
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)


def test_softmax_kl_grad_matches_fd():
    rng = np.random.default_rng(35)
    old = TabularSoftmaxPolicy(3, 3, logits=rng.normal(size=(3, 3)))
    pol = TabularSoftmaxPolicy(3, 3, logits=old.logits + 0.1 * rng.normal(size=(3, 3)))
    states = [0, 1, 2, 1]

    def f(theta):
        c = pol.copy()
        c.set_params(theta)
        return c.kl(old, states)

    assert np.allclose(softmax_kl_grad(pol, old, states), fd_grad(f, pol.get_params()), rtol=1e-4, atol=1e-8)


# ---------------------------------------------------------------------------
# Value functions


# v(s) = w . row(s): a parameter vector w over a row map's batched rows


def test_biased_feature_row_is_the_rbf_row_and_a_bias():
    fmap = RbfFeatureMap.create(8, 2, bandwidth=1.0, seed=51)
    value_map = BiasedFeatureMap(fmap)
    s = np.array([0.2, -0.1])
    grad = value_map.rows(s[None])[0]
    assert np.zeros(value_map.n_features) @ grad == 0.0
    assert np.array_equal(grad, np.append(fmap.rows(s[None])[0], 1.0))


def test_indicator_feature_row_is_the_unit_vector_of_its_state():
    value_map = IndicatorFeatureMap(5)
    grad = value_map.rows([3])[0]
    assert np.arange(5.0) @ grad == 3.0
    assert np.array_equal(grad, np.eye(5)[3])


def test_value_grads_match_finite_differences():
    rng = np.random.default_rng(52)
    value_map = BiasedFeatureMap(RbfFeatureMap.create(8, 2, bandwidth=1.0, seed=53))
    w = rng.normal(size=value_map.n_features)
    s = rng.normal(size=2)
    grad = value_map.rows(s[None])[0]

    def f(theta):
        return value_map.rows(s[None])[0] @ theta

    assert np.allclose(grad, fd_grad(f, w), rtol=1e-6, atol=1e-9)
