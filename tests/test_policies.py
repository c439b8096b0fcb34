import numpy as np
import pytest
from scipy.spatial.distance import pdist

from dualac.policies import (
    GaussianRbfPolicy,
    LinearValue,
    RbfFeatureMap,
    TabularSoftmaxPolicy,
    TabularValue,
    median_trick_bandwidth,
)
from reference_prox import softmax_kl_grad


def fd_grad(f, x0, h=1e-5):
    g = np.zeros_like(x0)
    for i in range(len(x0)):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return g


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
    assert np.allclose(fmap(np.array([0.3, -0.7])), np.ones(4))


def test_rbf_range():
    fmap = RbfFeatureMap.create(64, 3, bandwidth=0.8, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        f = fmap(rng.normal(size=3) * 4)
        assert np.all(f >= -1.0) and np.all(f <= 1.0)


def test_rbf_kernel_approximation():
    # (1/n) f(x).f(y) -> 0.5 exp(-||x-y||^2 / (2 bw^2)) as n grows
    bw = 1.3
    fmap = RbfFeatureMap.create(10_000, 2, bandwidth=bw, seed=7)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x, y = rng.normal(size=2), rng.normal(size=2)
        approx = fmap(x) @ fmap(y) / fmap.n_features
        exact = 0.5 * np.exp(-np.sum((x - y) ** 2) / (2 * bw**2))
        assert abs(approx - exact) < 0.02


def test_rbf_determinism():
    a = RbfFeatureMap.create(16, 3, bandwidth=1.0, seed=42)
    b = RbfFeatureMap.create(16, 3, bandwidth=1.0, seed=42)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(a.phases, b.phases)


def test_rbf_dimension_mismatch():
    fmap = RbfFeatureMap.create(8, 3, bandwidth=1.0, seed=1)
    with pytest.raises(ValueError):
        fmap(np.zeros(4))


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
    return pol.weights @ pol.feature_map(s)


def gaussian_log_prob(pol, s, a):
    """log pi(a|s) of the diagonal Gaussian policy, for one state."""
    z = (np.asarray(a, dtype=float) - gaussian_mean(pol, s)) / np.exp(pol.log_std)
    return float(-0.5 * z @ z - pol.log_std.sum() - 0.5 * pol.action_dim * np.log(2.0 * np.pi))


def test_gaussian_log_prob_at_mean():
    pol = make_gaussian()
    s = np.array([0.1, -0.4, 0.9])
    a = gaussian_mean(pol, s)
    assert gaussian_log_prob(pol, s, a) == pytest.approx(-0.5 * np.sum(np.log(2 * np.pi * np.exp(2 * pol.log_std))))
    grad = pol.score_batch(s[None], a[None])[0]
    assert np.allclose(grad[: pol.weights.size], 0.0)


def test_gaussian_grad_matches_finite_differences():
    rng = np.random.default_rng(13)
    for trial in range(100):
        pol = make_gaussian(seed=trial)
        s = rng.normal(size=3)
        a = rng.normal(size=2)
        grad = pol.score_batch(s[None], a[None])[0]

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
    draws = pol.action_sampler()(np.tile(s, (10_000, 1)), rng.standard_normal((10_000, pol.action_dim)))
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
    assert pol.kl(old, states) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Tabular softmax policy


def test_softmax_uniform_two_actions():
    pol = TabularSoftmaxPolicy(1, 2)
    assert pol.log_prob_matrix()[0, 0] == pytest.approx(np.log(0.5))
    grad = pol.score_batch([0], [0])[0]
    assert np.allclose(grad, [0.5, -0.5])


def test_softmax_grad_matches_finite_differences():
    rng = np.random.default_rng(33)
    for _ in range(100):
        pol = TabularSoftmaxPolicy(3, 4, logits=rng.normal(size=(3, 4)))
        s, a = int(rng.integers(3)), int(rng.integers(4))
        grad = pol.score_batch([s], [a])[0]

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


# v(s) = w . row(s), from the batched rows


def test_linear_value_zero_weights():
    fmap = RbfFeatureMap.create(8, 2, bandwidth=1.0, seed=51)
    v = LinearValue(fmap)
    s = np.array([0.2, -0.1])
    grad = v.rows(s[None])[0]
    assert v.get_params() @ grad == 0.0
    assert np.allclose(grad, fmap(s))


def test_tabular_value_indicator_grad():
    v = TabularValue(5)
    v.values = np.arange(5.0)
    grad = v.rows([3])[0]
    assert v.get_params() @ grad == 3.0
    assert np.allclose(grad, np.eye(5)[3])


def test_value_grads_match_finite_differences():
    rng = np.random.default_rng(52)
    fmap = RbfFeatureMap.create(8, 2, bandwidth=1.0, seed=53)
    v = LinearValue(fmap)
    v.weights = rng.normal(size=8)
    s = rng.normal(size=2)
    grad = v.rows(s[None])[0]

    def f(theta):
        c = v.copy()
        c.set_params(theta)
        return fmap(s) @ c.get_params()

    assert np.allclose(grad, fd_grad(f, v.get_params()), rtol=1e-6, atol=1e-9)
