"""Weight maps, growth algebra, and wealth integration."""

import numpy as np
import pytest

from spt_lab import markets, paths, portfolios
from spt_lab.errors import InvalidArgumentError
from helpers import random_covariance, random_simplex


def _gbm_path(seed=0, n=3, k_steps=200, horizon=1.0):
    sigma = 0.2 * np.eye(n) + 0.05
    model = markets.constant_market(b=np.linspace(0.0, 0.08, n), sigma=sigma,
                                    x0=np.linspace(1.0, 2.0, n))
    grid = paths.make_grid(horizon, k_steps)
    f = paths.generate_factors(grid, n, 1, master_seed=seed)
    return model, grid, markets.simulate_block(model, f, 0, 1)[0][0]


# ---------------------------------------------------------------------------
# weight maps
# ---------------------------------------------------------------------------

def test_market_weights_basic():
    np.testing.assert_allclose(portfolios.market_weights(np.log([1.0, 1.0])),
                               [0.5, 0.5], rtol=0, atol=1e-15)
    np.testing.assert_allclose(portfolios.market_weights(np.log([3.0, 1.0])),
                               [0.75, 0.25], rtol=0, atol=1e-15)


def test_market_weights_survive_large_logs():
    # stabilized against overflow in the exponentials
    w = portfolios.market_weights(np.array([800.0, 800.0 + np.log(3.0)]))
    np.testing.assert_allclose(w, [0.25, 0.75], rtol=1e-12)


def test_diversity_weighted_oracle():
    """Square-root reweighting of (1/4, 1/4, 1/2), checked against closed form."""
    w = portfolios.diversity_weighted(np.array([0.25, 0.25, 0.5]), 0.5)
    np.testing.assert_allclose(
        w,
        [0.29289321881345254, 0.29289321881345254, 0.41421356237309503],
        rtol=1e-15,
    )
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_diversity_weighted_identity_at_p_one():
    mu = np.array([0.2, 0.5, 0.3])
    np.testing.assert_array_equal(portfolios.diversity_weighted(mu, 1.0), mu)


def test_diversity_weighted_validation():
    mu = np.array([0.5, 0.5])
    for p in (0.0, -0.5, 1.2):
        with pytest.raises(InvalidArgumentError):
            portfolios.diversity_weighted(mu, p)
    with pytest.raises(InvalidArgumentError):
        portfolios.diversity_weighted(np.array([1.1, -0.1]), 0.5)


def test_diversity_weighted_tempers_concentration():
    """Reweighting keeps the ordering but shrinks the spread."""
    rng = np.random.default_rng(42)
    for n in (2, 3, 6):
        mu = random_simplex(rng, 500, n)
        for p in (0.25, 0.5, 0.9):
            w = mu ** p
            w = w / w.sum(axis=1, keepdims=True)
            got = portfolios.diversity_weighted(mu, p)
            np.testing.assert_allclose(got, w, rtol=1e-12)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(got.max(axis=1) <= mu.max(axis=1) + 1e-15)
            assert np.all(got.min(axis=1) >= mu.min(axis=1) - 1e-15)
            order = np.argsort(mu, axis=1, kind="stable")
            np.testing.assert_array_equal(
                np.take_along_axis(got, order, axis=1),
                np.sort(got, axis=1),
            )


def test_mirror_weights_identity_and_flip():
    e1 = np.array([1.0, 0.0])
    half = np.array([0.5, 0.5])
    np.testing.assert_array_equal(portfolios.mirror_weights(e1, half, 1.0), e1)
    np.testing.assert_allclose(portfolios.mirror_weights(e1, half, -1.0),
                               [0.0, 1.0], rtol=0, atol=1e-15)


def test_mirror_weights_inversion():
    # mirroring with 1/p undoes mirroring with p, anchor held fixed
    rng = np.random.default_rng(7)
    pi = random_simplex(rng, 200, 4)
    anchor = random_simplex(rng, 200, 4)
    for p in (-2.0, 0.5, 3.0):
        back = portfolios.mirror_weights(
            portfolios.mirror_weights(pi, anchor, p), anchor, 1.0 / p)
        np.testing.assert_allclose(back, pi, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# growth algebra
# ---------------------------------------------------------------------------

def test_excess_growth_vertex_and_uniform():
    a = np.eye(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert portfolios.excess_growth(e, a) == pytest.approx(0.0, abs=1e-15)
    u = np.full(3, 1.0 / 3.0)
    assert portfolios.excess_growth(u, a) == pytest.approx(0.5 * (1 - 1 / 3), rel=1e-14)


def test_excess_growth_spectral_sandwich():
    """(eps/2)(1 - |pi|^2) <= excess growth <= (M/2)(1 - |pi|^2) for long pi."""
    rng = np.random.default_rng(11)
    for n in (2, 3, 6):
        a, lam = random_covariance(rng, n)
        pi = random_simplex(rng, 2_000, n)
        g = portfolios.excess_growth(pi, a)
        nsq = 1.0 - np.sum(pi * pi, axis=1)
        assert np.all(g >= 0.5 * lam[0] * nsq - 1e-12)
        assert np.all(g <= 0.5 * lam[-1] * nsq + 1e-12)
        # coarser floor in terms of the top weight alone
        assert np.all(g >= 0.5 * lam[0] * (1.0 - pi.max(axis=1)) - 1e-12)


def test_relative_covariance_identities():
    rng = np.random.default_rng(13)
    for n in (2, 4, 6):
        a, lam = random_covariance(rng, n)
        for _ in range(50):
            rho = random_simplex(rng, 1, n)[0]
            pi = random_simplex(rng, 1, n)[0]
            tau = portfolios.relative_covariance(a, rho)
            np.testing.assert_allclose(tau, tau.T, atol=1e-12)
            # the baseline portfolio is a null direction
            np.testing.assert_allclose(tau @ rho, 0.0, atol=1e-12)
            assert portfolios.relative_variance(a, rho, rho) == pytest.approx(0.0, abs=1e-12)
            v = portfolios.relative_variance(a, rho, pi)
            assert v == pytest.approx(pi @ tau @ pi, rel=1e-12, abs=1e-13)
            assert v >= lam[0] * np.sum((pi - rho) ** 2) - 1e-12
            # per-asset variance bands from the spectrum
            d = np.diag(tau)
            assert np.all(d >= lam[0] * (1 - rho) ** 2 - 1e-12)
            assert np.all(d <= lam[-1] * (1 - rho) * (2 - rho) + 1e-12)


def test_mirror_variance_scales_quadratically():
    rng = np.random.default_rng(17)
    a, _ = random_covariance(rng, 3)
    rho = random_simplex(rng, 1, 3)[0]
    pi = random_simplex(rng, 1, 3)[0]
    base = portfolios.relative_variance(a, rho, pi)
    for p in (-1.0, 0.5, 2.5):
        tilted = portfolios.mirror_weights(pi, rho, p)
        assert portfolios.relative_variance(a, rho, tilted) == pytest.approx(
            p * p * base, rel=1e-10, abs=1e-14)


def test_numeraire_invariance():
    # excess growth computed against any baseline agrees with the direct form
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a, _ = random_covariance(rng, n)
        w = random_simplex(rng, 1, n)[0]
        rho = random_simplex(rng, 1, n)[0]
        worst = max(worst, float(np.max(portfolios.numeraire_invariance_residual(w, rho, a))))
    assert worst <= 1e-10


def test_numeraire_invariance_degenerate_covariance():
    w = np.array([0.3, 0.7])
    rho = np.array([0.6, 0.4])
    a = np.zeros((2, 2))
    assert np.max(portfolios.numeraire_invariance_residual(w, rho, a)) == 0.0
    assert portfolios.excess_growth(w, a) == 0.0


# ---------------------------------------------------------------------------
# wealth integration
# ---------------------------------------------------------------------------

def test_market_value_equals_total_capitalization():
    _, grid, lx = _gbm_path(seed=1)
    np.testing.assert_allclose(portfolios.market_value(lx),
                               np.exp(lx).sum(axis=1), rtol=1e-12)


def test_market_rule_wealth_tracks_total_cap():
    _, grid, lx = _gbm_path(seed=2)
    w = portfolios.market_weights(lx)
    z = np.exp(portfolios.gross_log_value(w, lx))
    cap = portfolios.market_value(lx)
    np.testing.assert_allclose(z, cap / cap[0], rtol=1e-11)


def test_single_stock_wealth_is_exact():
    _, grid, lx = _gbm_path(seed=3)
    w = np.zeros(lx.shape)
    w[:, 1] = 1.0
    z = 3.0 * np.exp(portfolios.gross_log_value(w, lx))
    np.testing.assert_allclose(z, 3.0 * np.exp(lx[:, 1] - lx[0, 1]), rtol=1e-12)


def test_relative_log_value_of_market_is_zero():
    model, grid, lx = _gbm_path(seed=4)
    mu = portfolios.market_weights(lx)
    lr = portfolios.relative_log_value(mu, lx, grid.times, model.vol.a)
    np.testing.assert_array_equal(lr, np.zeros(lx.shape[0]))


def test_gross_and_relative_schemes_agree_for_long_rules():
    """Two independent wealth integrators, one exact and one drift-based."""
    model, grid, lx = _gbm_path(seed=6, k_steps=4_000)
    w = portfolios.diversity_weighted(portfolios.market_weights(lx), 0.5)
    log_zg = portfolios.gross_log_value(w, lx)
    cap = portfolios.market_value(lx)
    log_zr = (np.log(cap / cap[0])
              + portfolios.relative_log_value(w, lx, grid.times, model.vol.a))
    assert abs(log_zg[-1] - log_zr[-1]) < 0.02

