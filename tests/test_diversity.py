"""Concentration measures, barrier certificates, and frozen stationary constants."""

import numpy as np
import pytest
from scipy import integrate, stats

from spt_lab import diversity, markets, paths
from spt_lab.errors import InvalidArgumentError
from helpers import random_simplex


def test_measure_vertex_and_uniform():
    p = 0.5
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert diversity.diversity_measure(e, p) == pytest.approx(1.0, rel=1e-14)
    u = np.full(4, 0.25)
    assert diversity.diversity_measure(u, p) == pytest.approx(4.0 ** ((1 - p) / p),
                                                              rel=1e-14)


def test_measure_two_stock_closed_form():
    # (sum x^(1/2))^2 at (1/4, 3/4)
    got = diversity.diversity_measure(np.array([0.25, 0.75]), 0.5)
    assert got == pytest.approx(1.8660254037844386, rel=1e-14)


def test_measure_bounds_symmetry_and_peak():
    rng = np.random.default_rng(3)
    for n in (2, 3, 6):
        # range on the simplex: 1 at the vertices, n**((1-p)/p) at the centre
        lo, hi = 1.0, n ** ((1 - 0.4) / 0.4)
        w = random_simplex(rng, 1_000, n)
        d = diversity.diversity_measure(w, 0.4)
        assert np.all(d >= lo - 1e-12)
        assert np.all(d <= hi + 1e-12)
        perm = rng.permutation(n)
        np.testing.assert_allclose(diversity.diversity_measure(w[:, perm], 0.4), d,
                                   rtol=1e-12)
        assert d.max() < hi  # interior points stay below the uniform peak


def test_measure_validation():
    w = np.array([0.5, 0.5])
    for p in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(InvalidArgumentError):
            diversity.diversity_measure(w, p)
    with pytest.raises(InvalidArgumentError):
        diversity.diversity_measure(np.array([1.2, -0.2]), 0.5)


def test_check_diversity_constant_path():
    times = np.linspace(0.0, 2.0, 101)
    w = np.tile([0.6, 0.4], (1, 101, 1))
    rep = diversity.check_diversity(w, times, delta=0.3, tail_fraction=0.25)
    for key in ("max_top", "avg_top", "tail_top", "delta_max", "delta_avg",
                "is_diverse", "is_weakly_diverse"):
        assert rep[key].shape == (1,), key
    assert rep["is_diverse"][0]
    assert rep["is_weakly_diverse"][0]
    assert rep["max_top"][0] == pytest.approx(0.6)
    assert rep["avg_top"][0] == pytest.approx(0.6)
    assert rep["delta_max"][0] == pytest.approx(0.4)
    assert rep["delta_avg"][0] == pytest.approx(0.4)
    assert rep["tail_top"][0] == pytest.approx(0.6)


def test_check_diversity_margin_ordering():
    """The averaged margin always dominates the uniform margin."""
    rng = np.random.default_rng(9)
    times = np.linspace(0.0, 1.0, 257)
    w = np.stack([random_simplex(rng, 257, 3) for _ in range(20)])
    rep = diversity.check_diversity(w, times, delta=0.25, tail_fraction=0.25)
    assert np.all(rep["delta_avg"] >= rep["delta_max"] - 1e-15)
    assert np.all(rep["is_weakly_diverse"][rep["is_diverse"]])
    # a batch of paths equals its rows checked one at a time
    for i in range(20):
        one = diversity.check_diversity(w[i:i + 1], times, delta=0.25, tail_fraction=0.25)
        for key, value in one.items():
            np.testing.assert_array_equal(rep[key][i], value[0], err_msg=key)


def test_check_diversity_flags_concentration():
    times = np.linspace(0.0, 1.0, 51)
    w = np.tile([0.5, 0.5], (1, 51, 1))
    w[0, 30:, 0] = 0.8
    w[0, 30:, 1] = 0.2
    rep = diversity.check_diversity(w, times, delta=0.3, tail_fraction=0.25)
    assert not rep["is_diverse"][0]
    assert rep["tail_top"][0] > rep["avg_top"][0]  # concentration sits in the tail window
    with pytest.raises(InvalidArgumentError):
        diversity.check_diversity(w[0], times, delta=0.3, tail_fraction=0.25)


def test_barrier_drift_holds_for_repelled_market():
    model = markets.diverse_market(np.eye(3), g=0.0, delta=0.25,
                                   x0=[1.0, 1.0, 1.0])
    grid = paths.make_grid(1.0, 4)
    lx = np.tile(np.log([0.6, 0.25, 0.15]), (1, 5, 1))
    out = diversity.check_barrier_drift_condition(model, lx, grid.times, delta=0.25)
    assert out["checked"] == 5
    assert out["violations"] == 0
    assert out["worst_slack"] >= -1e-12


def test_barrier_drift_fails_for_driftless_market():
    """Zero growth cannot hold the leader away from the barrier."""
    sigma = np.eye(2)
    model = markets.constant_market(b=0.5 * np.diag(sigma @ sigma.T), sigma=sigma,
                                    x0=[1.0, 1.0])
    grid = paths.make_grid(1.0, 1)
    lx = np.tile(np.log([0.5, 0.5]), (1, 2, 1))
    out = diversity.check_barrier_drift_condition(model, lx, grid.times, delta=0.25)
    assert out["checked"] == 2
    assert out["violations"] == 2
    # required repulsion at an even split: 1 / (0.25 log 1.5), less the half
    # unit of ellipticity the certificate already grants
    assert out["worst_slack"] == pytest.approx(-(9.865213849505727 - 0.5), rel=1e-12)


def test_barrier_drift_skips_unconcentrated_states():
    model = markets.diverse_market(np.eye(3), g=0.0, delta=0.25,
                                   x0=[1.0, 1.0, 1.0])
    grid = paths.make_grid(1.0, 1)
    # top weight below one half: outside the zone the certificate covers
    lx = np.tile(np.log([0.4, 0.35, 0.25]), (1, 2, 1))
    out = diversity.check_barrier_drift_condition(model, lx, grid.times, delta=0.25)
    assert out["checked"] == 0
    # past the barrier itself is out of zone as well
    past = np.tile(np.log([0.8, 0.1, 0.1]), (1, 2, 1))
    assert diversity.check_barrier_drift_condition(
        model, past, grid.times, delta=0.25)["checked"] == 0


def test_stationary_top_weight_constant_matches_quadrature():
    """Frozen mean of the larger weight under a standard normal log spread."""
    top = lambda z: 2.0 * stats.norm.pdf(z) / (1.0 + np.exp(-z))
    val, err = integrate.quad(top, 0.0, 40.0)
    assert err < 1e-8
    assert val == pytest.approx(0.6748568252669757, abs=1e-9)


def test_tail_probability_constant_matches_normal_cdf():
    # both weights past 0.8 means the absolute log spread exceeds log 4
    expect = 2.0 * (1.0 - stats.norm.cdf(np.log(4.0)))
    assert expect == pytest.approx(0.16565703800339682, abs=1e-15)
