"""Rank maps, collision local times, and the ranked log-weight decomposition."""

import numpy as np
import pytest

from spt_lab import markets, paths, portfolios, ranks
from spt_lab.errors import InvalidArgumentError
from helpers import count_draws, force_batch_size


def test_rank_order_basic_and_ties():
    np.testing.assert_array_equal(ranks.rank_order(np.array([0.2, 0.5, 0.3])),
                                  [1, 2, 0])
    # ties resolve to the lowest stock index
    np.testing.assert_array_equal(ranks.rank_order(np.array([0.4, 0.4, 0.2])),
                                  [0, 1, 2])
    np.testing.assert_array_equal(ranks.rank_order(np.array([0.7, 0.2, 0.1])),
                                  [0, 1, 2])


def test_ranked_weights_sorted_and_conserved():
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(5), size=300)
    ranked, order = ranks.ranked_weight_path(w)
    assert np.all(np.diff(ranked, axis=1) <= 0)
    np.testing.assert_allclose(ranked.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(np.take_along_axis(w, order, axis=1), ranked)


def test_local_time_zero_without_sign_change():
    rng = np.random.default_rng(1)
    y = 0.5 + np.abs(np.cumsum(rng.normal(size=400))) * 0.01
    lam = ranks.estimate_local_time(y)
    np.testing.assert_array_equal(lam, np.zeros(400))
    # flipping the whole path changes nothing
    np.testing.assert_array_equal(ranks.estimate_local_time(-y), np.zeros(400))


def test_local_time_single_crossing_value():
    lam = ranks.estimate_local_time(np.array([0.3, -0.2, -0.1]))
    # one crossing: |after| - |before| - sign(before)(after - before) = 2|after|
    np.testing.assert_allclose(lam, [0.0, 0.4, 0.4], rtol=0, atol=1e-15)


def test_local_time_monotone_and_starts_at_zero():
    rng = np.random.default_rng(2)
    y = np.cumsum(rng.normal(size=(32, 1_000)) * 0.03, axis=1)
    lam = ranks.estimate_local_time(y)
    assert lam.shape == y.shape
    assert np.all(lam[:, 0] == 0.0)
    assert np.all(np.diff(lam, axis=1) >= -1e-15)
    with pytest.raises(InvalidArgumentError):
        ranks.estimate_local_time(np.array([1.0]))


def test_local_time_mean_matches_reflected_brownian_expectation():
    """E of the accumulated local time of W at zero over [0, 1] is sqrt(2/pi)."""
    rng = np.random.default_rng(33)
    k_steps, n_paths = 100, 40_000
    w = np.cumsum(rng.standard_normal((n_paths, k_steps)) * np.sqrt(1.0 / k_steps),
                  axis=1)
    w = np.concatenate([np.zeros((n_paths, 1)), w], axis=1)
    lam = ranks.estimate_local_time(w)[:, -1]
    se = lam.std(ddof=1) / np.sqrt(n_paths)
    assert abs(lam.mean() - 0.7978845608028654) < 3.0 * se


def test_local_time_pathwise_error_shrinks_with_the_step():
    """Successive refinements of the same Brownian paths converge pathwise."""
    rng = np.random.default_rng(8)
    n_paths, k_fine = 256, 10_000
    dw = rng.standard_normal((n_paths, k_fine)) * np.sqrt(1.0 / k_fine)
    gaps = []
    ref = None
    for factor in (1, 10, 100):
        inc = dw.reshape(n_paths, k_fine // factor, factor).sum(axis=2)
        w = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(inc, axis=1)], axis=1)
        lam = ranks.estimate_local_time(w)[:, -1]
        if ref is None:
            ref = lam
        else:
            gaps.append(np.abs(lam - ref).mean())
    assert gaps[1] > gaps[0] > 0.0


def test_adjacent_gap_crossing_value():
    w = np.array([[0.6, 0.4], [0.45, 0.55], [0.44, 0.56]])
    lam = ranks.adjacent_gap_local_times(w)
    assert lam.shape == (3, 1)
    assert lam[0, 0] == 0.0
    # the pair swaps once; the increment is twice the new log gap
    np.testing.assert_allclose(lam[1, 0], 2.0 * abs(np.log(0.45 / 0.55)), rtol=1e-12)
    np.testing.assert_allclose(lam[2, 0], lam[1, 0], rtol=0, atol=0)
    assert np.all(np.diff(lam, axis=0) >= 0.0)


def test_adjacent_gap_no_crossings_is_zero():
    w = np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1], [0.65, 0.25, 0.1]])
    np.testing.assert_array_equal(ranks.adjacent_gap_local_times(w),
                                  np.zeros((3, 2)))
    # a batch of paths equals its rows stacked
    batch = np.stack([w, w[::-1], w[:, ::-1]])
    np.testing.assert_array_equal(
        ranks.adjacent_gap_local_times(batch),
        np.stack([ranks.adjacent_gap_local_times(row) for row in batch]))


def _ou_paths(lo, hi, k_steps=2_000, horizon=2.0, master_seed=13):
    """Paths lo..hi-1 of the mean-reverting pair with their vol increments."""
    model = markets.ou_two_stock(alpha=0.5)
    grid = paths.make_grid(horizon, k_steps)
    f = paths.generate_factors(grid, 2, hi, master_seed=master_seed)
    lx, aux = markets.simulate_block(model, f, lo, hi)
    return model, grid, lx, f.block(lo, hi) @ model.vol.sigma.T, aux


def test_top_pair_local_time_flat_while_leader_is_clear():
    """No collision time accrues while the top weight sits well above one half."""
    _, _, lx, _, _ = _ou_paths(0, 1)
    w = portfolios.market_weights(lx[0])
    lam = ranks.adjacent_gap_local_times(w)[:, 0]
    inc = np.diff(lam)
    clear = (w.max(axis=1) > 0.55)[:-1]
    assert inc[clear].max(initial=0.0) == 0.0


def test_ranked_decomposition_two_stocks_is_exact():
    """Bookkeeping with named increments plus boundary terms telescopes."""
    model, grid, lx, dv, aux = _ou_paths(1, 2)
    out = ranks.ranked_decomposition(model, lx, dv, grid.times, aux)
    assert set(out) >= {"local_times", "residual_named", "order", "relative_named"}
    assert out["relative_named"].shape == (1,)
    assert out["relative_named"][0] < 1e-12
    # collisions actually happened, so the boundary term is active
    assert out["local_times"][0, -1, 0] > 0.0
    np.testing.assert_array_equal(
        out["order"], ranks.rank_order(portfolios.market_weights(lx)))


def test_ranked_decomposition_model_residual_shrinks():
    rel = []
    for k_steps in (500, 2_000):
        model, grid, lx, dv, aux = _ou_paths(0, 8, k_steps=k_steps, master_seed=21)
        out = ranks.ranked_decomposition(model, lx, dv, grid.times, aux)
        rel.append(np.mean(out["relative_model"]))
    assert rel[1] < rel[0]


def test_ranked_decomposition_three_stocks_small_residual():
    model = markets.constant_market(b=[0.02, 0.0, 0.04], sigma=0.3 * np.eye(3),
                                    x0=[1.0, 1.05, 0.95])
    grid = paths.make_grid(1.0, 4_000)
    f = paths.generate_factors(grid, 3, 4, master_seed=3)
    lx, aux = markets.simulate_block(model, f, 0, 4)
    out = ranks.ranked_decomposition(model, lx, f.block(0, 4) @ model.vol.sigma.T,
                                     grid.times, aux)
    assert out["residual_named"].shape == lx.shape
    assert np.all(out["relative_named"] < 0.05)


def test_ranked_decomposition_batch_equals_its_paths():
    """Each path's result is the same in a batch of eight and on its own."""
    model, grid, lx, dv, aux = _ou_paths(0, 8)
    batch = ranks.ranked_decomposition(model, lx, dv, grid.times, aux)
    for i in range(8):
        one = ranks.ranked_decomposition(model, lx[i:i + 1], dv[i:i + 1], grid.times, aux)
        for key, value in one.items():
            np.testing.assert_array_equal(batch[key][i], value[0], err_msg=key)


def test_ranked_decomposition_study_draws_path_zero_twice(monkeypatch):
    """The series reads path 0 from the batch that simulates it: every path
    is drawn twice, once in the walk's one time chunk to integrate and once
    whole for its vol increments, and the series equals the one of path 0
    simulated on its own."""
    whole, chunked = count_draws(monkeypatch)
    force_batch_size(monkeypatch, 3)
    model = markets.ou_two_stock(alpha=0.5)
    f = paths.generate_factors(paths.make_grid(2.0, 200), 2, 8, master_seed=13)
    series = ranks.ranked_decomposition_study(model, f)[3]["series"]
    assert whole == {(i, k): 1 for i in range(8) for k in range(200)}
    assert chunked == whole
    w = portfolios.market_weights(markets.simulate_block(model, f, 0, 1)[0])
    np.testing.assert_array_equal(series["ranked_w1"], ranks.ranked_weight_path(w)[0][0, :, 0])
    np.testing.assert_array_equal(series["gap_local_time1"],
                                  ranks.adjacent_gap_local_times(w)[0, :, 0])
