"""Deflators, Monte Carlo claim pricing, and long-horizon decay bounds."""

import collections
import math

import numpy as np
import pytest

from spt_lab import arbitrage, checks, diversity, hedging, markets, paths, ranks
from spt_lab.errors import InvalidArgumentError
from helpers import (ZeroFactors, count_draws, force_batch_size, whole_path_knock_out,
                     whole_path_parity_witness)


def _gbm_pair(r=0.0):
    sigma = np.diag([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])
    return markets.constant_market(b=[0.1, 0.0], sigma=sigma, x0=[1.0, 1.0], r=r)


# ---------------------------------------------------------------------------
# market price of risk and the deflator
# ---------------------------------------------------------------------------

def test_price_of_risk_closed_form():
    model = _gbm_pair()
    lx = np.zeros((1, 3, 2))
    times = np.array([0.0, 0.5, 1.0])
    theta = hedging.market_price_of_risk(model, lx, times)
    np.testing.assert_allclose(theta, np.tile([0.14142135623730953, 0.0], (1, 3, 1)),
                               rtol=1e-13)


def test_price_of_risk_vanishes_when_returns_match_the_rate():
    model = markets.constant_market(b=[0.03, 0.03], sigma=0.4 * np.eye(2),
                                    x0=[1.0, 2.0], r=0.03)
    theta = hedging.market_price_of_risk(model, np.zeros((1, 2, 2)), np.array([0.0, 1.0]))
    np.testing.assert_allclose(theta, 0.0, atol=1e-14)


def _price(model, factors, payoff):
    """Deflated price and standard error of ``payoff(log_prices)``, with the
    deflator in closed form."""
    return checks.compensated_mean_se(hedging._deflated_payoffs(model, factors, payoff))


def _unit(lx):
    return np.ones(lx.shape[0])


def test_deflator_is_one_without_risk_premium():
    model = markets.constant_market(b=[0.0, 0.0], sigma=0.3 * np.eye(2),
                                    x0=[1.0, 1.0])
    grid = paths.make_grid(1.0, 32)
    f = paths.generate_factors(grid, 2, 64, master_seed=1)
    assert _price(model, f, _unit) == (1.0, 0.0)


def test_deflator_mean_is_one_for_constant_risk_premium(monkeypatch):
    """The discrete deflator is an exact martingale when theta is constant."""
    model = _gbm_pair()
    grid = paths.make_grid(1.0, 16)
    f = paths.generate_factors(grid, 2, 40_000, master_seed=2)
    force_batch_size(monkeypatch, 10_000)
    price, se = _price(model, f, _unit)
    assert abs(price - 1.0) < 3.0 * se


def _price_of_risk_log_deflator(model, factors, lx, aux):
    """Terminal log L = -sum theta' dW - |theta|^2 dt / 2, with theta from the
    growth rule and dW the drawn factors."""
    times = factors.grid.times
    theta = hedging.market_price_of_risk(model, lx[:, :-1], times[:-1], aux)
    dw = factors.block(0, factors.n_paths)
    return (-(theta * dw).sum(axis=(1, 2))
            - 0.5 * ((theta * theta).sum(axis=2) * np.diff(times)).sum(axis=1))


def test_deflator_read_off_the_path_matches_the_price_of_risk_with_more_factors():
    """Two stocks on three factors: the closed form read off the terminal log
    prices equals -sum theta'dW - |theta|^2 dt / 2 summed over the steps."""
    sigma = np.array([[0.25, 0.1, 0.0], [0.0, 0.3, 0.05]])
    model = markets.constant_market(b=[0.12, 0.05], sigma=sigma, x0=[1.0, 1.0], r=0.03)
    factors = paths.generate_factors(paths.make_grid(2.0, 600), 3, 8, master_seed=4)
    lx, aux = markets.simulate_block(model, factors, 0, 8)
    got = hedging._constant_log_deflator(model, factors.grid.horizon)(lx)
    np.testing.assert_allclose(got, _price_of_risk_log_deflator(model, factors, lx, aux),
                               rtol=0, atol=1e-12)


def test_deflated_prices_draw_each_path_once(monkeypatch):
    """Every deflated price draws each (path, step) of its factors at most
    once per pass, and only in time chunks.  hedge-price and parity-gap's
    control draw every path once, in the one chunk of ``run_batches``; the
    Foellmer passes of the call ladder and of the parity witness draw each
    path from its first step on, never a step twice."""
    whole, chunked = count_draws(monkeypatch)
    one_chunk = collections.Counter()  # what run_batches draws
    run_batches = markets.run_batches

    def counted(*args, **kwargs):
        before = chunked.copy()
        try:
            return run_batches(*args, **kwargs)
        finally:
            one_chunk.update(chunked - before)

    monkeypatch.setattr(markets, "run_batches", counted)
    gbm = markets.constant_market(b=[0.1, 0.0], sigma=0.3 * np.eye(2),
                                  x0=[1.0, 0.8], r=0.02)
    diverse = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3,
                                     x0=[1.0, 1.0])
    factors = paths.generate_factors(paths.make_grid(1.0, 10), 2, 12, master_seed=3)
    ladder = paths.generate_factors(paths.make_grid(2.0, 600), 2, 12, master_seed=3)

    force_batch_size(monkeypatch, 5)
    every_step = {(i, k) for i in range(12) for k in range(10)}
    runs = {
        "hedge_price": (lambda: hedging.hedge_price(gbm, factors, 1.0, 0), True, False),
        "parity_gap_study": (lambda: hedging.parity_gap_study(
            diverse, factors, 2.0, 1.1, 0, 1), True, True),
        "call_decay_study": (lambda: hedging.call_decay_study(
            markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3, x0=[1.0, 1.0],
                                   r=0.03),
            ladder, 1.0, (1.0, 2.0), p_bound=0.5, index=0), False, True),
    }
    for name, (run, draws_one_chunk, draws_passes) in runs.items():
        whole.clear()
        chunked.clear()
        one_chunk.clear()
        run()
        assert not whole, name
        passes = chunked - one_chunk
        if draws_one_chunk:
            assert set(one_chunk) == every_step and set(one_chunk.values()) == {1}, name
        else:
            assert not one_chunk, name
        assert bool(passes) == draws_passes, name
        assert set(passes.values()) <= {1}, name
        assert {i for i, k in passes if k == 0} == (set(range(12)) if draws_passes else set())


@pytest.mark.parametrize("chunk_steps", [256, 37])
def test_retired_paths_match_the_whole_path_pass(monkeypatch, chunk_steps):
    """Retiring knocked-out paths changes nothing: per path, the first index
    at or over the barrier under each monitor equals the whole-path
    algorithm's up to the last rung, and the log prices at each rung and
    the running sum of a per-step functional equal the whole path's bit for
    bit up to the path's last chunk (0 past it), over several batches, with
    chunks of an even and of an odd length.  Each (path, step) is drawn at
    most once, and a path out under both monitors by the end of a chunk is
    drawn for no later step."""
    _, chunked = count_draws(monkeypatch)
    force_batch_size(monkeypatch, 16)
    monkeypatch.setattr(markets, "_CHUNK_STEPS", chunk_steps)
    model = markets.diverse_market(0.3 * np.eye(3), g=0.0, delta=0.35,
                                   x0=[1.0, 1.2, 0.9], r=0.03)
    factors = paths.generate_factors(paths.make_grid(21.0, 630), 3, 40, master_seed=21)
    rungs = [100, 300, 299, 600]
    top = max(rungs)

    def moves(lx, times):
        return np.diff(lx[:, :, 0], axis=1) * np.diff(times)

    lx, running, first, first_2dt = hedging._foellmer_knock_out(model, factors, rungs, moves)
    whole, w_first, w_first_2dt = whole_path_knock_out(model, factors)
    np.testing.assert_array_equal(first, np.minimum(w_first, top + 1))
    np.testing.assert_array_equal(first_2dt, np.minimum(w_first_2dt, top + 1))
    alive, alive_2dt = (f[:, None] > np.asarray(rungs) for f in (first, first_2dt))
    assert 0 < alive_2dt[:, -1].sum() < 40 and (alive != alive_2dt).any()
    whole_running = np.cumsum(moves(whole, factors.grid.times), axis=1)[:, np.asarray(rungs) - 1]

    assert set(chunked.values()) == {1}
    for i in range(factors.n_paths):
        # out at grid point p: the chunk holding p is the path's last
        p = first_2dt[i]
        last = top if p > top else min(top, -(-p // chunk_steps) * chunk_steps)
        assert sorted(k for j, k in chunked if j == i) == list(range(last)), i
        seen = np.asarray(rungs) <= last
        np.testing.assert_array_equal(lx[i, seen], whole[i, rungs][seen])
        np.testing.assert_array_equal(running[i, seen], whole_running[i, seen])
        assert not lx[i, ~seen].any() and not running[i, ~seen].any()
    assert hedging._foellmer_knock_out(model, factors, rungs)[1] is None


def test_deflated_stock_gap_is_exact_for_constant_coefficients():
    """parity-gap's control: the paired deflated gap of two plain stocks
    sits at their initial difference."""
    model = markets.constant_market(b=[0.1, 0.0],
                                    sigma=np.diag([1.0 / np.sqrt(2.0)] * 2),
                                    x0=[1.0, 0.8])
    grid = paths.make_grid(1.0, 16)
    f = paths.generate_factors(grid, 2, 40_000, master_seed=3)
    gap, gap_se = _price(model, f, lambda lx: np.exp(lx[:, -1, 0]) - np.exp(lx[:, -1, 1]))
    expected = float(model.x0[0] - model.x0[1])
    assert expected == pytest.approx(0.2)
    assert abs(gap - 0.2) < 3.0 * gap_se
    assert abs((gap - expected) / gap_se) < 3.0


# ---------------------------------------------------------------------------
# claim pricing
# ---------------------------------------------------------------------------

def test_call_price_closed_form_frozen_value():
    got = hedging.call_price_closed_form(1.0, 1.0, 0.03, 0.25, 2.0)
    assert got == pytest.approx(0.16728424634840483, rel=1e-15)
    # more volatility, more value; tiny volatility approaches intrinsic
    assert hedging.call_price_closed_form(1.0, 1.0, 0.03, 0.4, 2.0) > got
    low = hedging.call_price_closed_form(1.0, 1.0, 0.0, 1e-4, 2.0)
    assert low == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(InvalidArgumentError):
        hedging.call_price_closed_form(-1.0, 1.0, 0.0, 0.2, 1.0)
    with pytest.raises(InvalidArgumentError):
        hedging.call_price_closed_form(1.0, 1.0, 0.0, 0.2, 0.0)


def test_hedge_price_matches_lognormal_benchmark():
    model = markets.constant_market(b=[0.12, 0.05], sigma=np.diag([0.25, 0.30]),
                                    x0=[1.0, 1.0], r=0.03)
    grid = paths.make_grid(2.0, 8)
    f = paths.generate_factors(grid, 2, 20_000, master_seed=5)
    metrics, info, checks, tables = hedging.hedge_price(model, f, 1.0, 0)
    expect = 0.16728424634840483
    assert abs(metrics["price"] - expect) < 3.0 * metrics["se"]
    assert 0.0 < metrics["zero_fraction"] < 1.0
    assert metrics["reference"] == pytest.approx(expect, rel=1e-15)
    assert checks[0].passed and tables == {}
    assert info == {"claim": "call(stock=0, strike=1)"}


def test_hedge_price_degenerate_call():
    """No noise, no risk premium: prices decay deterministically and the
    call is worth exactly its terminal intrinsic value."""
    sigma = 0.4 * np.eye(2)
    model = markets.constant_market(b=[0.0, 0.0], sigma=sigma, x0=[2.0, 0.5])
    grid = paths.make_grid(1.0, 8)
    metrics = hedging.hedge_price(model, ZeroFactors(grid, 2, 16), 0.5, 0)[0]
    assert metrics["price"] == pytest.approx(2.0 * np.exp(-0.08) - 0.5, rel=1e-12)
    assert metrics["se"] == pytest.approx(0.0, abs=1e-12)


def test_deflated_zero_payoff_prices_at_zero():
    model = _gbm_pair()
    grid = paths.make_grid(1.0, 4)
    f = paths.generate_factors(grid, 2, 50, master_seed=6)
    vals = hedging._deflated_payoffs(model, f, lambda lx: np.zeros(lx.shape[0]))
    assert checks.compensated_mean_se(vals)[0] == 0.0
    assert np.mean(vals == 0.0) == 1.0


def test_hedge_price_needs_a_constant_market():
    """The closed-form deflator holds only where theta is constant."""
    model = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3, x0=[1.0, 1.0])
    f = paths.generate_factors(paths.make_grid(1.0, 4), 2, 8, master_seed=6)
    with pytest.raises(InvalidArgumentError, match="constant market, not 'diverse'"):
        hedging.hedge_price(model, f, 1.0, 0)


def test_standard_error_survives_tiny_values():
    """Deviations around 1e-286 square to below the smallest double."""
    rng = np.random.default_rng(4)
    vals = 1e-286 * rng.lognormal(size=500)
    mean, se = checks.compensated_mean_se(vals)
    assert mean == pytest.approx(np.mean(vals), rel=1e-12)
    assert se > 0
    assert se == pytest.approx(1e-286 * np.std(vals / 1e-286, ddof=1) / np.sqrt(500),
                               rel=1e-12)


def test_standard_error_unchanged_on_ordinary_values():
    """Power-of-two scaling is exact: the plain formula's bits come back."""
    rng = np.random.default_rng(5)
    for vals in (rng.normal(size=1000), 1e3 * rng.lognormal(size=77),
                 rng.exponential(size=2), np.zeros(8)):
        mean, se = checks.compensated_mean_se(vals)
        plain = math.sqrt(math.fsum((vals - mean) ** 2) / (len(vals) - 1) / len(vals))
        assert se == plain


# ---------------------------------------------------------------------------
# long-horizon decay
# ---------------------------------------------------------------------------

def test_decay_envelope_frozen_value():
    got = hedging.decay_envelope(2.0, 2, 0.5, 1.0, 0.1, 60.0)
    assert got == pytest.approx(0.8925206405937193, rel=1e-15)
    # tighter barrier, faster decay; longer horizon, smaller bound
    assert hedging.decay_envelope(2.0, 2, 0.5, 1.0, 0.2, 60.0) < got
    assert hedging.decay_envelope(2.0, 2, 0.5, 1.0, 0.1, 120.0) < got
    with pytest.raises(InvalidArgumentError):
        hedging.decay_envelope(2.0, 2, 1.5, 1.0, 0.1, 60.0)


def _ladder(horizon, steps_per_unit, n_paths, seed):
    """Factors of a two-stock call ladder out to ``horizon``."""
    grid = paths.make_grid(horizon, int(round(horizon * steps_per_unit)))
    return paths.generate_factors(grid, 2, n_paths, seed)


def test_call_decay_study_needs_positive_rate_and_barrier():
    diverse = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3,
                                     x0=[1.0, 1.0])
    f = _ladder(2.0, 10, 50, 0)
    with pytest.raises(InvalidArgumentError):
        hedging.call_decay_study(diverse, f, 1.0, (1.0, 2.0), 0.5, 0)
    plain = markets.constant_market(b=[0.0, 0.0], sigma=np.eye(2),
                                    x0=[1.0, 1.0], r=0.03)
    with pytest.raises(InvalidArgumentError):
        hedging.call_decay_study(plain, f, 1.0, (1.0, 2.0), 0.5, 0)
    # the patched market's drift may never switch on, so tau is not its
    # first hit of the barrier
    base = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.1,
                                  x0=[1.0, 1.0], r=0.03)
    patched = markets.patched_weakly_diverse(base, eta=0.3, horizon=2.0)
    with pytest.raises(InvalidArgumentError, match="diverse market kind"):
        hedging.call_decay_study(patched, f, 1.0, (1.0, 2.0), 0.5, 0)


def test_call_decay_rejects_off_grid_horizons():
    model = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3,
                                   x0=[1.0, 1.0], r=0.03)
    with pytest.raises(InvalidArgumentError, match="horizon 1.05"):
        hedging.call_decay_study(model, _ladder(2.0, 10, 50, 0), 1.0, (1.0, 1.05), 0.5, 0)
    with pytest.raises(InvalidArgumentError, match="horizon 3 lies past the grid's horizon 2"):
        hedging.call_decay_study(model, _ladder(2.0, 10, 50, 0), 1.0, (1.0, 3.0), 0.5, 0)
    assert hedging.ladder_steps((0.1, 0.7, 3.0), 10) == [1, 7, 30]


def test_call_decay_without_knock_out_is_the_lognormal_price():
    """With the barrier out of reach every rung is the lognormal call price
    at rate r, and no path is knocked out."""
    rate, vol = 0.03, 0.25
    model = markets.diverse_market(vol * np.eye(2), g=0.0, delta=0.01,
                                   x0=[1.0, 1.0], r=rate)
    _, info, _, tables = hedging.call_decay_study(model, _ladder(1.0, 20, 4_000, 12), 1.1,
                                                  (0.5, 1.0), 0.5, 0)
    table = tables["table"]
    for t, price, se, (at_dt, at_2dt) in zip(table["T"], table["h_hat"], table["stderr"],
                                             info["monitoring_pair"]):
        ref = hedging.call_price_closed_form(1.0, 1.1, rate, vol, t)
        assert abs(price - ref) <= 3.0 * se, (t, price, ref)
        assert at_2dt == at_dt == price
    assert info["knocked_out"] == [0, 0]


def test_call_decay_rows_carry_envelopes():
    model = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3,
                                   x0=[1.0, 1.0], r=0.03)
    metrics, _, _, tables = hedging.call_decay_study(model, _ladder(2.0, 20, 200, 7), 1.0,
                                                     (1.0, 2.0), 0.5, 0)
    assert metrics["strike"] == 1.0
    assert metrics["n_horizons"] == 2
    call, stock = tables["table"], tables["stock"]
    assert call["T"].tolist() == stock["T"].tolist() == [1.0, 2.0]
    assert np.all(call["h_hat"] >= 0.0)
    assert np.all(stock["envelope"] > 0.0)
    assert np.all(stock["deflated_stock"]
                  <= stock["envelope"] + 3.0 * np.maximum(stock["stderr"], 1e-12))


# ---------------------------------------------------------------------------
# deflated-claim parity probes
# ---------------------------------------------------------------------------

def test_parity_witness_requires_zero_rate():
    model = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3,
                                   x0=[1.0, 1.0], r=0.03)
    f = paths.generate_factors(paths.make_grid(1.0, 10), 2, 4, master_seed=0)
    with pytest.raises(InvalidArgumentError):
        hedging.parity_gap_study(model, f, 2.0, 1.1, 0, 1)


def test_parity_witness_reports_finite_statistics():
    model = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3,
                                   x0=[1.0, 1.0])
    f = paths.generate_factors(paths.make_grid(2.0, 200), 2, 2_000, master_seed=11)
    m, info, _, _ = hedging.parity_gap_study(model, f, 2.0, 1.1, 0, 1)
    assert m["control_expected"] == 0.0
    assert m["h1"] > 0.0
    assert np.isfinite(m["gap"])
    assert m["gap_se"] > 0.0
    assert m["gap"] == pytest.approx(m["h1"] - m["h2"], rel=1e-12)
    # monitoring every other grid point knocks out fewer paths
    assert 0 < info["knocked_out"] < 2_000
    h1, h1_2dt = info["monitoring_pair"]
    assert m["h1"] == h1 <= h1_2dt <= 1.0 + 3.0 * m["h1_se"]


def test_parity_witness_matches_the_whole_path_values(monkeypatch):
    """The witness read chunk by chunk, with the mirror's relative log value
    carried across chunks of an odd length, gives h1 and h2 bit for bit as
    read off whole paths: Z_mu(T) and Z_mu(T) exp(log(Z_pi / Z_mu)(T)) over
    the paths alive at T."""
    monkeypatch.setattr(markets, "_CHUNK_STEPS", 37)
    model = markets.diverse_market(0.5 * np.eye(3), g=0.0, delta=0.3, x0=[1.0, 1.2, 0.9])
    f = paths.generate_factors(paths.make_grid(3.0, 300), 3, 60, master_seed=5)
    metrics = hedging.parity_gap_study(model, f, 2.0, 1.1, 0, 1)[0]
    h1_vals, h2_vals = whole_path_parity_witness(model, f, 2.0)
    assert 0 < np.count_nonzero(h1_vals) < f.n_paths
    assert metrics["h1"] == checks.compensated_mean_se(h1_vals)[0]
    assert metrics["h2"] == checks.compensated_mean_se(h2_vals)[0]


# ---------------------------------------------------------------------------
# stock indices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [5, 2, -1, 1.0])
def test_studies_reject_bad_arguments_before_simulating(monkeypatch, bad):
    """Every argument out of its range raises ``InvalidArgumentError`` in its
    study before any factor is drawn: a stock index outside 0..n-1 or not an
    integer, a strike at or below 0, a p_bound outside (0, 1) (every ``bad``
    value is), equal control stocks, a parity witness on a market without
    the barrier or on a geometric grid, a mirror margin or exponent not above
    1, a refinement below 2, a diversity delta outside (0, 1), a tail
    fraction outside (0, 1], and a dominance floor outside [0, 1]."""
    whole, chunked = count_draws(monkeypatch)
    gbm = markets.constant_market(b=[0.1, 0.0], sigma=0.3 * np.eye(2), x0=[1.0, 0.8])
    diverse = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3, x0=[1.0, 1.0])
    rated = markets.diverse_market(0.25 * np.eye(2), g=0.0, delta=0.3, x0=[1.0, 1.0],
                                   r=0.03)
    dominance = markets.instantaneous_dominance_market(alpha=0.25)
    f = paths.generate_factors(paths.make_grid(1.0, 10), 2, 4, master_seed=1)
    geometric = paths.generate_factors(paths.geometric_grid(1.0, 10, 1e-3), 2, 4,
                                       master_seed=1)
    runs = [
        (lambda: hedging.hedge_price(gbm, f, 1.0, bad), "index .* 2-stock market"),
        (lambda: hedging.call_decay_study(rated, f, 1.0, (0.5, 1.0), 0.5, bad),
         "index .* 2-stock market"),
        (lambda: ranks.local_time_study(gbm, f, bad), "index .* 2-stock market"),
        (lambda: hedging.parity_gap_study(diverse, f, 2.0, 1.1, bad, 1),
         "control_i .* 2-stock market"),
        (lambda: hedging.parity_gap_study(diverse, f, 2.0, 1.1, 0, bad),
         "control_j .* 2-stock market"),
        (lambda: hedging.hedge_price(gbm, f, 0.0, 0), "strike must be positive"),
        (lambda: hedging.call_decay_study(rated, f, 0.0, (0.5, 1.0), 0.5, 0),
         "strike 0.0 must be positive"),
        (lambda: hedging.call_decay_study(rated, f, 1.0, (0.5, 1.0), bad, 0),
         r"p must lie in \(0, 1\)"),
        (lambda: hedging.parity_gap_study(diverse, f, 2.0, 1.1, 1, 1),
         "control_j 1 must differ from control_i"),
        (lambda: hedging.parity_gap_study(gbm, f, None, 1.1, 0, 1),
         "diverse market kind, not 'constant'"),
        (lambda: hedging.parity_gap_study(diverse, geometric, 2.0, 1.1, 0, 1),
         "the parity witness needs a uniform grid"),
        (lambda: hedging.parity_gap_study(diverse, f, None, 0.5, 0, 1),
         "margin 0.5 must exceed 1"),
        (lambda: hedging.parity_gap_study(diverse, f, 0.5, 1.1, 0, 1),
         "mirror exponent must exceed 1"),
        (lambda: arbitrage.mirror_study(diverse, f, None, 0.5), "margin 0.5 must exceed 1"),
        (lambda: arbitrage.master_formula_order_study(gbm, f, 0.5, 1),
         "refine 1 must be at least 2"),
        (lambda: diversity.diversity_study(diverse, f, 1.5, 0.25),
         r"delta 1.5 must lie in \(0, 1\)"),
        (lambda: diversity.diversity_study(diverse, f, 0.3, 0.0),
         r"tail_fraction 0.0 must lie in \(0, 1\]"),
        (lambda: diversity.diversity_study(diverse, f, 0.3, 2.0),
         r"tail_fraction 2.0 must lie in \(0, 1\]"),
        (lambda: arbitrage.dominance_study(dominance, f, 1.5),
         r"min_fraction 1.5 must lie in \[0, 1\]"),
    ]
    for call, match in runs:
        with pytest.raises(InvalidArgumentError, match=match):
            call()
    assert not whole and not chunked
