"""Pathwise comparison studies: thresholds, decompositions, mirrors, dominance."""

import tracemalloc

import numpy as np
import pytest

from spt_lab import arbitrage, markets, paths, portfolios
from spt_lab.errors import InvalidArgumentError
from helpers import (CoarsenedFactors, ZeroFactors, count_draws, force_batch_size,
                     walk_record)


def _diverse_pair(delta=0.3, x0=(1.0, 1.0)):
    return markets.diverse_market(np.eye(2), g=0.0, delta=delta, x0=list(x0))


def _pair_walk_in_chunks(monkeypatch, chunk_steps):
    """Walk in chunks of ``chunk_steps`` and batches of 4, with
    ``run_batches`` made to fail, and count every draw.  Returns the draw
    counters (``count_draws``) and the list every walk's result is
    appended to."""
    monkeypatch.setattr(markets, "_CHUNK_STEPS", chunk_steps)
    force_batch_size(monkeypatch, 4)

    def no_whole_batches(*args, **kwargs):
        raise AssertionError("ran whole batches")

    monkeypatch.setattr(markets, "run_batches", no_whole_batches)
    walked, walk = [], markets.walk

    def recorded(*args, **kwargs):
        walked.append(walk(*args, **kwargs))
        return walked[-1]

    monkeypatch.setattr(markets, "walk", recorded)
    return (*count_draws(monkeypatch), walked)


def _whole_master(model, source, p):
    """The master formula's per-path columns on whole paths of ``source``:
    one ``simulate_block`` and numpy's sums over whole rows."""
    lx, aux = markets.simulate_block(model, source, 0, source.n_paths)
    mu = portfolios.market_weights(lx)
    pi = portfolios.diversity_weighted(mu, p)
    lhs = (portfolios.gross_log_value(pi, lx) - portfolios.gross_log_value(mu, lx))[:, -1]
    dterm = (1.0 / p) * (np.log(np.sum(mu[:, -1] ** p, axis=1))
                         - np.log(np.sum(mu[:, 0] ** p, axis=1)))
    dlm = np.diff(np.log(mu), axis=1)
    m1 = np.sum(pi[:, :-1] * dlm, axis=2)
    realized = np.sum(0.5 * (np.sum(pi[:, :-1] * dlm * dlm, axis=2) - m1 * m1), axis=1)
    growth = np.sum(portfolios.excess_growth(pi[:, :-1], model.vol.a)
                    * source.grid.step_sizes, axis=1)
    return {
        "lhs": lhs,
        "rhs": dterm + (1.0 - p) * realized,
        "rhs_model_cov": dterm + (1.0 - p) * growth,
        "floor_margin": dterm + (1.0 - p) / p * np.log(model.n),
        "capped_steps": aux["capped_steps"],
    }


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_threshold_horizon_closed_form():
    assert arbitrage.threshold_horizon(2, 0.5, 1.0, 0.1) == pytest.approx(
        27.72588722239781, rel=1e-14)
    assert arbitrage.threshold_horizon(3, 0.5, 1.0, 0.3) == pytest.approx(
        14.648163848908132, rel=1e-14)
    # more stocks push the horizon out; more margin pulls it in
    assert arbitrage.threshold_horizon(5, 0.5, 1.0, 0.1) > 27.7
    assert arbitrage.threshold_horizon(2, 0.9, 1.0, 0.1) < 27.7
    assert arbitrage.threshold_horizon(2, 0.5, 2.0, 0.1) < 27.7
    with pytest.raises(InvalidArgumentError):
        arbitrage.threshold_horizon(1, 0.5, 1.0, 0.1)
    with pytest.raises(InvalidArgumentError):
        arbitrage.threshold_horizon(2, 1.0, 1.0, 0.1)


def test_mirror_exponent_closed_form():
    assert arbitrage.mirror_exponent(1.0, 0.1, 1.0, 0.5) == pytest.approx(
        139.62943611198904, rel=1e-14)
    # longer horizons need less leverage, never less than one
    assert arbitrage.mirror_exponent(1.0, 0.1, 100.0, 0.5) < 3.0
    assert arbitrage.mirror_exponent(1.0, 0.1, 1e9, 0.5) > 1.0
    with pytest.raises(InvalidArgumentError):
        arbitrage.mirror_exponent(0.0, 0.1, 1.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        arbitrage.mirror_exponent(1.0, 0.1, 1.0, 1.0)


# ---------------------------------------------------------------------------
# wealth-ratio decomposition
# ---------------------------------------------------------------------------

def test_master_decomposition_degenerate_market():
    """Frozen prices: both sides of the decomposition vanish identically."""
    sigma = 0.5 * np.eye(3)
    model = markets.constant_market(b=0.5 * np.diag(sigma @ sigma.T), sigma=sigma,
                                    x0=[1.0, 2.0, 1.5])
    grid = paths.make_grid(1.0, 16)
    out = arbitrage.master_formula_check(model, ZeroFactors(grid, 3, 4), 0.5)
    np.testing.assert_array_equal(out["lhs"], np.zeros(4))
    np.testing.assert_array_equal(out["rhs"], np.zeros(4))
    assert out["max_abs_residual"] == 0.0
    # measure term floor: log n of headroom when nothing moves
    assert out["floor_margin_min"] == pytest.approx(np.log(3.0), rel=1e-12)


def test_master_decomposition_tracks_simulated_paths(monkeypatch):
    sigma = np.array([[0.3, 0.05, 0.0], [0.05, 0.25, 0.0], [0.0, 0.05, 0.35]])
    model = markets.constant_market(b=[0.05, 0.0, 0.08], sigma=sigma,
                                    x0=[1.0, 1.4, 0.8])
    grid = paths.make_grid(1.0, 500)
    f = paths.generate_factors(grid, 3, 64, master_seed=101)
    force_batch_size(monkeypatch, 32)
    out = arbitrage.master_formula_check(model, f, 0.5)
    assert out["lhs"].shape == (64,)
    assert out["max_abs_residual"] < 1e-3
    assert out["mean_abs_residual"] <= out["max_abs_residual"]
    assert out["floor_margin_min"] >= 0.0
    # the model-covariance quadrature is a rougher diagnostic
    assert out["max_abs_residual_model_cov"] > out["max_abs_residual"]


def test_master_decomposition_first_order_in_the_step():
    model = markets.constant_market(b=[0.04, 0.0], sigma=0.3 * np.eye(2) + 0.05,
                                    x0=[1.0, 1.2])
    fine = paths.generate_factors(paths.make_grid(1.0, 400), 2, 256, master_seed=71)
    metrics, info, _, tables = arbitrage.master_formula_order_study(model, fine, 0.5, refine=2)
    residual_fine = metrics["mean_abs_residual_fine"]
    residual_coarse = metrics["mean_abs_residual_coarse"]
    coarse = _whole_master(model, CoarsenedFactors(fine, 2), 0.5)
    assert np.abs(coarse["lhs"] - coarse["rhs"]).mean() == residual_coarse
    assert tables["per_path"]["lhs"].shape == coarse["lhs"].shape == (256,)
    assert residual_fine < residual_coarse
    assert metrics["ratio"] == residual_coarse / residual_fine
    assert metrics["order"] >= 0.7


@pytest.mark.parametrize("refine,chunks", [(2, 37), (3, 37), (2, 1)],
                         ids=["f2", "f3", "f2-one-coarse-step"])
def test_master_order_pair_matches_the_whole_paths(monkeypatch, refine, chunks):
    """The order study walks one pair in chunks of ``chunks`` coarse steps
    (the last one a single coarse step) and batches of 4, drawing every
    (path, step) once, in time chunks.  Every per-path column of both grids
    equals, bit for bit, the master formula on whole paths: on the fine
    grid's, and on the coarse grid of ``CoarsenedFactors``, which sums each
    whole path's increments ``refine`` at a time."""
    whole, chunked, walked = _pair_walk_in_chunks(monkeypatch, chunks * refine)
    model = markets.diverse_market(np.eye(3), g=0.0, delta=0.3, x0=[1.0, 2.0, 3.0],
                                   step_cap=0.01)
    f = paths.generate_factors(paths.make_grid(2.0, refine * 149), 3, 6, 29)
    with markets.recording_walks() as walks:
        metrics, info, _, tables = arbitrage.master_formula_order_study(model, f, 0.5, refine)
    assert walks == [walk_record(4, chunks * refine, refine)]
    assert not whole
    assert chunked == {(i, k): 1 for i in range(6) for k in range(f.grid.n_steps)}

    (got_fine, got_coarse), = walked
    fine, coarse = (_whole_master(model, source, 0.5)
                    for source in (f, CoarsenedFactors(f, refine)))
    assert fine["capped_steps"].any() and coarse["capped_steps"].any()
    for got, want in ((got_fine, fine), (got_coarse, coarse)):
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    per_path = tables["per_path"]
    np.testing.assert_array_equal(per_path["lhs"], fine["lhs"])
    np.testing.assert_array_equal(per_path["residual"], fine["lhs"] - fine["rhs"])
    np.testing.assert_array_equal(per_path["residual_model_cov"],
                                  fine["lhs"] - fine["rhs_model_cov"])
    assert metrics["mean_abs_residual_coarse"] == np.abs(coarse["lhs"] - coarse["rhs"]).mean()
    assert info == {"capped_steps": fine["capped_steps"].sum(),
                    "capped_steps_coarse": coarse["capped_steps"].sum()}


# ---------------------------------------------------------------------------
# reweighted portfolio beyond its threshold horizon
# ---------------------------------------------------------------------------

def test_outperformance_beyond_threshold():
    model = _diverse_pair(delta=0.3)
    horizon = 10.0  # threshold at delta = 0.3 is about 9.24
    grid = paths.make_grid(horizon, 2_000)
    f = paths.generate_factors(grid, 2, 64, master_seed=41)
    metrics, _, checks, tables = arbitrage.outperformance_study(model, f, 0.5)
    per_path = tables["per_path"]
    assert per_path["a5_slack"].shape == (64,)
    assert metrics["fraction"] == 1.0
    assert np.all(per_path["terminal_log_ratio"] > 0.0)
    assert metrics["min_slack"] == pytest.approx(per_path["a5_slack"].min())
    assert metrics["weight_order_violations"] == 0
    assert np.all(per_path["delta_max"] <= per_path["delta_avg"] + 1e-15)
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("grid", [
    paths.make_grid(1.0, markets._CHUNK_STEPS // 2),            # inside one chunk
    paths.make_grid(2.0, 2 * markets._CHUNK_STEPS),             # whole chunks
    paths.geometric_grid(3.0, 2 * markets._CHUNK_STEPS + 37, 1e-3),  # ragged tail
    paths.make_grid(2.0, 2 * markets._CHUNK_STEPS + 1),         # a one-step last chunk
], ids=["short", "whole", "ragged", "one-step-tail"])
def test_outperformance_chunks_match_the_whole_path(grid):
    """The reduction of the walk's time chunks equals, bit for bit, the same
    terms computed over whole paths, and so do the capped steps."""
    model = markets.diverse_market(np.eye(3), g=0.0, delta=0.3, x0=[1.0, 2.0, 3.0])
    p, eps, dt, horizon = 0.5, model.vol.eps, grid.step_sizes, grid.horizon
    f = paths.generate_factors(grid, 3, 6, 17)
    lx, aux = markets.simulate_block(model, f, 0, 6)
    got = arbitrage._outperformance_terms(model, f, p)

    mu = portfolios.market_weights(lx)
    pi = portfolios.diversity_weighted(mu, p)
    term = (portfolios.gross_log_value(pi, lx) - portfolios.gross_log_value(mu, lx))[:, -1]
    top = mu.max(axis=2)
    d = 1.0 - np.sum(top[:, :-1] * dt, axis=1) / horizon
    bound = (1.0 - p) * (eps * d * horizon / 2.0 - np.log(3) / p)
    ok = (pi.max(axis=2) <= top + 1e-12) & (pi.min(axis=2) >= mu.min(axis=2) - 1e-12)
    want = {
        "term": term,
        "slack": term - bound,
        "delta_avg": d,
        "delta_max": 1.0 - top.max(axis=1),
        "order_viol": np.sum(~ok, axis=1),
        "capped_steps": aux["capped_steps"],
    }
    assert set(got) == set(want)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_outperformance_study_holds_no_whole_path_buffer():
    """The study walks its batch in time chunks: its traced peak stays under
    one batch's whole (B, K+1, n) log-price buffer."""
    model = markets.diverse_market(np.eye(3), g=0.0, delta=0.3, x0=[1.0, 2.0, 3.0])
    factors = paths.generate_factors(paths.make_grid(4.0, 4000), 3, 64, master_seed=5)
    whole_bytes = 64 * 4001 * 3 * 8
    arbitrage.outperformance_study(  # one-time imports and caches
        model, paths.generate_factors(paths.make_grid(1.0, 300), 3, 2, master_seed=5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        arbitrage.outperformance_study(model, factors)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < whole_bytes, peak / whole_bytes


def test_outperformance_slack_grows_with_horizon():
    model = _diverse_pair(delta=0.3)
    slacks = []
    for t in (10.0, 12.0, 14.0):
        grid = paths.make_grid(t, int(round(100 * t)))
        factors = paths.generate_factors(grid, model.m, 32, master_seed=5)
        slacks.append(arbitrage.outperformance_study(model, factors, 0.5)[0]["min_slack"])
    assert len(slacks) == 3
    assert slacks == sorted(slacks)
    assert slacks[0] > 0.0


# ---------------------------------------------------------------------------
# short-the-leader mirror and its all-long wraps
# ---------------------------------------------------------------------------

def test_mirror_underperforms_with_enough_leverage():
    model = _diverse_pair(delta=0.3)
    grid = paths.make_grid(6.0, 1_200)
    f = paths.generate_factors(grid, 2, 64, master_seed=19)
    m, _, _, tables = arbitrage.mirror_study(model, f, None, 1.1)
    assert m["p"] == pytest.approx(1.1 * m["p_threshold"])
    assert m["fraction_under"] == 1.0
    assert np.all(tables["per_path"]["terminal_log_ratio"] < 0.0)
    # the wraps stay fully invested on the long side
    assert m["underperformer_weight_margin_min"] >= -1e-12
    assert m["outperformer_weight_margin_min"] >= -1e-12
    assert m["underperformer_fraction"] == 1.0
    assert m["outperformer_fraction"] == 1.0
    assert 0.0 <= m["hypothesis_fraction"] <= 1.0
    assert m["tau_integral_min"] >= 0.0


@pytest.mark.parametrize("grid", [
    paths.make_grid(6.0, 2 * 37 + 1),                 # a one-step last chunk
    paths.geometric_grid(6.0, 16 * 37 + 8, 1e-3),     # ragged, past one pairwise leaf
], ids=["one-step-tail", "ragged"])
def test_mirror_chunks_match_the_whole_path(monkeypatch, grid):
    """The mirror study walks 37-step chunks in batches of 4 and never runs
    whole batches; every per-path column equals, bit for bit, the same terms
    computed over whole paths: the relative log value, the einsum relative
    variance and the master formula at exponent 1/2."""
    monkeypatch.setattr(markets, "_CHUNK_STEPS", 37)
    force_batch_size(monkeypatch, 4)

    def no_whole_batches(*args, **kwargs):
        raise AssertionError("mirror_study ran whole batches")

    monkeypatch.setattr(markets, "run_batches", no_whole_batches)
    model = markets.diverse_market(np.eye(3), g=0.0, delta=0.3, x0=[1.0, 2.0, 3.0])
    f = paths.generate_factors(grid, 3, 6, 29)
    times, dt, a = grid.times, grid.step_sizes, model.vol.a
    beta = 0.5  # the top weight of x0
    p = arbitrage.mirror_p(model, grid.horizon, None, 1.1)
    with markets.recording_walks() as walks:
        got = arbitrage._mirror_terms(model, f, p, beta)
    assert walks == [walk_record(4, 37, 1)]

    lx, aux = markets.simulate_block(model, f, 0, 6)
    e1 = np.array([1.0, 0.0, 0.0])
    mu = portfolios.market_weights(lx)
    lr = portfolios.relative_log_value(portfolios.mirror_weights(e1, mu, p), lx, times, a)
    mu1 = mu[..., 0]
    lead = np.log(mu1) - np.log(mu1[:, :1])
    diff = e1 - mu[:, :-1, :]
    tau = np.einsum("bki,ij,bkj->bk", diff, a, diff)
    ratio = np.exp(lr)
    # the master formula at exponent 1/2 on whole paths
    pi = portfolios.diversity_weighted(mu, 0.5)
    lhs = (portfolios.gross_log_value(pi, lx) - portfolios.gross_log_value(mu, lx))[:, -1]
    dterm = 2.0 * (np.log(np.sum(mu[:, -1] ** 0.5, axis=1))
                   - np.log(np.sum(mu[:, 0] ** 0.5, axis=1)))
    dlm = np.diff(np.log(mu), axis=1)
    m1 = np.sum(pi[:, :-1] * dlm, axis=2)
    realized = np.sum(0.5 * (np.sum(pi[:, :-1] * dlm * dlm, axis=2) - m1 * m1), axis=1)
    want = {
        "term": lr[:, -1],
        "ceil_gap_max": np.max(lr - p * lead, axis=1),
        "tau_int": np.sum(tau * dt, axis=1),
        "base_term_ratio": mu1[:, -1] / mu1[:, 0],
        "wrap82_margin": np.min((p - 1.0) / beta**p - (p - 1.0) * ratio, axis=1),
        "wrap83_margin": np.min((p / beta**p) * mu1 - (p - (p - 1.0) * mu1) * ratio, axis=1),
        "master_residual": lhs - (dterm + 0.5 * realized),
        "capped_steps": aux["capped_steps"],
    }
    assert set(got) == set(want)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_mirror_study_holds_no_whole_path_buffer():
    """The mirror study walks its batches in time chunks: its traced peak
    stays under one batch's whole (B, K+1, n) log-price buffer."""
    model = markets.diverse_market(np.eye(3), g=0.0, delta=0.3, x0=[1.0, 2.0, 3.0])
    factors = paths.generate_factors(paths.make_grid(4.0, 4000), 3, 64, master_seed=5)
    whole_bytes = 64 * 4001 * 3 * 8
    arbitrage.mirror_study(  # one-time imports and caches
        model, paths.generate_factors(paths.make_grid(1.0, 300), 3, 2, master_seed=5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        arbitrage.mirror_study(model, factors)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < whole_bytes, peak / whole_bytes


def test_mirror_wrap_starting_capitals():
    """Even split, exponent 3: capital 17 drowns the mirror, 23 shorts it."""
    model = _diverse_pair(delta=0.3)
    grid = paths.make_grid(1.0, 100)
    f = paths.generate_factors(grid, 2, 16, master_seed=3)
    metrics = arbitrage.mirror_study(model, f, p=3.0, margin=1.1)[0]
    assert metrics["underperformer_capital"] == pytest.approx(17.0, rel=1e-12)
    assert metrics["outperformer_capital"] == pytest.approx(23.0, rel=1e-12)


def test_mirror_study_rejects_other_models():
    model = markets.constant_market(b=[0.0, 0.0], sigma=np.eye(2), x0=[1.0, 1.0])
    grid = paths.make_grid(1.0, 10)
    f = paths.generate_factors(grid, 2, 2, master_seed=0)
    with pytest.raises(InvalidArgumentError):
        arbitrage.mirror_study(model, f, None, 1.1)


# ---------------------------------------------------------------------------
# early-lead dominance
# ---------------------------------------------------------------------------

def test_dominance_holds_at_every_grid_time():
    model = markets.instantaneous_dominance_market(alpha=0.25)
    grid = paths.geometric_grid(1.0, 1_024, 1e-8)
    f = paths.generate_factors(grid, 2, 128, master_seed=67)
    m, _, _, tables = arbitrage.dominance_study(model, f, 0.99)
    per_path = tables["per_path"]
    assert per_path["path_id"].tolist() == list(range(128))
    assert m["fraction"] == 1.0
    assert m["worst_lead"] == pytest.approx(per_path["min_lead"].min())
    assert m["worst_lead"] > 0.0
    assert np.all(per_path["switch_index"] >= 1)
    assert 0.0 <= m["switch_found_fraction"] <= 1.0
    assert m["confinement_breaches"] >= 0
    assert np.all(per_path["exit_index"] >= -1)


def test_dominance_survives_refinement():
    model = markets.instantaneous_dominance_market(alpha=0.25)
    fine = paths.generate_factors(paths.geometric_grid(1.0, 1_024, 1e-8), model.m,
                                  128, master_seed=67)
    metrics, _, checks, _ = arbitrage.dominance_study(model, fine, 0.99)
    by_label = {c.label: c for c in checks}
    assert by_label["the leading fraction does not fall under refinement"].passed
    assert metrics["fraction"] == 1.0
    assert metrics["worst_lead"] > 0.0
    assert metrics["confinement_breaches"] >= 0
    assert by_label["confinement breaches do not grow under refinement"].passed


def _whole_dominance(model, source):
    """The early-lead strategy's per-path columns on whole paths of
    ``source``: one ``simulate_block``, then the lead's running minimum and
    the breach count over every grid point at once."""
    lx, aux = markets.simulate_block(model, source, 0, source.n_paths)
    k_steps, eta = source.grid.n_steps, model.params["eta"]
    barrier = 0.5 * np.power(source.grid.times[1:], model.params["alpha"])
    y = lx[..., 1] - lx[..., 0]
    hit = y[:, 1:] <= barrier[None, :]
    t2 = np.where(hit.any(axis=1), np.argmax(hit, axis=1) + 1, k_steps)
    t1 = aux["exit_index"]
    handback = np.minimum(t2, np.where(t1 >= 0, np.maximum(t1, 1), k_steps))
    runmin = np.minimum.accumulate(y[:, 1:], axis=1)
    after_exit = np.arange(1, k_steps + 1)[None, :] > np.where(t1 >= 0, t1, k_steps)[:, None]
    return {
        "min_lead": runmin[np.arange(y.shape[0]), handback - 1],
        "switch_index": handback,
        "exit_index": t1,
        "breaches": np.sum(after_exit & (np.abs(y[:, 1:]) >= eta), axis=1),
        "capped_steps": aux["capped_steps"],
    }


@pytest.mark.parametrize("chunks", [37, 1], ids=["chunks-of-37", "one-coarse-step"])
def test_dominance_pair_matches_the_whole_paths(monkeypatch, chunks):
    """The dominance study walks one pair (refinement 2) in chunks of
    ``chunks`` coarse steps and batches of 4, drawing every (path, step)
    once, in time chunks.  Every per-path column of both grids equals, bit
    for bit, the strategy read off whole paths; with one coarse step per
    chunk every exit lands on a chunk's first point."""
    whole, chunked, walked = _pair_walk_in_chunks(monkeypatch, 2 * chunks)
    model = markets.instantaneous_dominance_market(alpha=0.25, step_cap=0.05)
    f = paths.generate_factors(paths.geometric_grid(1.0, 2 * 149, 1e-8), 2, 24, 67)
    with markets.recording_walks() as walks:
        metrics, _, checks, tables = arbitrage.dominance_study(model, f, 0.5)
    assert walks == [walk_record(4, 2 * chunks, 2)]
    assert not whole
    assert chunked == {(i, k): 1 for i in range(24) for k in range(f.grid.n_steps)}

    (got_fine, got_coarse), = walked
    fine, coarse = (_whole_dominance(model, source) for source in (f, CoarsenedFactors(f, 2)))
    for want in (fine, coarse):
        # the handback falls both on the barrier and at the exit
        assert 0 < np.sum(want["switch_index"] == np.maximum(want["exit_index"], 1)) < 24
        assert want["capped_steps"].any()
    assert fine["breaches"].any() or coarse["breaches"].any()
    for got, want in ((got_fine, fine), (got_coarse, coarse)):
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    for key in ("min_lead", "switch_index", "exit_index"):
        np.testing.assert_array_equal(tables["per_path"][key], fine[key], err_msg=key)
    assert metrics["confinement_breaches"] == fine["breaches"].sum()
    assert f"coarse={np.mean(coarse['min_lead'] > 0.0):g}" in checks[1].detail
    assert f"coarse={coarse['breaches'].sum()}" in checks[2].detail


def test_dominance_study_rejects_other_models():
    model = _diverse_pair()
    grid = paths.geometric_grid(1.0, 64, 1e-6)
    f = paths.generate_factors(grid, 2, 2, master_seed=0)
    with pytest.raises(InvalidArgumentError):
        arbitrage.dominance_study(model, f, 0.99)
