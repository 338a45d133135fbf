"""Model factories, ellipticity certificates, and the log-space integrator."""

import tracemalloc

import numpy as np
import pytest

import loop_kernels
from spt_lab import _kernels, markets, paths, portfolios
from spt_lab.errors import IntegrationFailureError, InvalidArgumentError, InvalidModelError
from helpers import ZeroFactors, kernel_cases


def _one_path(model, grid, seed=0):
    """Log prices (K+1, n), integration records and factor increments of one path."""
    f = paths.generate_factors(grid, model.m, 1, master_seed=seed)
    lx, aux = markets.simulate_block(model, f, 0, 1)
    return lx[0], {key: value[0] for key, value in aux.items()}, f.block(0, 1)[0]


# ---------------------------------------------------------------------------
# certificates and validation
# ---------------------------------------------------------------------------

def test_dispersion_certificate_identity_matrix():
    d = markets.Dispersion(np.eye(2))
    assert d.eps == 1.0
    assert d.big_m == 1.0
    np.testing.assert_array_equal(d.a, np.eye(2))


def test_dispersion_certificate_brackets_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = rng.normal(size=(3, 4)) + 2.0 * np.eye(3, 4)
        d = markets.Dispersion(s)
        w = np.linalg.eigvalsh(s @ s.T)
        assert d.eps == pytest.approx(w[0], rel=1e-12)
        assert d.big_m == pytest.approx(w[-1], rel=1e-12)


def test_dispersion_rejects_degenerate_volatility():
    with pytest.raises(InvalidModelError):
        markets.Dispersion(np.array([[1.0, 0.0], [1.0, 0.0]]))  # rank one
    with pytest.raises(InvalidModelError):
        markets.Dispersion(np.array([[1.0], [1.0]]))            # fewer factors than stocks
    with pytest.raises(InvalidModelError):
        markets.Dispersion(np.zeros((2, 2)))


def test_model_validation():
    with pytest.raises(InvalidModelError):
        markets.constant_market(b=[0.0, 0.0], sigma=np.eye(2), x0=[1.0, -1.0])
    with pytest.raises(InvalidModelError):
        markets.constant_market(b=[0.0, 0.0], sigma=np.eye(2), x0=[1.0, 1.0, 1.0])
    with pytest.raises(InvalidModelError):
        markets.constant_market(b=[0.0, 0.0], sigma=np.eye(2), x0=[1.0, 1.0], r=np.inf)


def test_diverse_market_rejects_bad_start_and_scale():
    # initial top weight already beyond the barrier
    with pytest.raises(InvalidModelError):
        markets.diverse_market(np.eye(3), g=0.0, delta=0.3, x0=[10.0, 1.0, 1.0])
    # declared drift scale below the certificate upper bound
    with pytest.raises(InvalidModelError):
        markets.diverse_market(np.eye(2), g=0.0, delta=0.3, x0=[1.0, 1.0], big_m=0.5)
    with pytest.raises(InvalidModelError):
        markets.diverse_market(np.eye(2), g=0.0, delta=1.5, x0=[1.0, 1.0])


# ---------------------------------------------------------------------------
# constant coefficients
# ---------------------------------------------------------------------------

def test_zero_noise_zero_growth_freezes_prices():
    sigma = np.array([[0.3, 0.0], [0.0, 0.4]])
    b = 0.5 * np.diag(sigma @ sigma.T)
    model = markets.constant_market(b=b, sigma=sigma, x0=[2.0, 0.5])
    grid = paths.make_grid(1.0, 16)
    lx, aux = markets.simulate_block(model, ZeroFactors(grid, 2), 0, 1)
    np.testing.assert_allclose(lx[0], np.log([2.0, 0.5])[None, :] * np.ones((17, 1)),
                               rtol=0, atol=1e-14)


def test_single_stock_log_path_is_affine_in_brownian():
    """b = 0.07, vol 0.2: log X(t) = log X(0) + 0.05 t + 0.2 W(t) exactly."""
    model = markets.constant_market(b=[0.07], sigma=[[0.2]], x0=[1.5])
    grid = paths.make_grid(2.0, 64)
    lx, _, dw = _one_path(model, grid, seed=5)
    w = np.concatenate([[0.0], np.cumsum(dw[:, 0])])
    expect = np.log(1.5) + 0.05 * grid.times + 0.2 * w
    np.testing.assert_allclose(lx[:, 0], expect, rtol=0, atol=1e-12)


def test_terminal_mean_matches_rate_of_return():
    # E[X(1)] = X(0) exp(b) for geometric Brownian motion
    model = markets.constant_market(b=[0.07], sigma=[[0.2]], x0=[1.0])
    grid = paths.make_grid(1.0, 4)
    f = paths.generate_factors(grid, 1, 100_000, master_seed=17)

    def per_batch(lo, hi, lx, aux):
        return {"xt": np.exp(lx[:, -1, 0])}

    xt = markets.run_batches(model, f, per_batch, batch_size=20_000)["xt"]
    se = xt.std(ddof=1) / np.sqrt(xt.size)
    assert abs(xt.mean() - np.exp(0.07)) < 3.0 * se


def _keep_batch(lo, hi, lx, aux):
    return {"path": np.arange(lo, hi), "log_prices": lx, "terminal": lx[:, -1]}


def test_run_batches_matches_per_path_integration():
    model = markets.constant_market(b=[0.02, 0.05], sigma=np.eye(2) * 0.3,
                                    x0=[1.0, 2.0])
    grid = paths.make_grid(1.0, 8)
    f = paths.generate_factors(grid, 2, 7, master_seed=11)
    got = markets.run_batches(model, f, _keep_batch, batch_size=3)
    np.testing.assert_array_equal(got["path"], np.arange(7))
    single = np.stack([markets.simulate_block(model, f, i, i + 1)[0][0]
                       for i in range(7)])
    np.testing.assert_array_equal(got["log_prices"], single)
    np.testing.assert_array_equal(got["terminal"], single[:, -1])


def test_run_batches_stacks_per_batch_partials():
    model = markets.constant_market(b=[0.02, 0.05], sigma=np.eye(2) * 0.3,
                                    x0=[1.0, 2.0])
    f = paths.generate_factors(paths.make_grid(1.0, 8), 2, 7, master_seed=11)

    def per_batch(lo, hi, lx, aux):
        return {"sum": lx.sum(axis=0)[None], "count": [hi - lo]}

    got = markets.run_batches(model, f, per_batch, batch_size=3)
    np.testing.assert_array_equal(got["count"], [3, 3, 1])
    assert got["sum"].shape == (3, 9, 2)
    lx, _ = markets.simulate_block(model, f, 0, 7)
    np.testing.assert_allclose(got["sum"].sum(axis=0), lx.sum(axis=0),
                               rtol=1e-12, atol=1e-12)


def test_run_batches_joins_capped_steps_in_path_order():
    """Every result carries the integrator's capped-entry counts as a
    per-path column, in path order across batches; a callback that returns
    that key is rejected rather than overwritten."""
    model, f = kernel_cases()["diverse"]
    want = markets.simulate_block(model, f, 0, f.n_paths)[1]["capped_steps"]
    assert len(set(want)) > 1  # the order shows
    got = markets.run_batches(model, f, _keep_batch, batch_size=3)
    np.testing.assert_array_equal(got["capped_steps"], want)

    def colliding(lo, hi, lx, aux):
        return {"capped_steps": np.zeros(hi - lo, np.int64)}

    with pytest.raises(InvalidArgumentError, match="capped_steps"):
        markets.run_batches(model, f, colliding, batch_size=3)


def test_run_batches_copies_every_returned_view():
    """A returned view must not keep its batch's log prices alive."""
    model = markets.diverse_market(np.eye(3) * 0.5, g=0.0, delta=0.3,
                                   x0=[1.0, 1.0, 1.0])
    f = paths.generate_factors(paths.make_grid(1.0, 16), 3, 10, master_seed=6)
    seen = []

    def per_batch(lo, hi, lx, aux):
        seen.append(lx)
        return _keep_batch(lo, hi, lx, aux)

    got = markets.run_batches(model, f, per_batch, batch_size=4)
    assert len(seen) == 3
    for key, col in got.items():
        for lx in seen:
            assert not np.shares_memory(col, lx), key


def test_factor_count_mismatch_rejected():
    model = markets.constant_market(b=[0.0], sigma=[[0.2]], x0=[1.0])
    grid = paths.make_grid(1.0, 4)
    f = paths.generate_factors(grid, 2, 1, master_seed=0)
    with pytest.raises(InvalidArgumentError):
        markets.simulate_block(model, f, 0, 1)


# ---------------------------------------------------------------------------
# leader-repelled market
# ---------------------------------------------------------------------------

def test_leader_drift_value_and_tie_break():
    """Equal weights, delta = 0.25: leader drift is -M / (0.25 log 1.5)."""
    model = markets.diverse_market(np.eye(2), g=0.0, delta=0.25, x0=[1.0, 1.0])
    lx = np.zeros((1, 2, 2))
    g = markets.growth_rates_along(model, lx, np.array([0.0, 1.0]))[0]
    assert g[0, 0] == pytest.approx(-9.865213849505727, rel=1e-12)
    assert g[0, 1] == 0.0
    # on exact ties the lowest index is the leader
    assert g[1, 0] < g[1, 1]


def test_leader_drift_diverges_near_barrier():
    model = markets.diverse_market(np.eye(2), g=0.0, delta=0.25, x0=[1.0, 1.0])
    times = np.array([0.0, 1.0])
    mild = markets.growth_rates_along(model, np.zeros((1, 2, 2)), times)[0, 0, 0]
    near = np.array([[[np.log(0.7499), np.log(0.2501)]] * 2])
    steep = markets.growth_rates_along(model, near, times)[0, 0, 0]
    assert steep < 100 * mild < 0


def test_diverse_paths_respect_barrier():
    model = markets.diverse_market(np.eye(3), g=0.0, delta=0.3,
                                   x0=[1.0, 1.0, 1.0])
    grid = paths.make_grid(1.0, 1_000)
    f = paths.generate_factors(grid, 3, 24, master_seed=2)

    def per_batch(lo, hi, lx, aux):
        mx = lx.max(axis=2, keepdims=True)
        e = np.exp(lx - mx)
        return {"top": (e.max(axis=2) / e.sum(axis=2)).max(axis=1)}

    top = markets.run_batches(model, f, per_batch, batch_size=8)["top"]
    assert top.max() < 0.70 + 0.02   # barrier plus one-step slack


# ---------------------------------------------------------------------------
# mean-reverting pair
# ---------------------------------------------------------------------------

def test_spread_is_brownian_before_switch():
    model = markets.ou_two_stock(alpha=0.5, switch_time=1.0)
    grid = paths.make_grid(0.5, 50)
    lx, _, dw = _one_path(model, grid, seed=8)
    dv = dw @ model.vol.sigma.T
    z = lx[:, 1] - lx[:, 0]
    np.testing.assert_allclose(z, np.concatenate([[0.0], np.cumsum(dv[:, 1] - dv[:, 0])]),
                               rtol=0, atol=1e-12)
    # spread variance accrues at unit rate
    assert model.vol.a[0, 0] + model.vol.a[1, 1] == pytest.approx(1.0)


def test_spread_stationary_moments_after_switch():
    model = markets.ou_two_stock(alpha=0.5, switch_time=1.0)
    grid = paths.make_grid(3.0, 192)
    f = paths.generate_factors(grid, 2, 4_000, master_seed=15)

    def per_batch(lo, hi, lx, aux):
        z = lx[..., 1] - lx[..., 0]
        return {"z2": z[:, 128], "z3": z[:, 192]}

    cols = markets.run_batches(model, f, per_batch, batch_size=1_000)
    z2, z3 = cols["z2"], cols["z3"]
    assert abs(z3.mean()) < 0.06
    assert abs(z3.var() - 1.0) < 0.10
    # lag-one autocovariance of the stationary spread: exp(-alpha)
    cov = np.mean((z2 - z2.mean()) * (z3 - z3.mean()))
    assert abs(cov - np.exp(-0.5)) < 0.06


# ---------------------------------------------------------------------------
# patched model: drift off until the top weight first concentrates
# ---------------------------------------------------------------------------

def test_patched_quiet_paths_have_zero_rate_of_return():
    base = markets.diverse_market(np.eye(3), g=0.0, delta=0.1, x0=[1.0, 1.0, 1.0])
    model = markets.patched_weakly_diverse(base, eta=0.3, horizon=1.0)
    grid = paths.make_grid(1.0, 200)
    f = paths.generate_factors(grid, 3, 16, master_seed=23)
    lx, aux = markets.simulate_block(model, f, 0, 16)
    quiet = aux["trigger_time"] > 1.0
    assert quiet.any()
    dv = f.block(0, 16)[quiet] @ model.vol.sigma.T
    expect = np.cumsum(dv, axis=1) - 0.5 * grid.times[1:, None] * np.diag(model.vol.a)
    np.testing.assert_allclose(lx[quiet, 1:], expect, rtol=0, atol=1e-10)


def test_patched_average_top_weight_bound_when_trigger_is_late():
    """Paths whose trigger lands past T/2 have time-average top below 1 - eta/2."""
    eta = 0.3
    base = markets.diverse_market(np.eye(3), g=0.0, delta=0.1, x0=[1.0, 1.0, 1.0])
    model = markets.patched_weakly_diverse(base, eta=eta, horizon=2.0)
    grid = paths.make_grid(2.0, 400)
    f = paths.generate_factors(grid, 3, 32, master_seed=31)
    lx, aux = markets.simulate_block(model, f, 0, 32)
    late = aux["trigger_time"] > 1.0
    assert late.any()
    top = portfolios.market_weights(lx[late]).max(axis=-1)
    avg = np.trapezoid(top, grid.times, axis=-1) / 2.0
    assert np.all(avg < 1.0 - eta / 2.0)


def test_patched_validation():
    base = markets.diverse_market(np.eye(2), g=0.0, delta=0.2, x0=[1.0, 1.0])
    with pytest.raises(InvalidModelError):
        markets.patched_weakly_diverse(base, eta=0.1, horizon=1.0)   # eta below delta
    with pytest.raises(InvalidModelError):
        markets.patched_weakly_diverse(base, eta=0.6, horizon=1.0)
    plain = markets.constant_market(b=[0.0, 0.0], sigma=np.eye(2), x0=[1.0, 1.0])
    with pytest.raises(InvalidModelError):
        markets.patched_weakly_diverse(plain, eta=0.3, horizon=1.0)
    # the replay reads the trigger time off the kernel's records
    patched = markets.patched_weakly_diverse(base, eta=0.3, horizon=1.0)
    with pytest.raises(InvalidArgumentError, match="need the record 'trigger_time'"):
        markets.growth_rates_along(patched, np.zeros((1, 2, 2)), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# early-lead model
# ---------------------------------------------------------------------------

def test_dominance_early_drift_is_exact_power_law():
    model = markets.instantaneous_dominance_market(alpha=0.25)
    grid = paths.geometric_grid(0.01, 64, 1e-8)
    lx, aux, dw = _one_path(model, grid, seed=12)
    assert aux["exit_index"] == -1
    t = grid.times[1:]
    np.testing.assert_allclose(lx[1:, 1],
                               t ** 0.25 + np.cumsum(dw[:, 1]),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(lx[1:, 0], np.cumsum(dw[:, 0]),
                               rtol=0, atol=1e-12)


def test_dominance_validation():
    with pytest.raises(InvalidModelError):
        markets.instantaneous_dominance_market(alpha=0.6)
    with pytest.raises(InvalidModelError):
        markets.instantaneous_dominance_market(alpha=0.25, delta=0.4, delta_prime=0.3)
    model = markets.instantaneous_dominance_market(alpha=0.25)
    lx = np.zeros((1, 2, 2))
    with pytest.raises(InvalidArgumentError):
        markets.growth_rates_along(model, lx, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# kernels against the scalar-loop reference and the growth replay
# ---------------------------------------------------------------------------

def _simulate_all(cases):
    """Log prices and per-path records of every case, keyed ``kind/name``."""
    records = {}
    for kind, (model, factors) in cases.items():
        lx, aux = markets.simulate_block(model, factors, 0, factors.n_paths)
        records[f"{kind}/log_prices"] = lx
        records.update({f"{kind}/{key}": v for key, v in aux.items()})
    return records


def _loop_kernel_table():
    """The scalar loops of ``loop_kernels`` behind the ``_kernels`` interface.

    Each loop returns fresh log prices; they are written into ``dv``, as the
    kernel contract asks.
    """

    def diverse(logx0, dv, dt, times, model, carry, start):
        p = model.params
        logx, caps = loop_kernels.repelled_leader_loops(
            logx0, dv, dt, p["g"], p["delta"], p["big_m"], markets._Q_FLOOR, p["step_cap"])
        dv[...] = logx[:, 1:]
        return {"capped_steps": caps}

    def ou_pair(logx0, dv, dt, times, model, carry, start):
        p = model.params
        dv[...] = loop_kernels.spread_reversion_loops(
            logx0, dv, dt, times, p["alpha"], p["switch_time"],
            0.5 * float(model.vol.a[0, 0]))[:, 1:]
        return {"capped_steps": np.zeros(dv.shape[0], np.int64)}

    def patched(logx0, dv, dt, times, model, carry, start):
        p = model.params
        logx, caps, s_time = loop_kernels.patched_trigger_loops(
            logx0, dv, dt, times, p["g"], p["delta"], p["big_m"], markets._Q_FLOOR,
            p["step_cap"], np.diag(model.vol.a).copy(), p["eta"], 0.5 * p["horizon"])
        dv[...] = logx[:, 1:]
        return {"capped_steps": caps, "trigger_time": s_time}

    def dominance(logx0, dv, dt, times, model, carry, start):
        p = model.params
        logx, t1_idx, caps = loop_kernels.upstart_loops(
            logx0, dv, dt, times, p["alpha"], p["eta"], p["eta_prime"], p["cdrift"],
            p["step_cap"])
        dv[...] = logx[:, 1:]
        return {"exit_index": t1_idx, "capped_steps": caps}

    return {"diverse": diverse, "ou-pair": ou_pair, "patched": patched,
            "dominance": dominance}


def test_kernels_match_scalar_loops(monkeypatch):
    """The vectorised kernels reproduce the scalar-loop reference.

    Log prices and every per-path record must agree for all four kinds.
    """
    vec = _simulate_all(kernel_cases())
    monkeypatch.setattr(_kernels, "active_kernels", _loop_kernel_table)
    loops = _simulate_all(kernel_cases())
    assert vec.keys() == loops.keys()
    for key in loops:
        np.testing.assert_allclose(vec[key], loops[key], rtol=1e-12, atol=1e-12,
                                   err_msg=key)


def test_batches_and_draw_slices_leave_every_path_unchanged(monkeypatch):
    """One batch drawn in several slices, the last one ragged, gives every
    path bit for bit what it gets when simulated alone, for all five kinds."""
    cases = {kind: (model, f.grid) for kind, (model, f) in kernel_cases().items()}
    constant = markets.constant_market(b=[0.05, -0.02, 0.0], sigma=0.3 * np.eye(3),
                                       x0=[1.0, 2.0, 0.5])
    cases["constant"] = (constant, paths.make_grid(1.0, 100))
    # every grid has 100 steps: slices of 2 paths on three factors, 3 on two
    monkeypatch.setattr(markets, "_DRAW_BYTES", 2 * 100 * 3 * 8)
    for kind, (model, grid) in cases.items():
        f = paths.generate_factors(grid, model.m, 7, master_seed=9)
        lx, aux = markets.simulate_block(model, f, 0, 7)
        alone = [markets.simulate_block(model, f, i, i + 1) for i in range(7)]
        np.testing.assert_array_equal(lx, np.concatenate([one[0] for one in alone]),
                                      err_msg=kind)
        assert aux.keys() == alone[0][1].keys()
        for key in aux:
            np.testing.assert_array_equal(
                aux[key], np.concatenate([one[1][key] for one in alone]),
                err_msg=f"{kind}/{key}")


def test_every_kind_records_capped_steps():
    """``aux["capped_steps"]`` is a (B,) int64 count for all five kinds: zeros
    for the constant and ou-pair kinds, which have no cap."""
    cases = kernel_cases()
    constant = markets.constant_market(b=[0.05, -0.02], sigma=0.3 * np.eye(2),
                                       x0=[1.0, 2.0])
    cases["constant"] = (constant, paths.generate_factors(paths.make_grid(1.0, 10), 2, 4,
                                                          master_seed=9))
    for kind, (model, f) in cases.items():
        caps = markets.simulate_block(model, f, 0, f.n_paths)[1]["capped_steps"]
        assert caps.dtype == np.int64 and caps.shape == (f.n_paths,), kind
        if kind in ("constant", "ou-pair"):
            np.testing.assert_array_equal(caps, 0, err_msg=kind)


def test_simulate_block_holds_one_batch_sized_array(monkeypatch):
    """Besides its log prices, a diverse batch holds one slice of draws at a
    time: the traced peak stays under 1.3 times the log-price buffer."""
    model, _ = kernel_cases()["diverse"]
    factors = paths.generate_factors(paths.make_grid(1.0, 2000), 3, 64, master_seed=5)
    logx_bytes = 64 * 2001 * 3 * 8
    monkeypatch.setattr(markets, "_DRAW_BYTES", logx_bytes // 8)
    markets.simulate_block(model, factors, 0, 1)  # one-time imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lx, _ = markets.simulate_block(model, factors, 0, 64)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert lx.nbytes == logx_bytes
    assert peak < 1.3 * logx_bytes, peak / logx_bytes


@pytest.mark.parametrize(
    "kind", sorted(k for k, e in markets.KINDS.items() if e.growth is not None))
def test_growth_replay_matches_applied_displacement(kind):
    """Every step moves by the replayed growth rate times dt, capped, for
    every kind with a growth rule.

    ``growth_rates_along`` returns the uncapped rule; clipping it at the
    step cap (none where the model has no ``step_cap``) must give the
    displacement the integrator applied, and the entries past the cap must
    number ``capped_steps`` on every path.
    """
    cases = kernel_cases()
    constant = markets.constant_market(b=[0.05, -0.02, 0.0], sigma=0.3 * np.eye(3),
                                       x0=[1.0, 2.0, 0.5])
    cases["constant"] = (constant, paths.generate_factors(paths.make_grid(1.0, 100), 3, 4,
                                                          master_seed=9))
    model, factors = cases[kind]
    n_paths = factors.n_paths
    logx, aux = markets.simulate_block(model, factors, 0, n_paths)
    dv = markets._vol_increments(model, factors.block(0, n_paths))
    gamma = markets.growth_rates_along(model, logx, factors.grid.times, aux)
    step_cap = model.params.get("step_cap", np.inf)
    disp = gamma[:, :-1, :] * factors.grid.step_sizes[None, :, None]
    applied = logx[:, 1:, :] - logx[:, :-1, :] - dv
    np.testing.assert_allclose(applied, np.clip(disp, -step_cap, step_cap),
                               rtol=0, atol=1e-12)
    over = np.abs(disp) > step_cap
    np.testing.assert_array_equal(over.sum(axis=(1, 2)), aux["capped_steps"])
    assert over.any() == ("step_cap" in model.params)


def test_last_axis_reductions_equal_numpy_bit_for_bit():
    """The column-wise sum, max and min equal numpy's over the last axis.

    Magnitudes span 1e-8 to 1e8 so the order of additions shows in the
    rounding; rows with ties, all-(-0.0) rows and mixed signed zeros check
    which zero comes out.  A bool array must be counted, not or-ed.
    """
    rng = np.random.default_rng(17)
    for n in range(1, 8):
        x = rng.standard_normal((6, 50, n)) * 10.0 ** rng.uniform(-8, 8, (6, 50, n))
        x[0, :5] = x[0, :5, :1]             # every entry of the row tied
        x[1, :5, -1] = x[1, :5, 0]          # first and last entries tied
        x[2, :5] = -0.0
        x[3, :5] = rng.choice([-0.0, 0.0], size=(5, n))
        for ours, theirs in ((_kernels._sum_last, np.sum), (_kernels._max_last, np.max),
                             (_kernels._min_last, np.min)):
            got, want = ours(x), theirs(x, axis=-1)
            assert np.array_equal(got, want), (ours.__name__, n)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (ours.__name__, n)
        over = x > 0
        count = _kernels._sum_last(over)
        assert count.dtype == over.sum(axis=-1).dtype
        np.testing.assert_array_equal(count, over.sum(axis=-1))


def _feed(x, cuts):
    """``_RowSum`` of ``x`` fed in the column pieces between ``cuts``."""
    rows = _kernels._RowSum(x.shape[0], x.shape[1])
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        rows.add(x[:, lo:hi])
    return rows.total()


def test_streamed_row_sum_equals_numpy_bit_for_bit():
    """The streamed row sum equals ``np.sum(x, axis=1)`` for every row length
    from 1 to 300 and at 15,000 and 15,001, fed in pieces of 1, 7 and 256
    columns and in a ragged split.  Magnitudes span 1e-30 to 1e30, so any
    change in the order of additions shows in the rounding; an all-(+0.0)
    row and an all-(-0.0) row check which zero comes out.  If numpy ever
    changes how it sums a row, this is the test that fails."""
    rng = np.random.default_rng(23)
    for n in [*range(1, 301), 15_000, 15_001]:
        x = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-30, 30, (4, n))
        x[1] = 0.0
        x[2] = -0.0
        want = np.sum(x, axis=1)
        ragged = np.unique(np.r_[0, rng.integers(0, n, 5), n])
        for cuts in (*(np.r_[np.arange(0, n, piece), n] for piece in (1, 7, 256)), ragged):
            got = _feed(x, cuts)
            assert np.array_equal(got, want), (n, cuts[:4])
            assert np.array_equal(np.signbit(got), np.signbit(want)), n


def test_streamed_row_sum_wants_exactly_its_columns():
    with pytest.raises(ValueError, match="more columns"):
        _kernels._RowSum(2, 10).add(np.ones((2, 11)))
    rows = _kernels._RowSum(2, 10)
    rows.add(np.ones((2, 9)))
    with pytest.raises(ValueError, match="not complete"):
        rows.total()


def test_simulate_block_rejects_unknown_kind():
    model = markets.MarketModel(kind="bogus", vol=markets.Dispersion(np.eye(2)),
                                x0=[1.0, 1.0])
    factors = paths.generate_factors(paths.make_grid(1.0, 4), 2, 2, master_seed=0)
    with pytest.raises(InvalidModelError):
        markets.simulate_block(model, factors, 0, 2)


def _walk_cases():
    """kernel_cases' four kinds and a constant market, six paths each."""
    cases = {kind: (model, f.grid) for kind, (model, f) in kernel_cases().items()}
    cases["constant"] = (markets.constant_market(b=[0.05, -0.02, 0.0], sigma=0.3 * np.eye(3),
                                                 x0=[1.0, 2.0, 0.5], r=0.01),
                         paths.make_grid(2.0, 100))
    return {kind: (model, paths.generate_factors(grid, model.m, 6, master_seed=4))
            for kind, (model, grid) in cases.items()}


def test_time_chunks_integrate_to_the_whole_path(monkeypatch):
    """All five kinds walked in time chunks of 33 steps (the last one a single
    step), each chunk from the state the one before carried, give the whole
    path's log prices bit for bit, row 0 of every chunk included, also while
    rows are retired between chunks.  Each chunk's records (``capped_steps``,
    ``trigger_time``, ``exit_index``, the constant kind's ``increment_sum``)
    are bit for bit those of the whole path on the grid cut at the chunk's
    end, and the joined ``capped_steps`` column holds each path's record at
    its last chunk."""
    monkeypatch.setattr(markets, "_CHUNK_STEPS", 33)
    for kind, (model, f) in _walk_cases().items():
        whole, _ = markets.simulate_block(model, f, 0, 6)
        last_caps = np.full(6, -1)

        def batch(lo, hi):
            def consume(rows, start, lx, aux):
                stop = start + lx.shape[1] - 1
                np.testing.assert_array_equal(lx, whole[lo + rows, start:stop + 1],
                                              err_msg=f"{kind} {start}")
                cut = paths.generate_factors(paths.PathGrid(f.grid.times[:stop + 1]), f.m, 6,
                                             f.master_seed)
                want = markets.simulate_block(model, cut, 0, 6)[1]
                assert aux.keys() == want.keys(), kind
                for key in aux:
                    np.testing.assert_array_equal(aux[key], want[key][lo + rows],
                                                  err_msg=f"{kind}/{key} {start}")
                last_caps[lo + rows] = aux["capped_steps"]
                # retire the first row at every other chunk
                return np.arange(1, rows.size) if start % 66 == 0 else None

            return consume, dict

        cols = markets.walk(model, f, batch, 4)
        assert (last_caps >= 0).all(), kind
        np.testing.assert_array_equal(cols["capped_steps"], last_caps, err_msg=kind)
        # the capped kinds carry counts that are not all zero
        assert cols["capped_steps"].any() == (kind not in ("constant", "ou-pair")), kind


def test_a_chunk_names_the_path_and_grid_step_that_fail():
    """A non-finite log price inside a time chunk is reported at its path
    index and grid step, not at the chunk's row and local step."""
    model = markets.constant_market(b=[0.05, 0.0], sigma=0.3 * np.eye(2), x0=[1.0, 2.0])
    f = paths.generate_factors(paths.make_grid(1.0, 100), 2, 12, master_seed=3)
    first = f.time_chunk(np.array([7, 8, 9]), 0, 40)
    lx, aux = markets.simulate_block(model, first, 0, 3)
    carry = {key: v[1:].copy() for key, v in {"log_prices": lx[:, -1], **aux}.items()}
    carry["log_prices"][0, 1] = np.nan  # path 8
    second = first.time_chunk(np.arange(3), 40, 60)
    second.block(0, 1)  # row 0, path 7, draws its steps; rows 1 and 2 are integrated
    with pytest.raises(IntegrationFailureError, match="at path 8, step 40") as err:
        markets.simulate_block(model, second, 1, 3, carry)
    assert (err.value.path_index, err.value.step) == (8, 40)
