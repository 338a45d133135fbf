"""Deflator construction, Monte Carlo hedge pricing, and related studies.

Every deflated price is taken with one of two estimators, each where it
is exact.

Where the market price of risk theta is constant (the ``constant`` kind:
``hedge_price`` and the control of ``parity_gap_study``) the deflator
L = exp(-int theta' dW - int |theta|^2 dt / 2) is read off the terminal
log prices.  With beta = b - r, u = a^{-1} beta and growth rates
gamma = b - diag(a)/2, the log prices move by gamma dt + sigma dW, so

    log L(T) = -u' (log x_T - log x_0 - gamma T) - u' beta T / 2,

which is also the discrete deflator of the Euler grid: its sum over steps
telescopes.  Its step factors have conditional mean one, so E[L(T)] = 1
on every grid, as it should be where theta is bounded.

In the barrier-repelled market (the ``diverse`` kind: ``call_decay_study``
and the witness of ``parity_gap_study``) prices are taken under the Foellmer measure
Q (Foellmer 1972; Ruf 2013, "Hedging under arbitrage").  The deflator is a
strict local martingale there, with E[L(T)] < 1, and for a payoff Y of
the path up to T

    E_P[L(T) Y] = E_Q[Y ; tau > T],

where under Q every stock is a geometric Brownian motion with rate of
return r (the market's own dispersion, no drift kernel) and tau is the
first time the top weight reaches 1 - delta, the barrier that the
P-drift never lets the market reach.  Each study runs one such Q
simulation, monitors tau on its grid and reads every quantity off that
one pass: a knock-out estimator, with bounded variance and an honest
standard error.  The pass integrates each batch of paths in time chunks
and returns what it observed, whatever the study: the log prices at each
rung, each path's first grid index at or over the barrier, and the running
sum of one optional per-step functional (the mirror's relative log value).
A path is alive at a rung when its index is past the rung.  A path knocked
out under both monitors (below) only adds zeros from then on, so no later
chunk draws or integrates it.  Monitoring on the grid misses crossings
between grid points and so biases survival upward; each study also
reports the reading monitored on every other grid point (the coarse grid
of the same Brownian path), and no bridge correction is made.

Monte Carlo reductions collect one value per path and reduce once with
compensated (exact) summation, ``checks.compensated_mean_se``, so results
are independent of batch size and of time chunks.
Each study is one experiment: ``study(model, factors, **extras)`` returns
``(metrics, info, checks, tables)`` under the report's names.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ._kernels import _carried_cumsum, _max_last, _sum_last
from .checks import Check, check_stock, compensated_mean_se
from .errors import InvalidArgumentError, NumericFailureError
from . import arbitrage as _arbitrage
from . import markets as _markets
from . import paths as _paths
from . import portfolios as _portfolios

__all__ = [
    "market_price_of_risk",
    "hedge_price",
    "ladder_steps",
    "call_decay_study",
    "decay_envelope",
    "parity_gap_study",
]


def market_price_of_risk(model, log_prices: np.ndarray, times, aux=None) -> np.ndarray:
    """theta = sigma' (sigma sigma')^{-1} (b - r 1) along a batch of log prices
    (B, len(times), n), with the rates of return b = gamma + diag(a) / 2."""
    sigma = model.vol.sigma
    proj = sigma.T @ np.linalg.inv(model.vol.a)
    b = _markets.growth_rates_along(model, log_prices, times, aux=aux)
    b += 0.5 * np.diag(model.vol.a)
    b -= model.r
    theta = b @ proj.T
    if not np.isfinite(theta).all():
        raise NumericFailureError("market price of risk is not finite")
    return theta


def _constant_log_deflator(model, horizon: float):
    """Per-path terminal log L of a constant-coefficient market, in closed
    form (see the module docstring), as a function of a batch's log prices
    (B, K+1, n); it reads the first and last grid points only."""
    if model.kind != "constant":
        raise InvalidArgumentError(
            f"the closed-form deflator needs a constant market, not {model.kind!r}")
    beta = model.params["b"] - model.r
    u = np.linalg.solve(model.vol.a, beta)
    growth = _markets.constant_growth(model)

    def log_deflator(lx):
        logl = -(lx[:, -1] - lx[:, 0] - growth * horizon) @ u - 0.5 * (u @ beta) * horizon
        if not np.isfinite(logl).all():
            raise NumericFailureError("deflator is not finite")
        return logl

    return log_deflator


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def call_price_closed_form(
    spot: float, strike: float, rate: float, vol: float, horizon: float
) -> float:
    """Lognormal call price for a constant-coefficient stock.

    ``vol`` is the stock's own log volatility, the square root of its
    diagonal covariance entry.
    """
    if spot <= 0 or strike <= 0:
        raise InvalidArgumentError("spot and strike must be positive")
    if vol <= 0 or horizon <= 0:
        raise InvalidArgumentError("vol and horizon must be positive")
    sq = vol * math.sqrt(horizon)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * horizon) / sq
    d2 = d1 - sq
    return spot * _normal_cdf(d1) - strike * math.exp(-rate * horizon) * _normal_cdf(d2)


def _deflated_payoffs(model, factors: _paths.FactorPaths, payoff) -> np.ndarray:
    """Per path, Y L(T) / B(T) for the payoff Y = ``payoff(log_prices)`` of
    a batch's log prices (B, K+1, n), in a constant-coefficient ``model``:
    L(T) in closed form.  Their mean is Y's deflated price."""
    horizon = factors.grid.horizon
    bank = math.exp(model.r * horizon)
    log_deflator = _constant_log_deflator(model, horizon)

    def per_batch(lo, hi, lx, aux):
        return {"vals": payoff(lx) * np.exp(log_deflator(lx)) / bank}

    return _markets.run_batches(model, factors, per_batch)["vals"]


def hedge_price(model, factors: _paths.FactorPaths, strike: float, index: int = 0):
    """Monte Carlo price E[(X_T - K)^+ L(T) / B(T)] of a call on stock
    ``index`` with its standard error, for a constant-coefficient
    ``model``, checked against the lognormal closed form."""
    check_stock(model, index, "index")
    spot = float(model.x0[index])
    horizon = factors.grid.horizon
    # the closed form first: it rejects a bad strike before any path is drawn
    ref = call_price_closed_form(spot, strike, model.r, math.sqrt(model.vol.a[index, index]),
                                 horizon)
    vals = _deflated_payoffs(
        model, factors, lambda lx: np.maximum(np.exp(lx[:, -1, index]) - strike, 0.0))
    price, se = compensated_mean_se(vals)
    metrics = {
        "price": price,
        "se": se,
        "zero_fraction": float(np.mean(vals == 0.0)),
        "strike": strike,
        "spot": spot,
        "horizon": horizon,
        "reference": ref,
        "t_stat": (price - ref) / se if se > 0 else float("inf"),
    }
    checks = [Check(
        "deflator price matches the closed form within 3 standard errors",
        abs(price - ref) <= 3.0 * se,
        f"price={price:.6g} ref={ref:.6g} se={se:.3g}", 3.0 * se,
    )]
    return metrics, {"claim": f"call(stock={index}, strike={strike:g})"}, checks, {}


# ---------------------------------------------------------------------------
# deflated prices under the Foellmer measure
# ---------------------------------------------------------------------------

def _check_foellmer(model) -> None:
    """Reject a market without the barrier the knock-out monitors."""
    if model.kind != "diverse":
        raise InvalidArgumentError(
            "the Foellmer knock-out is defined for the diverse market kind, "
            f"not {model.kind!r}")


def _foellmer_knock_out(model, factors: _paths.FactorPaths, rungs, increments=None):
    """One simulation of ``model``'s market under the Foellmer measure on
    ``factors``, observed at the grid indices ``rungs``.

    Under Q every stock is a GBM with rate of return r.  Each batch of
    paths, as many as ``markets.batch_paths`` gives, is walked
    (``markets.walk``) in time chunks up to the last rung, and the top weight is checked against 1 - delta at every
    grid point (the dt monitor) and at every even one (the 2dt monitor).  A
    path out under both monitors only adds zeros from then on, so it is
    retired: no later chunk draws or integrates it.

    Returns per path ``(lx, running, first, first_2dt)``: the log prices at
    each rung (N, len(rungs), n); the running sum at each rung of the
    per-step functional ``increments(lx, times)`` of a chunk's log prices
    (B, K+1, n) on its grid points, (B, K) per chunk, carried in front of
    each chunk's cumsum (None without ``increments``); and the first grid
    index at which the top weight is at or over the barrier under the dt
    and under the 2dt monitor (the last rung + 1 where there is none).  A
    path is alive at rung k when its index is past k.  Past a retired
    path's last chunk ``lx`` and ``running`` hold 0.
    """
    q = _markets.constant_market(b=model.r, sigma=model.vol.sigma, x0=model.x0, r=model.r)
    level = 1.0 - model.params["delta"]
    rungs = np.asarray(rungs)
    top = int(rungs.max())
    times = factors.grid.times

    def batch(lo, hi):
        lx_at = np.zeros((hi - lo, rungs.size, model.n))
        running = np.zeros((hi - lo, rungs.size))
        run = np.zeros(hi - lo)
        first, first_2dt = np.full((2, hi - lo), top + 1)

        def consume(rows, a, lx, aux):
            b = a + lx.shape[1] - 1
            j = np.flatnonzero((a < rungs) & (rungs <= b))
            ks = rungs[j] - a
            lx_at[rows[:, None], j] = lx[:, ks]
            if increments is not None:
                inc = _carried_cumsum(increments(lx, times[a:b + 1]), run[rows] if a else None)
                running[rows[:, None], j] = inc[:, ks - 1]
                run[rows] = inc[:, -1]
            x = np.exp(lx)
            hit = _max_last(x) >= level * _sum_last(x)  # at grid points a..b
            for f, stride, start in ((first, 1, a), (first_2dt, 2, a + a % 2)):
                h = hit[:, start - a::stride]
                f[rows] = np.minimum(
                    f[rows], np.where(h.any(axis=1), start + stride * h.argmax(axis=1), top + 1))
            # out under the 2dt monitor means out under the dt one too
            return np.flatnonzero(first_2dt[rows] > top)

        def columns():
            return {"lx": lx_at, "running": running, "first": first, "first_2dt": first_2dt}

        return consume, columns

    cols = _markets.walk(q, factors, batch, stop=top)
    running = None if increments is None else cols["running"]
    return cols["lx"], running, cols["first"], cols["first_2dt"]


def decay_envelope(
    total_capital: float, n: int, p: float, eps: float, delta: float, horizon: float
) -> float:
    """Analytic ceiling for the deflated price of one stock in a weakly
    diverse elliptic market: total capital times n**((1-p)/p) times
    exp(-eps * delta * (1-p) * horizon / 2)."""
    if not 0 < p < 1:
        raise InvalidArgumentError("p must lie in (0, 1)")
    return (
        total_capital
        * float(n) ** ((1.0 - p) / p)
        * math.exp(-eps * delta * (1.0 - p) * horizon / 2.0)
    )


def ladder_steps(horizons, steps_per_unit) -> list:
    """Grid index k = steps_per_unit * T of each horizon T on the ladder's
    one grid; every horizon must be positive and land on a grid point."""
    if len(horizons) == 0:
        raise InvalidArgumentError("the ladder needs at least one horizon")
    steps = []
    for t in horizons:
        if not t > 0:
            raise InvalidArgumentError(f"horizon {t:g} must be positive")
        k = steps_per_unit * float(t)
        if not math.isclose(k, round(k), rel_tol=1e-9, abs_tol=0.0):
            raise InvalidArgumentError(
                f"horizon {t:g} is not a whole number of steps at "
                f"{steps_per_unit:g} steps per unit time")
        steps.append(int(round(k)))
    return steps


def call_decay_study(model, factors: _paths.FactorPaths, strike: float,
                     horizons: Sequence[float] = (5.0, 10.0, 20.0, 40.0, 80.0),
                     p_bound: float = 0.5, index: int = 0):
    """Deflated call prices across a horizon ladder, plus the stock bound.

    Every rung T is read off one knock-out simulation under the Foellmer
    measure on ``factors``, whose uniform grid must hold every horizon:
    h(T) = e^{-rT} E_Q[(X_T - K)^+ ; tau > T] and the deflated stock price
    s(T) = e^{-rT} E_Q[X_T ; tau > T], so the rungs share their paths and the
    monotonicity comparison is paired.  Each rung also gives the analytic
    envelope s(T) must stay under in a weakly diverse elliptic market, the
    paths knocked out by T, monitored at every grid point and at every
    other one, and the call price monitored on every other grid point.
    """
    if model.r <= 0:
        raise InvalidArgumentError("the decay study needs a positive interest rate")
    if not strike > 0:
        raise InvalidArgumentError(f"strike {strike!r} must be positive")
    check_stock(model, index, "index")
    _check_foellmer(model)
    grid = factors.grid
    rungs = ladder_steps(horizons, 1.0 / grid.dt)
    if max(rungs) > grid.n_steps:
        raise InvalidArgumentError(
            f"horizon {max(horizons):g} lies past the grid's horizon {grid.horizon:g}")
    t = np.array(horizons, dtype=float)
    delta, eps = model.params["delta"], model.vol.eps
    total0 = float(_sum_last(model.x0))
    # the envelope first: it rejects a bad p_bound before any path is drawn
    envelope = np.array([decay_envelope(total0, model.n, p_bound, eps, delta, h)
                         for h in t.tolist()])
    discount = np.array([math.exp(-model.r * h) for h in t.tolist()])
    lx, _, first, first_2dt = _foellmer_knock_out(model, factors, rungs)
    alive, alive_2dt = (f[:, None] > np.asarray(rungs) for f in (first, first_2dt))
    x = np.exp(lx[:, :, index])
    call = np.maximum(x - strike, 0.0) * discount
    price, se = compensated_mean_se(call * alive)
    stock, stock_se = compensated_mean_se(x * discount * alive)
    price_2dt = compensated_mean_se(call * alive_2dt)[0]
    spot = float(model.x0[index])

    metrics = {"strike": strike, "spot": spot, "p_bound": p_bound, "n_horizons": t.size,
               "first_price": float(price[0]), "last_price": float(price[-1])}
    env_budget = 3.0 * stock_se
    mono_budget = np.array([3.0 * math.hypot(a, b) for a, b in zip(se, se[1:])])
    checks = [
        Check("hedge price sits under the spot at every horizon",
              bool((price < spot).all()), f"max_price={price.max():.6g} spot={spot:g}", 0.0),
        Check("deflated stock price stays under the decay envelope",
              bool((stock <= envelope + env_budget).all()), "", float(env_budget.max())),
        Check("hedge price decays along the horizon ladder",
              bool((price[1:] <= price[:-1] + mono_budget).all()), "",
              float(mono_budget.max(initial=0.0))),
    ]
    tables = {
        "table": {"T": t, "h_hat": price, "stderr": se, "envelope": envelope},
        "stock": {"T": t, "deflated_stock": stock, "stderr": stock_se, "envelope": envelope},
    }
    info = {
        "knocked_out": (factors.n_paths - np.count_nonzero(alive, axis=0)).tolist(),
        "knocked_out_2dt": (factors.n_paths - np.count_nonzero(alive_2dt, axis=0)).tolist(),
        "monitoring_pair": np.column_stack([price, price_2dt]).tolist(),
    }
    return metrics, info, checks, tables


# ---------------------------------------------------------------------------
# put-call parity gap
# ---------------------------------------------------------------------------

def parity_gap_study(model, factors: _paths.FactorPaths, p: float | None = None,
                     margin: float = 1.1, control_i: int = 0, control_j: int = 1):
    """Deflated prices of two assets that start equal yet price apart, and
    of a plain stock pair that prices at its initial difference.

    Witness: asset one is the market portfolio's value, asset two the value
    of the short-the-market mirror of the first stock with exponent p (p
    None takes ``margin`` times the mirror's threshold); both start at one
    unit of capital, so any gap in their deflated prices breaks the parity
    that would tie the two jointly european claims together.  Both are read
    off one knock-out pass under the Foellmer measure (r = 0):
    h1 = E_Q[Z_mu(T) ; tau > T] and h2 = E_Q[Z_pi(T) ; tau > T], the
    mirror's value being a functional of the Q path.  The gap is estimated
    pathwise (paired), which removes most of the variance.  Also reports
    the paths knocked out and h1 monitored on every other grid point.

    Control: stocks ``control_i`` and ``control_j`` of the constant market
    with the same dispersion and growth rates g, where the market price of
    risk is constant, so their paired deflated gap must match the initial
    difference within Monte Carlo error.  The control draws the same paths
    again.
    """
    if model.r != 0.0:
        raise InvalidArgumentError("the parity witness assumes a zero interest rate")
    check_stock(model, control_i, "control_i")
    check_stock(model, control_j, "control_j")
    if control_i == control_j:
        raise InvalidArgumentError(f"control_j {control_j!r} must differ from control_i")
    _check_foellmer(model)
    grid = factors.grid
    if not grid.is_uniform:
        raise InvalidArgumentError("the parity witness needs a uniform grid")
    p = _arbitrage.mirror_p(model, grid.horizon, p, margin)
    e1 = np.eye(model.n)[0]

    # the market's value z_mu = total cap / its start, every path starting at x0
    cap0 = _portfolios.market_value(np.log(model.x0))

    def mirror(lx, times):
        # per step, the mirror's log value relative to the market
        what = _portfolios.mirror_weights(e1, _portfolios.market_weights(lx), p)
        return _portfolios._relative_log_increments(what, lx, times, model.vol.a)

    n_steps = grid.n_steps
    lx, rel, first, first_2dt = _foellmer_knock_out(model, factors, [n_steps], mirror)
    zmu = _portfolios.market_value(lx[:, 0]) / cap0
    alive = first > n_steps
    h1_vals, h2_vals = zmu * alive, zmu * np.exp(rel[:, 0]) * alive
    h1, h1_se = compensated_mean_se(h1_vals)
    h2, h2_se = compensated_mean_se(h2_vals)
    gap, gap_se = compensated_mean_se(h1_vals - h2_vals)
    h1_2dt = compensated_mean_se(zmu * (first_2dt > n_steps))[0]

    control = _markets.constant_market(
        b=np.asarray(model.params["g"], dtype=float) + 0.5 * np.diag(model.vol.a),
        sigma=model.vol.sigma, x0=model.x0, r=model.r)
    diff = _deflated_payoffs(
        control, factors, lambda lx: np.exp(lx[:, -1, control_i]) - np.exp(lx[:, -1, control_j]))
    c_gap, c_se = compensated_mean_se(diff)
    expected = float(model.x0[control_i] - model.x0[control_j])
    c_t = (c_gap - expected) / c_se if c_se > 0 else float("inf")

    metrics = {
        "p": float(p),
        "h1": h1, "h1_se": h1_se,
        "h2": h2, "h2_se": h2_se,
        "gap": gap, "gap_se": gap_se,
        "t_stat": gap / gap_se if gap_se > 0 else float("inf"),
        "control_gap": c_gap, "control_gap_se": c_se,
        "control_expected": expected, "control_t_stat": c_t,
    }
    checks = [
        Check("two equal-start assets price apart by at least 3 standard errors",
              gap > 3.0 * gap_se, f"gap={gap:.6g} se={gap_se:.3g}", 3.0 * gap_se),
        Check("plain stock pair prices at its initial difference",
              abs(c_t) <= 3.0, f"t={c_t:.3g}", 3.0 * c_se),
        Check("deflated market and mirror wealth stay within 3 standard errors of their start",
              h1 <= 1.0 + 3.0 * h1_se and h2 <= 1.0 + 3.0 * h2_se,
              f"h1={h1:.6g} se={h1_se:.3g} h2={h2:.6g} se={h2_se:.3g}",
              3.0 * max(h1_se, h2_se)),
    ]
    info = {
        "knocked_out": int(factors.n_paths - np.count_nonzero(alive)),
        "monitoring_pair": [h1, h1_2dt],
    }
    return metrics, info, checks, {}
