"""Rank paths, boundary local times, and the ranked-weight decomposition.

Ranking is by descending weight with ties broken toward the lower stock
index, so the identity of each ranked slot is well defined on every grid
point.  Local time at zero is estimated with a discrete Tanaka sum on a
signed path: each step contributes

    |y_next| - |y| - sign(y) (y_next - y)

which is zero when no sign change occurs, 2 |y_next| on a crossing, and
|y_next| when starting exactly at zero.  Every contribution is nonnegative,
so the estimate is nondecreasing without any flooring.  Feeding a
nonnegative path (a gap that never crosses) therefore yields identically
zero, which is the correct degenerate answer for that input.

Two experiments live here, each returning ``(metrics, info, checks,
tables)`` under the report's names: ``ranked_decomposition_study`` and
``local_time_study``.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import _carried_cumsum, _max_last, _sum_last
from .checks import Check, check_stock, compensated_mean_se, numbered
from .errors import InvalidArgumentError
from . import markets as _markets
from . import portfolios as _portfolios

__all__ = [
    "rank_order",
    "ranked_weight_path",
    "estimate_local_time",
    "adjacent_gap_local_times",
    "ranked_decomposition",
    "ranked_decomposition_study",
    "local_time_study",
]


def rank_order(w: np.ndarray) -> np.ndarray:
    """Indices sorting weights descending, lowest index first on ties."""
    return np.argsort(-np.asarray(w, dtype=float), axis=-1, kind="stable")


def ranked_weight_path(w: np.ndarray):
    """Sorted (descending) weights and the stock index occupying each rank."""
    order = rank_order(w)
    ranked = np.take_along_axis(np.asarray(w, dtype=float), order, axis=-1)
    return ranked, order


def estimate_local_time(path: np.ndarray) -> np.ndarray:
    """Cumulative local time at zero of a signed scalar path, shape (K+1,).

    Works on batches; the path axis is the last one.  Library API: the
    whole-path reference of ``local_time_study`` and criterion 07's oracle.
    """
    y = np.asarray(path, dtype=float)
    if y.shape[-1] < 2:
        raise InvalidArgumentError("need at least two grid points")
    out = np.zeros(y.shape)
    np.cumsum(_tanaka_increments(y), axis=-1, out=out[..., 1:])
    return out


def _tanaka_increments(y):
    """Each step's discrete Tanaka term of a signed path (..., K+1)."""
    ynext = y[..., 1:]
    ynow = y[..., :-1]
    return np.abs(ynext) - np.abs(ynow) - np.sign(ynow) * (ynext - ynow)


def adjacent_gap_local_times(weight_path: np.ndarray) -> np.ndarray:
    """Local times of the log gaps between adjacent ranked weights.

    Input (..., K+1, n); output (..., K+1, n-1), column k holding the
    accumulated collision time between ranks k and k+1.  Each step follows
    the pair of stock names that occupy the two ranks at the left endpoint.
    Ranking makes the left-endpoint gap nonnegative (ties included), so the
    Tanaka increment from the positive side reduces to twice the overshoot
    below zero: it is positive exactly when the pair swaps order by the
    right endpoint.
    """
    w = np.asarray(weight_path, dtype=float)
    lw_next = np.log(w[..., 1:, :])
    order = rank_order(w)[..., :-1, :]
    s_next = np.take_along_axis(lw_next, order[..., :-1], axis=-1) - np.take_along_axis(
        lw_next, order[..., 1:], axis=-1
    )
    inc = 2.0 * np.maximum(0.0, -s_next)
    out = np.zeros(w.shape[:-1] + (w.shape[-1] - 1,))
    np.cumsum(inc, axis=-2, out=out[..., 1:, :])
    return out


def ranked_decomposition(model, log_prices, dv, times, aux):
    """Check the evolution of each ranked log weight on a batch of paths.

    The log weight of rank k should move by the named increment of whichever
    stock holds rank k at the left endpoint, plus half the net local time
    collected at the rank boundaries above and below.  Two residual paths
    are reported per rank:

    * ``residual_named`` re-derives ranked moves from the measured named
      log-weight increments; it probes only the ranking and local-time
      bookkeeping, not the integrator.
    * ``residual_model`` replaces the measured named increments by the
      model's defining drift and volatility acting on the volatility
      increments ``dv`` (B, K, n); it converges at the usual Euler rate.

    ``log_prices`` is (B, K+1, n) and ``aux`` holds the integration records.
    Returns the residuals (B, K+1, n), the gap local times (B, K+1, n-1),
    the rank ``order``, and per path the relative sups ``relative_named``
    and ``relative_model`` (B,), normalized by the largest terminal ranked
    log weight magnitude (floored at log 2, the two-stock minimum spread
    scale).
    """
    lx = np.asarray(log_prices, dtype=float)
    if lx.ndim != 3:
        raise InvalidArgumentError("expected a batch of price paths, shape (B, K+1, n)")
    w = _portfolios.market_weights(lx)
    ranked, order = ranked_weight_path(w)
    lam = adjacent_gap_local_times(w)
    dlam = np.diff(lam, axis=-2)

    # half net local time per rank: gained at the lower boundary, ceded at
    # the upper one; the top rank has no boundary above, the bottom none below
    pad = np.zeros(dlam.shape[:-1] + (1,))
    below = np.concatenate([dlam, pad], axis=-1)
    above = np.concatenate([pad, dlam], axis=-1)
    boundary = 0.5 * (below - above)

    ranked_log = np.log(ranked)
    d_ranked = np.diff(ranked_log, axis=-2)
    hold = order[:, :-1]
    scale = np.maximum(np.log(2.0), _max_last(np.abs(ranked_log[:, -1])))

    def residual(named_inc):
        res = np.zeros(lx.shape)
        np.cumsum(d_ranked - named_inc - boundary, axis=-2, out=res[:, 1:])
        return res, np.abs(res).max(axis=(-2, -1)) / scale

    res_named, rel_named = residual(
        np.take_along_axis(np.diff(np.log(w), axis=-2), hold, axis=-1))

    gamma = _markets.growth_rates_along(model, lx, times, aux=aux)
    mu_gamma = _portfolios.excess_growth(w, model.vol.a) + _sum_last(w * gamma)
    # named log-weight move from the model: (gamma_i - gamma_mu) dt
    #   + (sigma dW)_i - mu' sigma dW, all at the left endpoint
    dt = np.diff(np.asarray(times, dtype=float))[:, None]
    g_named = np.take_along_axis(gamma[:, :-1], hold, axis=-1)
    mkt_noise = _sum_last(w[:, :-1] * dv)[..., None]
    res_model, rel_model = residual(
        (g_named - mu_gamma[:, :-1, None]) * dt
        + np.take_along_axis(dv, hold, axis=-1)
        - mkt_noise
    )
    return {
        "local_times": lam,
        "order": order,
        "residual_named": res_named,
        "residual_model": res_model,
        "relative_named": rel_named,
        "relative_model": rel_model,
    }


def ranked_decomposition_study(model, factors):
    """``ranked_decomposition`` on every path: the relative residual sups
    and the terminal gap local times per path, and path 0's ranked weights
    and gap local times along the grid.  A kind without a growth rule is
    rejected before any factor is drawn."""
    _markets._growth_rule(model)
    times = factors.grid.times
    first = []  # path 0's log prices, kept from the batch that simulates it

    def per_batch(lo, hi, lx, aux):
        if lo == 0:
            first.append(lx[:1].copy())
        dv = _markets._vol_increments(model, factors.block(lo, hi))
        res = ranked_decomposition(model, lx, dv, times, aux)
        return {
            "relative_named": res["relative_named"],
            "relative_model": res["relative_model"],
            "lam_term": res["local_times"][:, -1],
        }

    cols = _markets.run_batches(model, factors, per_batch)
    rel_named, rel_model, lam_term = (
        cols[key] for key in ("relative_named", "relative_model", "lam_term"))
    metrics = {
        "max_relative_named": float(rel_named.max()),
        "max_relative_model": float(rel_model.max()),
        "mean_relative_model": float(rel_model.mean()),
        "mean_terminal_local_time_top_gap": float(lam_term[:, 0].mean()),
    }
    w = _portfolios.market_weights(first[0])
    tables = {
        "per_path": {
            "path_id": np.arange(factors.n_paths),
            "relative_named": rel_named,
            "relative_model": rel_model,
            **numbered("gap_local_time", lam_term),
        },
        "series": {
            "t": times,
            **numbered("ranked_w", ranked_weight_path(w)[0][0]),
            **numbered("gap_local_time", adjacent_gap_local_times(w)[0]),
        },
    }
    return metrics, {"capped_steps": int(cols["capped_steps"].sum())}, [], tables


def local_time_study(model, factors, index: int = 0):
    """Terminal local time at zero of stock ``index``'s log price move
    ``log X(t) - log X(0)``, per path and in mean with its standard error.
    Where that stock's log price is a driftless Brownian motion (a constant
    market with zero growth rate), the mean is checked against the
    reflected-line value sqrt(a_ii) sqrt(2T / pi).  Each batch is walked in
    time chunks (``markets.walk``), and each chunk's Tanaka increments go
    on from the running sum carried in front of their cumsum, which repeats
    the whole path's additions."""
    check_stock(model, index, "index")
    horizon = factors.grid.horizon
    start = np.log(model.x0)[index]  # row 0 of every whole path

    def batch(lo, hi):
        lam = np.zeros(hi - lo)

        def consume(rows, a, lx, aux):
            inc = _tanaka_increments(lx[:, :, index] - start)
            lam[:] = _carried_cumsum(inc, lam if a else None)[:, -1]

        return consume, lambda: {"lam": lam}

    cols = _markets.walk(model, factors, batch)
    lam = cols["lam"]
    mean, se = compensated_mean_se(lam)
    metrics = {"mean_terminal_local_time": mean, "se": se, "horizon": horizon}
    checks = []
    if model.kind == "constant":
        if abs(_markets.constant_growth(model)[index]) < 1e-12:
            oracle = math.sqrt(model.vol.a[index, index]) * math.sqrt(2.0 * horizon / math.pi)
            tol = max(3.0 * se, 0.02 * oracle)
            metrics["oracle"] = oracle
            metrics["abs_error"] = abs(mean - oracle)
            metrics["t_stat"] = (mean - oracle) / se if se > 0 else float("inf")
            checks.append(Check(
                "terminal local time matches the reflected-line mean",
                abs(mean - oracle) <= tol,
                f"mean={mean:.6g} oracle={oracle:.6g} tol={tol:.3g}", tol))
    per_path = {"path_id": np.arange(factors.n_paths), "terminal_local_time": lam}
    info = {"capped_steps": int(cols["capped_steps"].sum())}
    return metrics, info, checks, {"per_path": per_path}
