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
"""

from __future__ import annotations

import numpy as np

from ._kernels import _max_last, _sum_last
from .errors import InvalidArgumentError
from . import markets as _markets
from . import portfolios as _portfolios

__all__ = [
    "rank_order",
    "ranked_weight_path",
    "estimate_local_time",
    "adjacent_gap_local_times",
    "ranked_decomposition",
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

    Works on batches; the path axis is the last one.
    """
    y = np.asarray(path, dtype=float)
    if y.shape[-1] < 2:
        raise InvalidArgumentError("need at least two grid points")
    ynext = y[..., 1:]
    ynow = y[..., :-1]
    inc = np.abs(ynext) - np.abs(ynow) - np.sign(ynow) * (ynext - ynow)
    out = np.zeros(y.shape)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


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
