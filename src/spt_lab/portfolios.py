"""Portfolio weight maps, growth algebra, and wealth integration.

Weights are rows summing to 1.  A weight map turns a simulated log-price
path into a weight path; wealth is then integrated with one of two schemes:

* all-long rules compound the portfolio-weighted gross returns of the
  stocks, in log space.  This makes the market portfolio's wealth track
  total capitalization exactly and a single-stock portfolio track its stock
  exactly, to float precision.
* rules with short positions (mirror constructions) update the log of the
  wealth ratio to the market portfolio: measured log-weight increments enter
  linearly and the excess-growth correction enters through the covariance,
  so the update stays finite even when a one-step gross return of the
  short-leveraged basket would not.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _max_last, _sum_last
from .errors import InvalidArgumentError

__all__ = [
    "market_weights",
    "diversity_weighted",
    "mirror_weights",
    "excess_growth",
    "relative_covariance",
    "relative_variance",
    "numeraire_invariance_residual",
    "gross_log_value",
    "relative_log_value",
    "market_value",
]

def market_weights(log_prices: np.ndarray) -> np.ndarray:
    """Capitalization weights from log prices; stable under large spreads."""
    lx = np.asarray(log_prices, dtype=float)
    e = np.exp(lx - _max_last(lx)[..., None])
    return e / _sum_last(e)[..., None]


def diversity_weighted(mu: np.ndarray, p: float) -> np.ndarray:
    """Weights proportional to mu_i**p, 0 < p <= 1.

    p below 1 damps concentration: the largest weight shrinks and the
    smallest grows relative to the market.  p = 1 returns the input.
    """
    if not 0 < p <= 1:
        raise InvalidArgumentError("p must lie in (0, 1]")
    mu = np.asarray(mu, dtype=float)
    if mu.min() <= 0:
        raise InvalidArgumentError("market weights must be strictly positive")
    if p == 1.0:
        return mu.copy()
    w = mu**p
    return w / _sum_last(w)[..., None]


def mirror_weights(pi: np.ndarray, anchor: np.ndarray, p: float) -> np.ndarray:
    """Affine combination p * pi + (1 - p) * anchor; p outside [0, 1] shorts."""
    pi = np.asarray(pi, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    return p * pi + (1.0 - p) * anchor


def excess_growth(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(1/2) (sum_i w_i a_ii - w' a w), vectorized over leading axes."""
    w = np.asarray(w, dtype=float)
    lin = w @ np.diag(a)
    quad = np.einsum("...i,ij,...j->...", w, a, w)
    return 0.5 * (lin - quad)


def relative_covariance(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Covariance of log returns measured relative to the portfolio rho.

    tau_ij = a_ij - (a rho)_i - (a rho)_j + rho' a rho.  The matrix is
    positive semidefinite and annihilates rho.
    """
    rho = np.asarray(rho, dtype=float)
    ar = a @ rho
    rar = float(rho @ ar)
    return a - ar[:, None] - ar[None, :] + rar


def relative_variance(a: np.ndarray, rho: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quadratic form w' tau^rho w = (w - rho)' a (w - rho).  Library API; at
    rho = mu, w = e_1 the whole-path form of ``mirror_study``'s tau."""
    d = np.asarray(w, dtype=float) - np.asarray(rho, dtype=float)
    return np.einsum("...i,ij,...j->...", d, a, d)


def numeraire_invariance_residual(w: np.ndarray, rho: np.ndarray, a: np.ndarray) -> float:
    """How far the excess growth moves when recomputed relative to rho (zero
    in exact arithmetic, for any rho).  Library API, criterion 01's check."""
    tau = relative_covariance(a, rho)
    via_rho = 0.5 * (w @ np.diag(tau) - np.einsum("...i,ij,...j->...", w, tau, w))
    return np.abs(excess_growth(w, a) - via_rho)


# ---------------------------------------------------------------------------
# wealth integration
# ---------------------------------------------------------------------------

def market_value(log_prices: np.ndarray) -> np.ndarray:
    """Wealth of the market portfolio started with the initial total
    capitalization: the total capitalization along the whole path."""
    lx = np.asarray(log_prices, dtype=float)
    mx = _max_last(lx)
    return _sum_last(np.exp(lx - mx[..., None])) * np.exp(mx)


def gross_log_value(weights: np.ndarray, log_prices: np.ndarray) -> np.ndarray:
    """Cumulative log wealth of an all-long rule under the gross-return scheme.

    Per step: log of the portfolio-weighted gross returns of the stocks,
    with weights read at the left endpoint; starts from log wealth 0.
    """
    dlx = np.diff(log_prices, axis=-2)
    gross = _sum_last(weights[..., :-1, :] * np.exp(dlx))
    out = np.zeros(gross.shape[:-1] + (gross.shape[-1] + 1,))
    np.cumsum(np.log(gross), axis=-1, out=out[..., 1:])
    return out


def _relative_log_increments(
    weights: np.ndarray, log_prices: np.ndarray, times: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Per-step increments of log(Z / Z_market) for an arbitrary (possibly
    short) rule, shape (..., K) for K+1 points.

    Per step: sum_i (w_i - mu_i) dlog mu_i plus the excess-growth spread
    times dt, both read at the left endpoint.  Each step reads its own two
    points only, so a path cut in time chunks gives the same increments.
    """
    w = np.asarray(weights, dtype=float)
    lx = np.asarray(log_prices, dtype=float)
    mu = market_weights(lx)
    dlm = np.diff(np.log(mu), axis=-2)
    lin = _sum_last((w - mu)[..., :-1, :] * dlm)
    gap = excess_growth(w, a) - excess_growth(mu, a)
    dt = np.diff(np.asarray(times, dtype=float))
    return lin + gap[..., :-1] * dt


def relative_log_value(
    weights: np.ndarray, log_prices: np.ndarray, times: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Cumulative log(Z / Z_market) for an arbitrary (possibly short) rule:
    the running sum of ``_relative_log_increments``, from 0.  Library API:
    the whole-path reference of ``mirror_study`` and parity-gap's witness."""
    inc = _relative_log_increments(weights, log_prices, times, a)
    return np.concatenate([np.zeros(inc.shape[:-1] + (1,)), np.cumsum(inc, axis=-1)],
                          axis=-1)
