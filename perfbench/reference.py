"""Reference values computed without ``spt_lab``, in ``math`` and plain numpy."""

from __future__ import annotations

import math

import numpy as np


def black_scholes_call(spot: float, strike: float, rate: float, vol: float,
                       horizon: float) -> float:
    """Lognormal call price; ``vol`` is the stock's own log volatility."""
    def cdf(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    sq = vol * math.sqrt(horizon)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * horizon) / sq
    return spot * cdf(d1) - strike * math.exp(-rate * horizon) * cdf(d1 - sq)


def foellmer_ladder(horizons, steps_per_unit: int, x0, vol: float, delta: float,
                    rate: float, strike: float, index: int, n_paths: int,
                    seed: int, chunk: int = 250):
    """Deflated call and stock prices of the barrier market, taken under the
    Föllmer measure Q, for each horizon T of the ladder:

        h(T) = e^{-rT} E_Q[(X_T - K)^+ ; tau > T],   s(T) = e^{-rT} E_Q[X_T ; tau > T].

    Under Q every rate of return is r, so the stocks are independent GBMs
    with log volatility ``vol``; tau is the first grid time at which the top
    weight reaches 1 - delta.  One simulation at step dt/2 is monitored
    twice: at every point (dt/2) and at every other point (dt, the grid of
    the program).  Returns ``(mean, se)``, each of shape (2, len(horizons), 2)
    indexed by grid (0: dt, 1: dt/2), rung, and quantity (0: call, 1: stock).
    """
    fine = 2 * steps_per_unit
    rungs = [int(round(fine * t)) for t in horizons]
    k_max = max(rungs)
    dt = 1.0 / fine
    lx0 = np.log(np.asarray(x0, dtype=float))
    n = lx0.size
    rng = np.random.default_rng(seed)
    acc = np.zeros((2, len(rungs), 2, 2))  # ..., (sum, sum of squares)
    for lo in range(0, n_paths, chunk):
        b = min(chunk, n_paths - lo)
        # stock-major layout: the reductions over stocks run on whole rows
        lx = rng.standard_normal((n, b, k_max))
        lx *= vol * math.sqrt(dt)
        lx += (rate - 0.5 * vol * vol) * dt
        np.cumsum(lx, axis=2, out=lx)
        lx += lx0[:, None, None]
        x = np.exp(lx)
        hit = np.max(x, axis=0) >= (1.0 - delta) * np.sum(x, axis=0)
        for g, stride in enumerate((2, 1)):
            h = hit[:, stride - 1::stride]
            first = np.where(h.any(axis=1), (h.argmax(axis=1) + 1) * stride, k_max + 1)
            for j, k in enumerate(rungs):
                xt = x[index, :, k - 1]
                kept = math.exp(-rate * k * dt) * (first > k)
                for q, v in enumerate((np.maximum(xt - strike, 0.0) * kept, xt * kept)):
                    acc[g, j, q] += (v.sum(), (v * v).sum())
    mean = acc[..., 0] / n_paths
    var = np.maximum(acc[..., 1] / n_paths - mean * mean, 0.0) * n_paths / (n_paths - 1)
    return mean, np.sqrt(var / n_paths)
