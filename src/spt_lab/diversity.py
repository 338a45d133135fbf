"""Diversity diagnostics: concentration measure, path checks, drift tests.

A market is called diverse on a horizon when the largest capitalization
weight stays below 1 minus a fixed margin on the whole horizon, and weakly
diverse when its time average does.  These are properties of a realized
path; the checks here measure the largest margin a given path certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from . import markets as _markets
from . import portfolios as _portfolios

__all__ = [
    "diversity_measure",
    "diversity_measure_bounds",
    "DiversityReport",
    "check_diversity",
    "check_barrier_drift_condition",
]


def diversity_measure(x: np.ndarray, p: float) -> np.ndarray:
    """(sum_i x_i**p) ** (1/p) for 0 < p < 1, vectorized over leading axes.

    Concave and symmetric; equals 1 on the vertices of the simplex and is
    maximal at the equal-weight point.
    """
    if not 0 < p < 1:
        raise InvalidArgumentError("p must lie in (0, 1)")
    x = np.asarray(x, dtype=float)
    if x.min() < 0:
        raise InvalidArgumentError("weights must be nonnegative")
    return np.sum(x**p, axis=-1) ** (1.0 / p)


def diversity_measure_bounds(n: int, p: float):
    """Range of the measure on the weight simplex: [1, n ** ((1-p)/p)]."""
    if n < 1:
        raise InvalidArgumentError("need at least one stock")
    if not 0 < p < 1:
        raise InvalidArgumentError("p must lie in (0, 1)")
    return 1.0, float(n) ** ((1.0 - p) / p)


@dataclass(frozen=True)
class DiversityReport:
    """Margins certified by one weight path."""

    max_top: float            # sup of the largest weight
    avg_top: float            # time average of the largest weight
    delta_max: float          # 1 - max_top; diverse margin (uniform)
    delta_avg: float          # 1 - avg_top; weakly diverse margin
    tail_top: float           # worst trailing-window average of the top weight
    tail_window: float        # window length used for the trailing average
    is_diverse: bool
    is_weakly_diverse: bool

    def line(self) -> str:
        return (
            f"max_top={self.max_top:.6f} avg_top={self.avg_top:.6f} "
            f"delta_max={self.delta_max:.6f} delta_avg={self.delta_avg:.6f} "
            f"tail_top={self.tail_top:.6f}"
        )


def check_diversity(
    weight_path: np.ndarray,
    times: np.ndarray,
    delta: float,
    tail_fraction: float = 0.25,
) -> DiversityReport:
    """Measure the diversity margins of one weight path.

    The trailing-window statistic takes the worst average of the top weight
    over windows of length ``tail_fraction`` times the horizon anchored at
    the right end of every grid point from the end of the first window on;
    it proxies the long-run behaviour on a finite horizon.
    """
    w = np.asarray(weight_path, dtype=float)
    t = np.asarray(times, dtype=float)
    if w.ndim != 2 or w.shape[0] != t.shape[0]:
        raise InvalidArgumentError("weight path and times disagree")
    if not 0 < delta < 1:
        raise InvalidArgumentError("delta must lie in (0, 1)")
    top = w.max(axis=1)
    horizon = t[-1] - t[0]
    if horizon <= 0:
        raise InvalidArgumentError("need a positive horizon")
    avg = float(np.trapezoid(top, t) / horizon)
    mx = float(top.max())

    window = tail_fraction * horizon
    # cumulative trapezoid of the top weight, then window averages
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (top[1:] + top[:-1]) * np.diff(t))])
    tail = avg
    start = np.searchsorted(t, t[0] + window)
    if start < len(t):
        ends = np.arange(start, len(t))
        begins = np.searchsorted(t, t[ends] - window)
        begins = np.minimum(begins, ends - 1)
        spans = t[ends] - t[begins]
        tail = float(np.max((cum[ends] - cum[begins]) / spans))

    return DiversityReport(
        max_top=mx,
        avg_top=avg,
        delta_max=1.0 - mx,
        delta_avg=1.0 - avg,
        tail_top=tail,
        tail_window=window,
        is_diverse=bool(mx < 1.0 - delta),
        is_weakly_diverse=bool(avg < 1.0 - delta),
    )


def check_barrier_drift_condition(model, log_prices, times, delta: float, aux=None) -> dict:
    """Verify the drift inequalities that force the top weight off a barrier.

    At each grid point where the top weight lies in [1/2, 1 - delta) the
    defining (uncapped) growth rates must satisfy: every non-leader rate is
    nonnegative, the leader's is nonpositive, and the smallest non-leader
    rate exceeds the leader's by at least the barrier repulsion strength
    minus half the ellipticity floor.  ``log_prices`` is one path (K+1, n)
    or a batch (B, K+1, n); ``aux`` holds the integration records the
    patched model needs.  Returns counts and the worst slack.
    """
    gamma = _markets.growth_rates_along(model, log_prices, times, aux=aux)
    w = _portfolios.market_weights(log_prices)
    top = w.max(axis=-1)
    zone = (top >= 0.5) & (top < 1.0 - delta)
    checked = int(np.count_nonzero(zone))
    if checked == 0:
        return {"checked": 0, "violations": 0, "worst_slack": np.inf}
    g = gamma[zone]
    rows = np.arange(checked)
    lead = np.argmax(w[zone], axis=-1)
    g_lead = g[rows, lead]
    g_masked = g.copy()
    g_masked[rows, lead] = np.inf
    g_min_other = g_masked.min(axis=1)
    q = np.log((1.0 - delta) / top[zone])
    need = model.vol.big_m / (delta * np.maximum(q, 1e-300)) - 0.5 * model.vol.eps
    slack = np.minimum.reduce(
        [
            g_min_other,                      # non-leaders push up
            -g_lead,                          # leader pushed down
            g_min_other - g_lead - need,      # spread beats the barrier term
        ]
    )
    return {
        "checked": checked,
        "violations": int(np.count_nonzero(slack < 0)),
        "worst_slack": float(slack.min()),
    }
