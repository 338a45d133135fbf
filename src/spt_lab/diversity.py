"""Diversity diagnostics: concentration measure, path checks, drift tests.

A market is called diverse on a horizon when the largest capitalization
weight stays below 1 minus a fixed margin on the whole horizon, and weakly
diverse when its time average does.  These are properties of a realized
path; the checks here measure the largest margin a given path certifies.
``diversity_study`` is the diversity-report experiment: it returns
``(metrics, info, checks, tables)`` under the report's names.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _max_last, _min_last, _sum_last
from .checks import Check, PathSum, numbered
from .errors import InvalidArgumentError
from . import markets as _markets
from . import portfolios as _portfolios

__all__ = [
    "diversity_measure",
    "check_diversity",
    "check_barrier_drift_condition",
    "diversity_study",
]


def diversity_measure(x: np.ndarray, p: float) -> np.ndarray:
    """(sum_i x_i**p) ** (1/p) for 0 < p < 1, vectorized over leading axes.

    Concave and symmetric; equals 1 on the vertices of the simplex and is
    maximal at the equal-weight point.  Library API: the log change of this
    measure is the master formula's measure term (``arbitrage``).
    """
    if not 0 < p < 1:
        raise InvalidArgumentError("p must lie in (0, 1)")
    x = np.asarray(x, dtype=float)
    if x.min() < 0:
        raise InvalidArgumentError("weights must be nonnegative")
    return _sum_last(x**p) ** (1.0 / p)


def check_diversity(
    weights: np.ndarray,
    times: np.ndarray,
    delta: float,
    tail_fraction: float,
) -> dict:
    """Measure the diversity margins of a batch of weight paths (B, K+1, n).

    Returns per-path columns (B,): the sup and the time average of the top
    weight (``max_top``, ``avg_top``), the margins ``delta_max = 1 - max_top``
    and ``delta_avg = 1 - avg_top``, the worst trailing-window average
    ``tail_top``, and the verdicts ``is_diverse`` (max_top < 1 - delta) and
    ``is_weakly_diverse`` (avg_top < 1 - delta).  The trailing windows have
    length ``tail_fraction`` times the horizon and end at every grid point
    from the end of the first window on; their worst average proxies the
    long-run behaviour on a finite horizon.
    """
    w = np.asarray(weights, dtype=float)
    t = np.asarray(times, dtype=float)
    if w.ndim != 3 or w.shape[1] != t.shape[0]:
        raise InvalidArgumentError("expected weight paths (B, K+1, n) on the grid of times")
    return _top_margins(_max_last(w), t, delta, tail_fraction)


def _top_margins(top, t, delta, tail_fraction) -> dict:
    """``check_diversity``'s columns from the top weight paths (B, K+1)."""
    if not 0 < delta < 1:
        raise InvalidArgumentError("delta must lie in (0, 1)")
    horizon = t[-1] - t[0]
    if horizon <= 0:
        raise InvalidArgumentError("need a positive horizon")
    avg = np.trapezoid(top, t, axis=-1) / horizon
    mx = top.max(axis=-1)

    window = tail_fraction * horizon
    # cumulative trapezoid of the top weight, then window averages
    cum = np.zeros(top.shape)
    np.cumsum(0.5 * (top[:, 1:] + top[:, :-1]) * np.diff(t), axis=-1, out=cum[:, 1:])
    tail = avg
    start = np.searchsorted(t, t[0] + window)
    if start < len(t):
        ends = np.arange(start, len(t))
        begins = np.minimum(np.searchsorted(t, t[ends] - window), ends - 1)
        tail = np.max((cum[:, ends] - cum[:, begins]) / (t[ends] - t[begins]), axis=-1)
    return {
        "max_top": mx,
        "avg_top": avg,
        "tail_top": tail,
        "delta_max": 1.0 - mx,
        "delta_avg": 1.0 - avg,
        "is_diverse": mx < 1.0 - delta,
        "is_weakly_diverse": avg < 1.0 - delta,
    }


def check_barrier_drift_condition(model, log_prices, times, delta: float, aux=None) -> dict:
    """Verify the drift inequalities that force the top weight off a barrier.

    At each grid point where the top weight lies in [1/2, 1 - delta) the
    defining (uncapped) growth rates must satisfy: every non-leader rate is
    nonnegative, the leader's is nonpositive, and the smallest non-leader
    rate exceeds the leader's by at least the barrier repulsion strength
    minus half the ellipticity floor.  ``log_prices`` is a batch
    (B, K+1, n); ``aux`` holds the integration records the patched model
    needs.  Returns counts and the worst slack.
    """
    gamma = _markets.growth_rates_along(model, log_prices, times, aux=aux)
    w = _portfolios.market_weights(log_prices)
    top = _max_last(w)
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
    g_min_other = _min_last(g_masked)
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


_DIVERSITY_COLUMNS = ("max_top", "avg_top", "tail_top", "delta_max", "delta_avg",
                      "is_diverse", "is_weakly_diverse")


def diversity_study(model, factors, delta: float | None = None,
                    tail_fraction: float = 0.25):
    """Diversity margins of every path, with the raw path statistics.

    Per path: the terminal log prices and weights, the columns of
    ``check_diversity`` at ``delta`` in (0, 1) (None takes the model's
    barrier) and ``tail_fraction`` in (0, 1], and the capped drift entries.
    Per grid time: the mean weight of each stock and the mean top weight,
    summed over paths by ``PathSum``, so no batch size moves them.
    In the barrier market, also checks ``check_barrier_drift_condition`` at
    its own delta on every path.  A patched model reports how many paths
    fired its trigger and when, if any did.

    Each batch is walked in time chunks (``markets.walk``).  A chunk adds
    its weights and top weights to the series, and runs the drift check,
    on its grid points past the one the chunk before ended on; the batch
    keeps its top weight paths (B, K+1), whose margins are taken in row
    blocks of ``markets.batch_paths`` rows at the end.  Every column,
    series and count is the whole paths' bit for bit.
    """
    if delta is None:
        delta = model.params.get("delta")
        if delta is None:
            raise InvalidArgumentError("delta is required when the model carries no barrier")
    if not 0 < delta < 1:
        raise InvalidArgumentError(f"delta {delta!r} must lie in (0, 1)")
    if not 0 < tail_fraction <= 1:
        raise InvalidArgumentError(f"tail_fraction {tail_fraction!r} must lie in (0, 1]")
    n_paths, times = factors.n_paths, factors.grid.times
    barrier = model.kind == "diverse"
    mu_sum, top_sum = PathSum((times.size, model.n)), PathSum(times.size)

    def batch(lo, hi):
        top = np.empty((hi - lo, times.size))
        drift = {"checked": 0, "violations": 0, "worst_slack": np.inf}
        last = {}

        def consume(rows, start, lx, aux):
            stop = start + lx.shape[1]
            mu = _portfolios.market_weights(lx)
            top[:, start:stop] = _max_last(mu)
            a = 1 if start else 0  # skip the point the chunk before ended on
            mu_sum.add(mu[:, a:], start + a)
            top_sum.add(top[:, start + a:stop], start + a)
            # a copy, so the chunk's weights are freed before the drift check
            last.update(term_lx=lx[:, -1], term_mu=mu[:, -1].copy(),
                        trigger=aux.get("trigger_time", np.full(hi - lo, np.nan)))
            del mu
            if barrier:
                got = check_barrier_drift_condition(
                    model, lx[:, a:], times[start + a:stop], model.params["delta"], aux)
                drift["checked"] += got["checked"]
                drift["violations"] += got["violations"]
                drift["worst_slack"] = min(drift["worst_slack"], got["worst_slack"])

        def columns():
            step = _markets.batch_paths(hi - lo, top.itemsize * times.size)
            blocks = [_top_margins(top[i:i + step], times, delta, tail_fraction)
                      for i in range(0, hi - lo, step)]
            out = {key: np.concatenate([b[key] for b in blocks]) for key in _DIVERSITY_COLUMNS}
            out.update(last)
            if barrier:
                out.update({key: [value] for key, value in drift.items()})
            return out

        return consume, columns

    cols = _markets.walk(model, factors, batch)
    metrics = {
        "delta": delta,
        "tail_fraction": tail_fraction,
        "diverse_fraction": float(cols["is_diverse"].mean()),
        "weakly_diverse_fraction": float(cols["is_weakly_diverse"].mean()),
        "min_delta_max": float(cols["delta_max"].min()),
        "min_delta_avg": float(cols["delta_avg"].min()),
        "worst_tail_top": float(cols["tail_top"].max()),
        "mean_terminal_top": float(_max_last(cols["term_mu"]).sum() / n_paths),
    }
    trigger = cols["trigger"]
    if np.isfinite(trigger).any():
        hit = trigger[np.isfinite(trigger)]
        metrics["trigger_fraction"] = float(hit.size / n_paths)
        metrics["trigger_time_mean"] = float(hit.mean())
    checks = []
    if barrier:
        violations = int(cols["violations"].sum())
        checks.append(Check(
            "drift repels the leader wherever the top weight nears the barrier",
            violations == 0,
            f"checked={int(cols['checked'].sum())} violations={violations} "
            f"worst_slack={float(cols['worst_slack'].min()):.6g}", 0.0,
        ))
    tables = {
        "per_path": {
            "path_id": np.arange(n_paths),
            **numbered("log_x", cols["term_lx"]),
            **numbered("mu", cols["term_mu"]),
            **{key: cols[key] for key in _DIVERSITY_COLUMNS},
            "capped_steps": cols["capped_steps"],
        },
        "series": {
            "t": times,
            **numbered("mean_mu", mu_sum.total() / n_paths),
            "mean_top": top_sum.total() / n_paths,
        },
    }
    return metrics, {"capped_steps": int(cols["capped_steps"].sum())}, checks, tables
