"""Monte Carlo verification of relative-arbitrage constructions.

Each study simulates a batch of market paths, computes per-path wealth
comparisons, and reduces them to fractions plus worst-case slacks.  A
"probability one" claim is tested as: the comparison holds on every path,
with the worst per-path slack reported.  Inequalities that are exact in
continuous time are checked with a discretization budget of a few
multiples of the one-step-scheme residual measured on the same paths.
Each study is one experiment: ``study(model, factors, **extras)`` returns
``(metrics, info, checks, tables)`` under the report's names.

Per-path reductions happen inside batches, sized by ``markets.walk``
from a byte budget, whose columns it joins in path order; cross-path reductions run once over
the joined columns, so results do not depend on batch size.  Every study
walks each batch in time chunks and reduces chunk by chunk into terminal
values, running sums and running extremes; its sums over time stream
through ``_kernels._RowSum``.  So nothing it holds grows with the horizon,
and every column is the whole path's bit for bit.  The refinement runs of
``master_formula_order_study`` and ``dominance_study`` integrate the
coarse grid in the same walk, from the fine grid's draws.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _RowSum, _carried_cumsum, _max_last, _min_last, _sum_last
from .checks import Check
from .errors import InvalidArgumentError
from . import markets as _markets
from . import paths as _paths
from . import portfolios as _portfolios

__all__ = [
    "threshold_horizon",
    "mirror_exponent",
    "mirror_p",
    "master_formula_check",
    "master_formula_order_study",
    "outperformance_study",
    "mirror_study",
    "dominance_study",
]


def threshold_horizon(n: int, p: float, eps: float, delta: float) -> float:
    """Horizon beyond which the concavely reweighted portfolio must lead:
    2 log(n) / (p * eps * delta)."""
    if n < 2 or not 0 < p < 1 or eps <= 0 or not 0 < delta < 1:
        raise InvalidArgumentError("need n >= 2, p in (0,1), eps > 0, delta in (0,1)")
    return 2.0 * np.log(n) / (p * eps * delta)


def mirror_exponent(eps: float, delta: float, horizon: float, top0: float) -> float:
    """Smallest mirror exponent that forces underperformance by the horizon:
    1 + 2 log(1/top0) / (eps * delta**2 * horizon)."""
    if eps <= 0 or not 0 < delta < 1 or horizon <= 0 or not 0 < top0 < 1:
        raise InvalidArgumentError("bad mirror threshold inputs")
    return 1.0 + 2.0 * np.log(1.0 / top0) / (eps * delta**2 * horizon)


def mirror_p(model, horizon: float, p: float | None, margin: float) -> float:
    """The mirror's exponent: ``p``, or with p None ``margin`` times the
    threshold of ``model``'s barrier over ``horizon``.  Rejects a margin or
    an exponent that does not exceed 1."""
    if not margin > 1:
        raise InvalidArgumentError(f"margin {margin!r} must exceed 1")
    if p is None:
        top0 = float(_max_last(model.x0 / _sum_last(model.x0)))
        p = margin * mirror_exponent(model.vol.eps, model.params["delta"], horizon, top0)
    if not p > 1:
        raise InvalidArgumentError("mirror exponent must exceed 1")
    return p


# ---------------------------------------------------------------------------
# master formula
# ---------------------------------------------------------------------------

def _gross_log_values(heads, lx, weights):
    """The terminal gross log values (``portfolios.gross_log_value``), (B,)
    each, of the rules ``weights`` over a chunk of log prices ``lx``, going
    on from ``heads``, their values at the chunk's first point (None on
    grid step 0)."""
    growth = np.exp(np.diff(lx, axis=1))
    return [_carried_cumsum(np.log(_sum_last(w[:, :-1] * growth)), head)[:, -1].copy()
            for head, w in zip(heads, weights)]


def _master_terms(b: int, n_steps: int, p: float):
    """Per-path terms of the master formula for the weight-p portfolio,
    reduced one time chunk at a time.

    Returns ``(consume, terms)``.  ``consume(lx, mu)`` takes the log prices
    and market weights (B, k+1, n) of each chunk in turn, from grid step 0
    to ``n_steps``, and returns the portfolio's weights on them.
    ``terms()`` returns (B,) each: the terminal log wealth ratio over the
    market, the log change of the concentration measure, and the quadrature
    of the excess growth read off the realized log-weight moves.  The gross
    log values carry their running sums and the quadrature is summed by
    ``_RowSum``, so each term is the whole path's bit for bit.
    """
    log_value = [None, None]  # gross log values of pi and mu
    measure = {}  # log sum of mu**p at grid step 0, and mu at the latest point
    realized = _RowSum(b, n_steps)

    def consume(lx, mu):
        nonlocal log_value
        pi = _portfolios.diversity_weighted(mu, p)
        log_value = _gross_log_values(log_value, lx, (pi, mu))
        measure.setdefault("first", np.log(_sum_last(mu[:, 0, :] ** p)))
        measure["last"] = mu[:, -1, :].copy()
        dlm = np.diff(np.log(mu), axis=1)
        pim = pi[:, :-1, :]
        m1 = _sum_last(pim * dlm)
        realized.add(0.5 * (_sum_last(pim * dlm * dlm) - m1 * m1))
        return pi

    def terms():
        lhs = log_value[0] - log_value[1]
        dterm = (1.0 / p) * (np.log(_sum_last(measure["last"] ** p)) - measure["first"])
        return lhs, dterm, realized.total()

    return consume, terms


def _master_batch(model, grid, p: float):
    """``batch(lo, hi)`` of a walk on ``grid``: each path's master formula
    (``_master_terms``) and its model-covariance quadrature (``_RowSum``),
    reduced chunk by chunk into ``master_formula_check``'s columns."""
    if not 0 < p < 1:
        raise InvalidArgumentError("p must lie in (0, 1)")
    a, dt = model.vol.a, grid.step_sizes
    floor = -(1.0 - p) / p * np.log(model.n)

    def batch(lo, hi):
        master, terms = _master_terms(hi - lo, dt.size, p)
        growth = _RowSum(hi - lo, dt.size)

        def consume(rows, start, lx, aux):
            pi = master(lx, _portfolios.market_weights(lx))[:, :-1, :]
            growth.add(_portfolios.excess_growth(pi, a) * dt[start:start + pi.shape[1]])

        def columns():
            lhs, dterm, realized = terms()
            return {"lhs": lhs, "rhs": dterm + (1.0 - p) * realized,
                    "rhs_model_cov": dterm + (1.0 - p) * growth.total(),
                    "floor_margin": dterm - floor}

        return consume, columns

    return batch


def _master_summary(cols) -> dict:
    lhs, rhs = cols["lhs"], cols["rhs"]
    res, res_model = lhs - rhs, lhs - cols["rhs_model_cov"]
    return {
        "lhs": lhs,
        "rhs": rhs,
        "residual": res,
        "max_abs_residual": float(np.abs(res).max()),
        "mean_abs_residual": float(np.abs(res).mean()),
        "residual_model_cov": res_model,
        "max_abs_residual_model_cov": float(np.abs(res_model).max()),
        "floor_margin_min": float(cols["floor_margin"].min()),
        "capped_steps": int(cols["capped_steps"].sum()),
    }


def master_formula_check(model, factors: _paths.FactorPaths, p: float) -> dict:
    """Decompose the reweighted portfolio's lead over the market.

    Left side: terminal log wealth ratio.  Right side: log change of the
    concentration measure plus (1 - p) times the quadrature of the
    portfolio's excess growth.  The quadrature reads the excess growth off
    each step's realized log-weight moves (their variance under the
    left-endpoint weights); the measure change already carries the same
    realized second-order terms, so they cancel and the residual shrinks
    at first order in the step.  The model-covariance quadrature, whose
    mismatch with the realized one fluctuates at half order, is reported
    alongside.  The measure term can never fall below
    -(1-p)/p * log n; its margin over that floor is returned too, and so is
    the number of drift entries the integrator capped (0 for market kinds
    without a cap).  Each batch is walked in time chunks.
    """
    batch = _master_batch(model, factors.grid, p)
    return _master_summary(_markets.walk(model, factors, batch))


def master_formula_order_study(model, factors: _paths.FactorPaths, p: float = 0.5,
                               refine: int = 2):
    """Self-convergence of the master-formula residual on shared noise.

    One walk integrates each path on its grid and on the grid coarsened by
    ``refine`` (at least 2, dividing the step count), from the same draws,
    so the residual ratio estimates the weak order directly.  The per-path
    table is the fine grid's ``master_formula_check``.
    """
    if refine < 2:
        raise InvalidArgumentError(f"refine {refine!r} must be at least 2")
    dt = factors.grid.dt
    batches = [_master_batch(model, g, p) for g in (factors.grid, factors.grid.coarsened(refine))]
    rf, rc = map(_master_summary, _markets.walk(model, factors, batches, refine=refine))
    ratio = float(rc["mean_abs_residual"] / max(rf["mean_abs_residual"], 1e-300))
    order = float(np.log(ratio) / np.log(refine))
    metrics = {
        "p": p,
        "dt_fine": dt,
        "dt_coarse": dt * refine,
        "mean_abs_residual_fine": rf["mean_abs_residual"],
        "mean_abs_residual_coarse": rc["mean_abs_residual"],
        "max_abs_residual_fine": rf["max_abs_residual"],
        "max_abs_residual_coarse": rc["max_abs_residual"],
        "ratio": ratio,
        "order": order,
        "max_abs_residual_model_cov_fine": rf["max_abs_residual_model_cov"],
        "floor_margin_min": rf["floor_margin_min"],
    }
    # the identity is exact in continuous time and its scheme is first order
    checks = [
        Check("residual shrinks at first order in the step", order >= 0.9,
              f"order={order:.6g} refine={refine}", 0.1),
        Check("decomposition holds on every path within the scheme budget",
              rf["max_abs_residual"] <= 1e-2,
              f"max_residual={rf['max_abs_residual']:.6g} dt={dt:.6g}", 1e-2),
    ]
    per_path = {
        "path_id": np.arange(factors.n_paths),
        **{key: rf[key] for key in ("lhs", "rhs", "residual", "residual_model_cov")},
    }
    info = {"capped_steps": rf["capped_steps"], "capped_steps_coarse": rc["capped_steps"]}
    return metrics, info, checks, {"per_path": per_path}


# ---------------------------------------------------------------------------
# outperformance past the threshold horizon
# ---------------------------------------------------------------------------

def _outperformance_terms(model, factors: _paths.FactorPaths, p: float) -> dict:
    """Per-path terms of ``outperformance_study``, reduced one time chunk of
    the walk at a time.

    Each chunk weighs its own log prices.  The two gross log values carry
    their running sums across chunks (``_gross_log_values``), and the top
    weight times dt is summed by ``_RowSum``, so every column is the
    whole path's bit for bit.
    """
    n, eps = model.n, model.vol.eps
    dt = factors.grid.step_sizes
    horizon = factors.grid.horizon

    def batch(lo, hi):
        b = hi - lo
        top_dt = _RowSum(b, dt.size)
        top_max = np.full(b, -np.inf)
        order_viol = np.zeros(b, np.int64)
        log_value = [None, None]  # gross log values of pi and mu

        def consume(rows, s, seg, aux):
            nonlocal log_value
            mu = _portfolios.market_weights(seg)
            pi = _portfolios.diversity_weighted(mu, p)
            top = _max_last(mu)
            k = seg.shape[1] - 1
            top_dt.add(top[:, :-1] * dt[s:s + k])
            np.maximum(top_max, top.max(axis=1), out=top_max)
            ok = (_max_last(pi) <= top + 1e-12) & (_min_last(pi) >= _min_last(mu) - 1e-12)
            # a chunk's first point is the previous chunk's last
            order_viol[:] += np.sum(~ok[:, 1 if s else 0:], axis=1)
            log_value = _gross_log_values(log_value, seg, (pi, mu))

        def columns():
            term = log_value[0] - log_value[1]
            d = 1.0 - top_dt.total() / horizon
            bound = (1.0 - p) * (eps * d * horizon / 2.0 - np.log(n) / p)
            return {
                "term": term,
                "slack": term - bound,
                "delta_avg": d,
                "delta_max": 1.0 - top_max,
                "order_viol": order_viol,
            }

        return consume, columns

    return _markets.walk(model, factors, batch)


def outperformance_study(model, factors: _paths.FactorPaths, p: float = 0.5):
    """Reweighted portfolio versus the market beyond the threshold horizon.

    The pathwise lower bound is evaluated with each path's own realized
    average diversity margin (left-endpoint average of the top weight), so
    it is a per-path conditional check rather than a model hypothesis;
    where the model has a barrier delta, the threshold horizon and the
    fixed-margin bound are reported too.  Also counts violations of the
    pointwise weight comparisons: the reweighted top weight never exceeds
    the market's, the reweighted bottom never falls under the market's.
    Each batch is walked in time chunks and reduced chunk by chunk into
    these terminal values and running extremes, so no array of its log
    prices spans the horizon.
    """
    if not 0 < p < 1:
        raise InvalidArgumentError("p must lie in (0, 1)")
    n = model.n
    eps = model.vol.eps
    delta = model.params.get("delta")
    horizon = factors.grid.horizon
    cols = _outperformance_terms(model, factors, p)
    term, slack = cols["term"], cols["slack"]
    fraction = float(np.mean(term > 0.0))
    min_slack = float(slack.min())
    violations = int(cols["order_viol"].sum())
    metrics = {
        "p": p,
        "horizon": horizon,
        "fraction": fraction,
        "min_slack": min_slack,
        "weight_order_violations": violations,
        "delta_avg_min": float(cols["delta_avg"].min()),
        "delta_max_min": float(cols["delta_max"].min()),
    }
    if delta is not None:
        metrics["threshold_horizon"] = threshold_horizon(n, p, eps, delta)
        # fixed-margin variant of the bound, for certified models
        bound = (1.0 - p) * (eps * delta * horizon / 2.0 - np.log(n) / p)
        metrics["min_fixed_slack"] = float((term - bound).min())
    checks = [
        Check("market outperformed on every path", fraction == 1.0,
              f"fraction={fraction:g}", 0.0),
        Check("pathwise lower bound respected", min_slack > 0.0,
              f"min_slack={min_slack:.6g}", 0.0),
        # each weight comparison allows 1e-12 of rounding
        Check("reweighting never flips the weight order", violations == 0,
              f"violations={violations}", 1e-12),
    ]
    per_path = {
        "path_id": np.arange(factors.n_paths),
        "terminal_log_ratio": term,
        "a5_slack": slack,
        "delta_avg": cols["delta_avg"],
        "delta_max": cols["delta_max"],
    }
    info = {"capped_steps": int(cols["capped_steps"].sum())}
    return metrics, info, checks, {"per_path": per_path}


# ---------------------------------------------------------------------------
# mirror constructions
# ---------------------------------------------------------------------------

def _mirror_terms(model, factors: _paths.FactorPaths, p: float, beta: float) -> dict:
    """Per-path terms of ``mirror_study`` for exponent ``p`` and initial top
    weight ``beta``, reduced one time chunk of the walk at a time.

    The log wealth ratio carries its running sum across chunks, and the two
    sums over time (the relative variance and the master formula's
    quadrature) go through ``_RowSum``, so every column is the whole
    path's bit for bit; the ceiling gap and the wrap margins keep running
    extremes.
    """
    times = factors.grid.times
    dt = factors.grid.step_sizes
    a = model.vol.a
    e1 = np.zeros(model.n)
    e1[0] = 1.0
    cap82 = (p - 1.0) / beta**p

    def batch(lo, hi):
        b = hi - lo
        tau_int = _RowSum(b, dt.size)
        master, master_terms = _master_terms(b, dt.size, 0.5)
        # lr at the chunk's first point; mu_1 at grid step 0 and at the latest point
        lr_head = mu1_first = mu1_last = None
        ceil_gap_max = np.full(b, -np.inf)
        wrap82 = np.full(b, np.inf)
        wrap83 = np.full(b, np.inf)

        def consume(rows, s, seg, aux):
            nonlocal lr_head, mu1_first, mu1_last
            k = seg.shape[1] - 1
            mu = _portfolios.market_weights(seg)
            what = _portfolios.mirror_weights(e1, mu, p)
            lr = np.empty(seg.shape[:2])  # at the chunk's k+1 points
            lr[:, 0] = 0.0 if lr_head is None else lr_head
            lr[:, 1:] = _carried_cumsum(_portfolios._relative_log_increments(
                what, seg, times[s:s + k + 1], a), lr_head)
            lr_head = lr[:, -1]
            mu1 = mu[..., 0]
            if mu1_first is None:
                mu1_first = mu1[:, :1].copy()
            mu1_last = mu1[:, -1].copy()
            lead = np.log(mu1) - np.log(mu1_first)
            diff = e1 - mu[:, :-1, :]
            tau = np.einsum("bki,ij,bkj->bk", diff, a, diff)
            tau_int.add(tau * dt[s:s + k])
            ratio = np.exp(lr)
            np.maximum(ceil_gap_max, np.max(lr - p * lead, axis=1), out=ceil_gap_max)
            # wrap weights stay nonnegative iff these margins do
            np.minimum(wrap82, np.min(cap82 - (p - 1.0) * ratio, axis=1), out=wrap82)
            np.minimum(wrap83, np.min((p / beta**p) * mu1 - (p - (p - 1.0) * mu1) * ratio,
                                      axis=1), out=wrap83)
            master(seg, mu)

        def columns():
            m_lhs, m_dterm, m_realized = master_terms()
            return {
                "term": lr_head,
                "ceil_gap_max": ceil_gap_max,
                "tau_int": tau_int.total(),
                "base_term_ratio": mu1_last / mu1_first[:, 0],
                "wrap82_margin": wrap82,
                "wrap83_margin": wrap83,
                "master_residual": m_lhs - (m_dterm + 0.5 * m_realized),
            }

        return consume, columns

    return _markets.walk(model, factors, batch)


def mirror_study(model, factors: _paths.FactorPaths, p: float | None = None,
                 margin: float = 1.1):
    """Short-the-market mirror of the first stock, plus its all-long wraps.

    With exponent p above the threshold, the mirror must finish strictly
    behind the market on every path; p None takes ``margin`` times the
    threshold.  Along the way the study records, per path:

    * the running ceiling gap: log wealth ratio minus p times the log move
      of the first stock's weight (nonpositive in continuous time);
    * the accumulated relative variance of the first stock versus the
      market, whose lower bound powers the threshold;
    * the worst sign margins of the two buy-and-hold wraps: the one that
      drowns the mirror in market holdings (underperformer) and the one
      that shorts the mirror against market holdings (outperformer); both
      must stay all-long, and their terminal values must straddle the
      market's, scaled by their starting capital;
    * the master-formula residual of the diversity-weighted portfolio with
      exponent 1/2 on the same path, whose largest size times p is the
      scheme's discrepancy that the running ceiling gap may show.

    The underperformer is Example 8.2's wrap, the outperformer Example 8.3's.
    """
    if model.kind not in ("diverse", "patched"):
        raise InvalidArgumentError("mirror study expects a diversity-controlled model")
    delta = model.params["delta"]
    eps = model.vol.eps
    horizon = factors.grid.horizon
    beta = float(_max_last(model.x0 / _sum_last(model.x0)))
    p_star = mirror_exponent(eps, delta, horizon, beta)
    p = mirror_p(model, horizon, p, margin)
    z82 = 1.0 + (p - 1.0) / beta**p
    zeta83 = p / beta**p - 1.0

    cols = _mirror_terms(model, factors, p, beta)
    term, tau_int, ceil_gap_max = cols["term"], cols["tau_int"], cols["ceil_gap_max"]

    eta_needed = float(2.0 * np.log(1.0 / beta) / (p - 1.0))
    ratio_t = np.exp(term)
    under_gap = (1.0 - ratio_t) / z82       # positive iff value < z * market
    out_gap = (1.0 - ratio_t) / zeta83      # positive iff value > zeta * market
    metrics = {
        "p": float(p),
        "p_threshold": float(p_star),
        "beta": beta,
        "horizon": horizon,
        "fraction_under": float(np.mean(term < 0.0)),
        "worst_terminal_log_ratio": float(term.max()),
        "worst_ceiling_gap": float(ceil_gap_max.max()),
        "tau_integral_min": float(tau_int.min()),
        "eta_needed": eta_needed,
        "eta_model": float(eps * delta**2 * horizon),
        "hypothesis_fraction": float(
            np.mean((tau_int >= eta_needed) & (cols["base_term_ratio"] <= 1.0 / beta + 1e-12))
        ),
        "underperformer_capital": float(z82),
        "outperformer_capital": float(zeta83),
        "underperformer_fraction": float(np.mean(under_gap > 0.0)),
        "outperformer_fraction": float(np.mean(out_gap > 0.0)),
        "underperformer_weight_margin_min": float(cols["wrap82_margin"].min()),
        "outperformer_weight_margin_min": float(cols["wrap83_margin"].min()),
    }
    m = metrics
    residual = float(np.abs(cols["master_residual"]).max())
    # the running ceiling is exact in continuous time; on the grid it may
    # overshoot by the scheme's per-path discrepancy scaled by the exponent
    ceiling_budget = 3.0 * m["p"] * residual
    checks = [
        Check("mirror finishes behind the market on every path",
              m["fraction_under"] == 1.0, f"fraction={m['fraction_under']:g}", 0.0),
        Check("accumulated relative variance clears the threshold on every path",
              m["tau_integral_min"] >= eta_needed,
              f"min={m['tau_integral_min']:.6g} needed={eta_needed:.6g}", 0.0),
        Check("running log wealth ratio stays under the ceiling",
              m["worst_ceiling_gap"] <= ceiling_budget,
              f"worst_gap={m['worst_ceiling_gap']:.6g} master_residual={residual:.6g}",
              ceiling_budget),
        Check("drowned mirror stays all-long", m["underperformer_weight_margin_min"] >= 0.0,
              f"margin={m['underperformer_weight_margin_min']:.6g}", 0.0),
        Check("shorted mirror wrap stays all-long", m["outperformer_weight_margin_min"] >= 0.0,
              f"margin={m['outperformer_weight_margin_min']:.6g}", 0.0),
        Check("drowned mirror underperforms scaled market on every path",
              m["underperformer_fraction"] == 1.0,
              f"fraction={m['underperformer_fraction']:g}", 0.0),
        Check("shorted mirror outperforms scaled market on every path",
              m["outperformer_fraction"] == 1.0,
              f"fraction={m['outperformer_fraction']:g}", 0.0),
    ]
    per_path = {
        "path_id": np.arange(factors.n_paths),
        "terminal_log_ratio": term,
        "ceiling_gap_max": ceil_gap_max,
        "tau_integral": tau_int,
        "under_gap": under_gap,
        "out_gap": out_gap,
    }
    info = {"capped_steps": int(cols["capped_steps"].sum())}
    return metrics, info, checks, {"per_path": per_path}


# ---------------------------------------------------------------------------
# instantaneous dominance
# ---------------------------------------------------------------------------

def _dominance_terms(model, factors: _paths.FactorPaths):
    """All-in on the runaway stock until it gives back half its head start,
    on ``factors``' grid and on the same paths coarsened by two, in one
    walk: one dict per grid.

    On each path the strategy holds only the second stock throughout the
    early phase, handing back to the market at the first grid time the log
    lead drops to half the deterministic head start (the early power drift,
    in force while the lead stays inside the inner band) or at the end of
    that phase, whichever comes first.  Up to the handback the lead sits at
    or above a strictly positive barrier, so in continuous time the
    strategy beats the market at every positive time with certainty; on a
    grid the only failures are single steps that dive through the barrier
    and zero at once, and those vanish under refinement.  Both stocks start
    equal, so the strategy is ahead at every positive grid time exactly
    when the lead is positive at every grid time up to the handback;
    afterwards the wealth ratio is frozen.  Returns per path the lowest
    lead up to the handback, the handback and exit indices, and the
    confinement breaches after the exit, reduced chunk by chunk: the kernel
    records the exit once it steps from it, so after a chunk it is final
    for every exit before the chunk's last point.
    """
    if model.kind != "dominance":
        raise InvalidArgumentError("dominance study needs the dominance model")
    eta, alpha = model.params["eta"], model.params["alpha"]

    def on(grid):
        k_steps, barrier = grid.n_steps, 0.5 * np.power(grid.times[1:], alpha)

        def batch(lo, hi):
            cols = {"min_lead": np.full(hi - lo, np.inf), "switch_index": np.zeros(hi - lo, int),
                    "exit_index": None, "breaches": np.zeros(hi - lo, int)}

            def consume(rows, start, lx, aux):
                y = lx[..., 1] - lx[..., 0]  # the log lead at points start..start+k
                k = y.shape[1] - 1
                points = np.arange(start, start + k + 1)
                t1 = cols["exit_index"] = aux["exit_index"]
                # the handback: the first point at or past the exit (the end
                # without one), or after the start with the lead on the barrier
                ends = points >= np.where(t1 >= 0, np.maximum(t1, 1), k_steps)[:, None]
                ends[:, 1:] |= y[:, 1:] <= barrier[start:start + k]
                first = np.where(ends.any(axis=1), np.argmax(ends, axis=1), k + 1)
                live = cols["switch_index"] == 0
                lead = np.where(np.arange(1, k + 1) <= first[:, None], y[:, 1:], np.inf)
                np.minimum(cols["min_lead"], lead.min(axis=1), out=cols["min_lead"], where=live)
                cols["switch_index"][live & (first <= k)] = (start + first)[live & (first <= k)]
                after = points[1:] > np.where(t1 >= 0, t1, k_steps)[:, None]
                cols["breaches"] += np.sum(after & (np.abs(y[:, 1:]) >= eta), axis=1)

            return consume, lambda: cols

        return batch

    grids = (factors.grid, factors.grid.coarsened(2))
    pair = _markets.walk(model, factors, [on(g) for g in grids], refine=2)
    return [{**cols, "fraction": float(np.mean(cols["min_lead"] > 0.0)),
             "confinement_breaches": int(cols["breaches"].sum())} for cols in pair]


def dominance_study(model, factors: _paths.FactorPaths, min_fraction: float = 0.99):
    """The early-lead strategy of ``_dominance_terms`` on ``factors`` and on
    the same paths coarsened by two: the strategy must lead on at least
    ``min_fraction`` (in [0, 1]) of the paths, and neither its leading
    fraction nor the confinement breaches may get worse under refinement."""
    if not 0 <= min_fraction <= 1:
        raise InvalidArgumentError(f"min_fraction {min_fraction!r} must lie in [0, 1]")
    fine, coarse = _dominance_terms(model, factors)
    k_steps = factors.grid.n_steps
    fraction, breaches = fine["fraction"], fine["confinement_breaches"]
    metrics = {
        "fraction": fraction,
        "worst_lead": float(fine["min_lead"].min()),
        "switch_found_fraction": float(np.mean(fine["switch_index"] < k_steps)),
        "confinement_breaches": breaches,
        "capped_steps": int(fine["capped_steps"].sum()),
        "n_steps": k_steps,
        "min_fraction": min_fraction,
    }
    checks = [
        Check("second stock leads at every grid time until the handback",
              fraction >= min_fraction, f"fraction={fraction:g} floor={min_fraction:g}",
              1.0 - min_fraction),
        Check("the leading fraction does not fall under refinement",
              fraction >= coarse["fraction"], f"fine={fraction:g} coarse={coarse['fraction']:g}",
              0.0),
        Check("confinement breaches do not grow under refinement",
              breaches <= coarse["confinement_breaches"],
              f"fine={breaches} coarse={coarse['confinement_breaches']}", 0.0),
    ]
    per_path = {
        "path_id": np.arange(factors.n_paths),
        **{key: fine[key] for key in ("min_lead", "switch_index", "exit_index")},
        "dominated": fine["min_lead"] > 0.0,
    }
    return metrics, {}, checks, {"per_path": per_path}
