"""End-to-end verification suite, one test per headline property.

Every test fixes its model, grid, seeds, and tolerance, computes a
verdict, and emits a single ``criterion NN: PASS/FAIL`` line (echoed
after the run by conftest.py).  Oracle values were computed away from
the simulation code before these experiments were wired up and are
frozen here as literals; nothing below fits a constant to the output it
is checking.

A criterion that checks the claim of a shipped preset in ``configs/``
(02, 04, 05, 08, 09, 10 and 11) runs that preset through ``cli.run``, with
its path count, master seed and step count pinned here, and passes when
every check of the report passes; each check states its own budget.
Such a criterion adds only what the preset does not check: the frozen
oracle (08), that the preset's horizon is past the threshold (04), the
deflator deficit and an independent knock-out reference (09, 10), or the
parity witness read off whole paths (10).
"""

import math
import textwrap
from pathlib import Path

import numpy as np

from spt_lab import cli, markets, paths, portfolios, ranks
from spt_lab.checks import compensated_mean_se
from helpers import (CoarsenedFactors, knock_out_ladder, random_covariance, random_simplex,
                     whole_path_parity_witness)

CRITERION_LINES = []

# frozen oracles (closed forms and quadratures computed independently)
MEAN_ABS_GAUSSIAN = 0.7978845608028654       # sqrt(2/pi) = E|W(1)|
TOP_WEIGHT_MEAN = 0.6748568252669757         # E[1/(1+e^-|Z|)], Z standard normal
TOP_WEIGHT_TAIL = 0.16565703800339682        # 2 (1 - Phi(log 4))
CALL_PRICE_LOGNORMAL = 0.16728424634840483   # spot 1, strike 1, r 3%, vol 25%, T 2

PRESETS = Path(__file__).resolve().parents[1] / "configs"


def _record(num, label, ok, detail):
    line = "criterion %02d: %s  %s  (%s)" % (num, "PASS" if ok else "FAIL", label, detail)
    print(line)
    CRITERION_LINES.append(line)
    return bool(ok)


def _run_preset(stem, paths, seed, steps):
    """Report of a shipped preset run with pinned paths, seed and steps."""
    cfg = cli.parse_config(str(PRESETS / f"{stem}.ini"), paths=paths, seed=seed, steps=steps)
    return cli.run(cfg)


def _check(report, start):
    """The report's check whose label starts with ``start``."""
    return next(c for c in report.assertions if c.label.startswith(start))


def _failed(report):
    """Tail for a criterion line naming each failed check of the report."""
    return "".join(f"; FAIL {c.label} ({c.detail})" for c in report.failed)


def _barrier_market(scale=1.0):
    """Leader-repelled market used across several criteria."""
    return markets.diverse_market(sigma=scale * np.eye(3), g=np.zeros(3),
                                  delta=0.3, x0=(1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# 1: exact portfolio algebra on random instances
# ---------------------------------------------------------------------------

def test_criterion_01_identity_suite():
    rng = np.random.default_rng(4001)
    max_ni = 0.0
    max_mirror = 0.0
    max_quad = 0.0
    min_margin = np.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        a, lam = random_covariance(rng, n)
        eps, big_m = float(lam.min()), float(lam.max())
        w = random_simplex(rng, 1, n)[0]
        rho = random_simplex(rng, 1, n)[0]

        max_ni = max(max_ni, float(portfolios.numeraire_invariance_residual(w, rho, a)))

        # mirror map: composition, inversion, quadratic variance scaling
        p = rng.uniform(0.3, 2.5)
        q = rng.uniform(0.3, 2.5)
        mp = portfolios.mirror_weights(w, rho, p)
        comp = portfolios.mirror_weights(mp, rho, q)
        direct = portfolios.mirror_weights(w, rho, p * q)
        back = portfolios.mirror_weights(mp, rho, 1.0 / p)
        max_mirror = max(max_mirror,
                         float(np.abs(comp - direct).max()),
                         float(np.abs(back - w).max()))
        v_w = float(portfolios.relative_variance(a, rho, w))
        v_m = float(portfolios.relative_variance(a, rho, mp))
        max_quad = max(max_quad, abs(v_m - p * p * v_w) / max(1.0, v_w))

        # relative covariance: symmetry, annihilates the baseline, matches
        # the quadratic form
        tau = portfolios.relative_covariance(a, rho)
        max_quad = max(max_quad,
                       float(np.abs(tau - tau.T).max()),
                       float(np.abs(tau @ rho).max()),
                       abs(float(w @ tau @ w) - v_w) / max(1.0, v_w))

        # spectrum bounds: excess growth sandwich, per-asset variance bands,
        # baseline-relative variance floor
        g = float(portfolios.excess_growth(w, a))
        straight = 1.0 - float(w @ w)
        margins = [
            g - 0.5 * eps * straight,
            0.5 * big_m * straight - g,
            g - 0.5 * eps * (1.0 - float(w.max())),
            v_w - eps * float((w - rho) @ (w - rho)),
        ]
        one = 1.0 - rho
        margins.append(float((np.diag(tau) - eps * one**2).min()))
        margins.append(float((big_m * one * (1.0 + one) - np.diag(tau)).min()))
        min_margin = min(min_margin, min(margins))

    ok = (max_ni <= 1e-10 and max_mirror <= 1e-12 and max_quad <= 1e-12
          and min_margin >= -1e-10)
    assert _record(
        1, "portfolio identity and bound sweep", ok,
        f"ni {max_ni:.1e}, mirror {max_mirror:.1e}, quad {max_quad:.1e}, "
        f"worst margin {min_margin:.1e}")


# ---------------------------------------------------------------------------
# 2: pathwise decomposition of the reweighted portfolio's lead
# ---------------------------------------------------------------------------

def test_criterion_02_master_decomposition():
    report = _run_preset("master_formula", paths=1_024, seed=202, steps=2_000)
    m = report.metrics
    assert _record(
        2, "wealth-ratio decomposition residual", not report.failed,
        f"order {m['order']:.2f} (need >= 0.9), max residual "
        f"{m['max_abs_residual_fine']:.1e} at dt {m['dt_fine']:.0e} (need <= 1e-2)"
        + _failed(report))


# ---------------------------------------------------------------------------
# 3: the repelled market stays diverse; breaches vanish under refinement
# ---------------------------------------------------------------------------

def test_criterion_03_diversity_holds():
    model = _barrier_market()
    ceiling = 1.0 - 0.3
    grid = paths.make_grid(5.0, 10_000)
    fine = paths.generate_factors(grid, 3, 500, master_seed=211)

    def census(grid):
        """Per path, the grid points whose top weight is at or past the
        ceiling, and whether there is none, read chunk by chunk."""
        def batch(lo, hi):
            breaches, top_max = np.zeros(hi - lo, np.int64), np.full(hi - lo, -np.inf)

            def consume(rows, start, lx, aux):
                # a chunk's first point is the previous chunk's last
                top = np.max(portfolios.market_weights(lx[:, 1 if start else 0:]), axis=-1)
                breaches[:] += np.sum(top >= ceiling, axis=1)
                np.maximum(top_max, np.max(top, axis=1), out=top_max)

            return consume, lambda: {"breaches": breaches, "diverse": top_max < ceiling}

        return batch

    # one walk integrates the fine grid and the grid coarsened by two on the
    # same Brownian paths
    grids = (grid, grid.coarsened(2))
    cols = markets.walk(model, fine, [census(g) for g in grids], 100, refine=2)
    (breach_fine, _), (breach_coarse, frac) = (
        (c["breaches"].sum() / (fine.n_paths * (g.n_steps + 1)), c["diverse"].mean())
        for c, g in zip(cols, grids))
    shrinks = breach_fine < breach_coarse or breach_fine == breach_coarse == 0.0
    ok = frac >= 0.99 and shrinks
    assert _record(
        3, "diversity of the barrier market", ok,
        f"diverse fraction {frac:.3f} at dt 1e-3 (need >= 0.99), "
        f"breach fraction {breach_coarse:.2e} -> {breach_fine:.2e} at dt 5e-4")


# ---------------------------------------------------------------------------
# 4: outperformance beyond the threshold horizon, with per-path slack
# ---------------------------------------------------------------------------

def test_criterion_04_outperformance_past_threshold():
    report = _run_preset("arbitrage_45", paths=500, seed=211, steps=15_000)
    m = report.metrics
    ok = not report.failed and m["horizon"] >= m["threshold_horizon"]
    assert _record(
        4, "reweighted portfolio leads at the threshold horizon", ok,
        f"T {m['horizon']:g} (threshold {m['threshold_horizon']:.2f}), fraction "
        f"{m['fraction']:.3f} (need 1.0), min slack {m['min_slack']:.2e} (need > 0)"
        + _failed(report))


# ---------------------------------------------------------------------------
# 5: short-the-leader mirror and its all-long wraps
# ---------------------------------------------------------------------------

def test_criterion_05_mirror_and_wraps():
    report = _run_preset("mirror_81", paths=500, seed=307, steps=15_000)
    m = report.metrics
    # the running-ceiling budget is the decomposition's per-path scheme
    # discrepancy on the same paths, scaled by the mirror exponent
    gap = _check(report, "running log wealth ratio")
    wraps = [c.detail for c in report.assertions if c.label.startswith(("drowned", "shorted"))]
    assert _record(
        5, "mirror underperforms, wraps stay long and straddle", not report.failed,
        f"p {m['p']:.2f}, fraction {m['fraction_under']:.3f}, ceiling gap "
        f"{m['worst_ceiling_gap']:.2e} vs {gap.budget:.2e}, wrap {', '.join(wraps)}"
        + _failed(report))


# ---------------------------------------------------------------------------
# 6: mean-reverting two-stock market against its Gaussian oracles
# ---------------------------------------------------------------------------

def test_criterion_06_stationary_top_weight():
    model = markets.ou_two_stock(alpha=0.5)
    grid = paths.make_grid(2_000.0, 200_000)
    f = paths.generate_factors(grid, 2, 1, master_seed=606)
    lx = markets.simulate_block(model, f, 0, 1)[0][0]
    top = np.max(portfolios.market_weights(lx), axis=-1)
    avg = float(np.trapezoid(top, grid.times)) / grid.horizon

    tail_grid = paths.make_grid(2.0, 200)
    tf = paths.generate_factors(tail_grid, 2, 10_000, master_seed=607)

    def per_batch(lo, hi, lx, aux):
        w = portfolios.market_weights(lx[:, -1, :])
        return {"hit": np.max(w, axis=-1) >= 0.8}

    frac = float(markets.run_batches(model, tf, per_batch, batch_size=2_000)["hit"].mean())
    se = math.sqrt(frac * (1.0 - frac) / tf.n_paths)
    ok = abs(avg - TOP_WEIGHT_MEAN) <= 0.02 and abs(frac - TOP_WEIGHT_TAIL) <= 3.0 * se
    assert _record(
        6, "ergodic average and tail of the top weight", ok,
        f"time average {avg:.4f} vs {TOP_WEIGHT_MEAN:.4f} (tol 0.02), "
        f"tail {frac:.4f} vs {TOP_WEIGHT_TAIL:.4f} +- {3.0 * se:.4f}")


# ---------------------------------------------------------------------------
# 7: local-time estimator against the Gaussian oracle; ranked bookkeeping
# ---------------------------------------------------------------------------

def test_criterion_07_local_time_and_ranked_decomposition():
    rng = np.random.default_rng(701)
    k_steps = 10_000
    terminal = np.empty(10_000)
    for b in range(10):
        z = rng.standard_normal((1_000, k_steps)) * math.sqrt(1.0 / k_steps)
        w = np.concatenate([np.zeros((1_000, 1)), np.cumsum(z, axis=1)], axis=1)
        terminal[b * 1_000:(b + 1) * 1_000] = ranks.estimate_local_time(w)[:, -1]
    mean = float(terminal.mean())
    rel_err = abs(mean - MEAN_ABS_GAUSSIAN) / MEAN_ABS_GAUSSIAN

    model = markets.ou_two_stock(alpha=0.5)
    grid = paths.make_grid(2.0, 20_000)
    fine = paths.generate_factors(grid, 2, 16, master_seed=702)
    rel = []
    for factors in (fine, CoarsenedFactors(fine, 2)):
        lx, aux = markets.simulate_block(model, factors, 0, 16)
        dv = factors.block(0, 16) @ model.vol.sigma.T
        res = ranks.ranked_decomposition(model, lx, dv, factors.grid.times, aux)
        rel.append(float(np.mean(res["relative_model"])))
    ok = rel_err <= 0.02 and rel[0] <= 0.05 and rel[0] < rel[1]
    assert _record(
        7, "local-time oracle and ranked decomposition", ok,
        f"E[local time] {mean:.4f} vs {MEAN_ABS_GAUSSIAN:.4f} (rel {rel_err:.3f}, "
        f"tol 0.02), ranked residual {rel[0]:.4f} at dt 1e-4 "
        f"(need <= 0.05, coarse {rel[1]:.4f})")


# ---------------------------------------------------------------------------
# 8: martingale-regime call price against the lognormal closed form
# ---------------------------------------------------------------------------

def test_criterion_08_hedge_price_matches_closed_form():
    report = _run_preset("hedge_price", paths=100_000, seed=41, steps=200)
    m = report.metrics
    gap = m["price"] - CALL_PRICE_LOGNORMAL
    ok = not report.failed and abs(gap) <= 3.0 * m["se"]
    assert _record(
        8, "deflated call price vs lognormal closed form", ok,
        f"price {m['price']:.5f} vs {CALL_PRICE_LOGNORMAL:.5f}, "
        f"gap {gap:+.1e} vs 3se {3.0 * m['se']:.1e}" + _failed(report))


# ---------------------------------------------------------------------------
# 9: deflator deficit evidence and the decaying call ladder
# ---------------------------------------------------------------------------

def test_criterion_09_deflator_deficit_and_call_decay():
    n_paths = 5_000
    report = _run_preset("call_decay", paths=n_paths, seed=77, steps=100)
    info, call, stock = report.info, report.tables["table"], report.tables["stock"]
    horizons = call["T"].tolist()
    # deficit 1 - E_P[L(T)] = 1 - Q(tau > T) at T = 20, monitored at dt and at
    # 2 dt, with the Bernoulli standard error of the knocked-out share
    j20 = horizons.index(20.0)
    fine, coarse = ({"deficit": info[key][j20] / n_paths}
                    for key in ("knocked_out", "knocked_out_2dt"))
    for d in (fine, coarse):
        d["se"] = math.sqrt(d["deficit"] * (1.0 - d["deficit"]) / n_paths)
        d["t_stat"] = d["deficit"] / d["se"] if d["se"] > 0 else float("inf")
    ok_deficit = (fine["deficit"] > 0 and coarse["deficit"] > 0
                  and fine["t_stat"] >= 3.0 and coarse["t_stat"] >= 2.0)
    # each rung against an independent knock-out simulated at dt / 2: within
    # 4 combined se plus the monitoring budget, since the error of monitoring
    # at dt shrinks like sqrt(dt), |value at dt - value at dt/2| / (1 - 1/sqrt 2)
    ref, ref_se = knock_out_ladder(horizons, 100, (1.0, 1.0, 1.0), 0.25 * np.eye(3), 0.3,
                                   0.03, 1.0, 0, 4_000, seed=2008)
    budget = np.abs(ref[0] - ref[1]) / (1.0 - math.sqrt(0.5))
    worst = max(
        abs(est[j] - ref[0, j, q]) / (4.0 * math.hypot(se[j], ref_se[0, j, q]) + budget[j, q])
        for j in range(len(horizons))
        for q, (est, se) in enumerate(((call["h_hat"], call["stderr"]),
                                       (stock["deflated_stock"], stock["stderr"]))))
    ok = ok_deficit and not report.failed and worst <= 1.0
    assert _record(
        9, "deflator deficit and call-price decay", ok,
        f"deficit {fine['deficit']:.3f} +- {fine['se']:.4f} (t {fine['t_stat']:.1f}, "
        f"need >= 3) / coarse t {coarse['t_stat']:.1f} (need >= 2); prices "
        f"{call['h_hat'][0]:.3f}..{call['h_hat'][-1]:.1e} below spot, monotone and "
        f"under the envelope; worst miss of the reference {worst:.2f} of its budget "
        f"(need <= 1)" + _failed(report))


# ---------------------------------------------------------------------------
# 10: parity gap witness with a constant-coefficient control
# ---------------------------------------------------------------------------

def test_criterion_10_parity_failure_with_control():
    cfg = cli.parse_config(str(PRESETS / "parity_gap.ini"), paths=20_000, seed=53, steps=800)
    report = cli.run(cfg)
    m = report.metrics
    # h1 and h2 bit for bit as read off whole paths of the preset's own
    # factors, batch by batch: the chunked pass carries the mirror's value
    factors = paths.generate_factors(cfg.grid, cfg.model.m, cfg.n_paths, cfg.master_seed)
    h1_vals, h2_vals = (np.concatenate(v) for v in zip(*(
        whole_path_parity_witness(cfg.model, factors, m["p"], lo, min(lo + 500, cfg.n_paths))
        for lo in range(0, cfg.n_paths, 500))))
    whole = (compensated_mean_se(h1_vals)[0], compensated_mean_se(h2_vals)[0])
    exact = (m["h1"], m["h2"]) == whole
    # h1 against an independent knock-out simulated at dt / 2, within 4
    # combined se plus the monitoring budget, as in criterion 09
    model = _barrier_market(scale=0.25)
    ref, ref_se = knock_out_ladder((4.0,), 200, model.x0, model.vol.sigma, 0.3, 0.0, 1.0, 0,
                                   8_000, seed=2010)
    budget = abs(ref[0, 0, 2] - ref[1, 0, 2]) / (1.0 - math.sqrt(0.5))
    miss = abs(m["h1"] - ref[0, 0, 2]) / (4.0 * math.hypot(m["h1_se"], ref_se[0, 0, 2])
                                          + budget)
    assert _record(
        10, "parity breaks at the witness, holds in the control",
        not report.failed and miss <= 1.0 and exact,
        f"witness gap {m['gap']:.4f} (t {m['t_stat']:.1f}, need > 3), "
        f"control t {m['control_t_stat']:+.2f} (need within 3), deflated values "
        f"{m['h1']:.3f}/{m['h2']:.1e} (need <= 1 + 3 se, and the whole paths' "
        f"{whole[0]:.3f}/{whole[1]:.1e} bit for bit), h1 misses the reference "
        f"{ref[0, 0, 2]:.4f} by {miss:.2f} of its budget (need <= 1)" + _failed(report))


# ---------------------------------------------------------------------------
# 11: instantaneous dominance on a geometric early grid
# ---------------------------------------------------------------------------

def test_criterion_11_instantaneous_dominance():
    report = _run_preset("instantaneous_dominance", paths=1_000, seed=67, steps=8_192)
    m = report.metrics
    assert _record(
        11, "strategy leads at every positive grid time", not report.failed,
        f"fraction {m['fraction']:.3f} (need >= 0.99), worst lead {m['worst_lead']:.2e}, "
        f"fraction {_check(report, 'the leading fraction').detail}, confinement "
        f"breaches {_check(report, 'confinement').detail} (need no more)"
        + _failed(report))


# ---------------------------------------------------------------------------
# 12: byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_12_deterministic_output(tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(textwrap.dedent("""\
            [experiment]
            name = diversity-report
            delta = 0.3

            [model]
            kind = constant
            sigma_diag = 0.2, 0.3
            b = 0.05, 0.0
            x0 = 1.0, 2.0

            [grid]
            horizon = 1.0
            n_steps = 50

            [mc]
            n_paths = 40
            master_seed = 3

            [output]
            per_path = true
            series = true
            """))
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0

    same = all((outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
               for fname in ("metrics.csv", "per_path.csv", "series.csv"))
    assert _record(
        12, "rerun byte stability", same,
        "metrics, per-path, and series files identical across reruns"
        if same else "output files differ")
