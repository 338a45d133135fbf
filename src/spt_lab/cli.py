"""Experiment runner: config parsing, dispatch, and plot-ready output files.

Configs are INI-style text with five sections::

    [experiment]    name plus experiment-specific knobs (p, strike, ...)
    [model]         kind plus model parameters (sigma, delta, x0, ...)
    [grid]          horizon and step count, or a geometric early grid
    [mc]            path count and master seed
    [output]        directory and which optional files to write

Every run writes ``summary.txt`` and ``summary.json`` (config echo,
results, assertion lines with their budgets, provenance) and
``metrics.csv`` (the numeric payload, 17 significant digits).  Each claim
an experiment makes about its output is checked here, once, as a
``Check``.  Identical configs reproduce the CSV files byte for byte.
Exit codes: 0 success, 2 invalid config, 3 numeric failure, 4 an
experiment assertion failed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import math
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from ._kernels import _max_last, _sum_last
from . import arbitrage as _arbitrage
from . import diversity as _diversity
from . import hedging as _hedging
from . import markets as _markets
from . import paths as _paths
from . import portfolios as _portfolios
from . import ranks as _ranks
from .errors import (
    ConfigError,
    IntegrationFailureError,
    InvalidArgumentError,
    InvalidModelError,
    NumericFailureError,
    SptLabError,
)

_MODEL_KINDS = ("constant", "diverse", "ou-pair", "patched", "dominance")
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    name: str
    model: _markets.MarketModel
    grid: _paths.PathGrid | None
    n_paths: int
    master_seed: int
    out_dir: str
    per_path: bool
    series: bool
    extras: dict
    echo: dict
    overrides: dict = field(default_factory=dict)


class _Parse:
    """Error-collecting reader over a parsed INI file."""

    def __init__(self, cp: configparser.ConfigParser):
        self.cp = cp
        self.errors: list[str] = []
        self.used: dict[str, set] = {}

    def err(self, msg: str):
        self.errors.append(msg)

    def raw(self, sec: str, key: str):
        if self.cp.has_option(sec, key):
            self.used.setdefault(sec, set()).add(key)
            return self.cp.get(sec, key).strip()
        return None

    def text(self, sec, key, default=None, required=False, choices=None):
        raw = self.raw(sec, key)
        if raw is None:
            if required:
                self.err(f"{sec}.{key} is required")
            return default
        if choices is not None and raw not in choices:
            self.err(f"{sec}.{key}: unknown value {raw!r} (one of {', '.join(choices)})")
            return default
        return raw

    def num(self, sec, key, default=None, required=False, kind=float,
            lo=None, hi=None, lo_open=False, hi_open=False):
        raw = self.raw(sec, key)
        if raw is None:
            if required:
                self.err(f"{sec}.{key} is required")
            return default
        try:
            val = kind(raw) if kind is not float else float(raw)
        except ValueError:
            self.err(f"{sec}.{key}: not a valid {kind.__name__}: {raw!r}")
            return default
        if lo is not None and (val <= lo if lo_open else val < lo):
            self.err(f"{sec}.{key}: {val} is out of range")
            return default
        if hi is not None and (val >= hi if hi_open else val > hi):
            self.err(f"{sec}.{key}: {val} is out of range")
            return default
        return val

    def flag(self, sec, key, default=None):
        raw = self.raw(sec, key)
        if raw is None:
            return default
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        self.err(f"{sec}.{key}: not a boolean: {raw!r}")
        return default

    def vector(self, sec, key, default=None, required=False):
        raw = self.raw(sec, key)
        if raw is None:
            if required:
                self.err(f"{sec}.{key} is required")
            return default
        try:
            return [float(tok) for tok in re.split(r"[,\s]+", raw) if tok]
        except ValueError:
            self.err(f"{sec}.{key}: not a list of numbers: {raw!r}")
            return default

    def matrix(self, sec, key):
        raw = self.raw(sec, key)
        if raw is None:
            return None
        rows = []
        try:
            for part in raw.split(";"):
                part = part.strip()
                if part:
                    rows.append([float(tok) for tok in re.split(r"[,\s]+", part) if tok])
        except ValueError:
            self.err(f"{sec}.{key}: not a matrix: {raw!r}")
            return None
        if not rows or len({len(r) for r in rows}) != 1:
            self.err(f"{sec}.{key}: matrix rows must be non-empty and equal length")
            return None
        return rows

    def sweep_unknown(self):
        known = {"experiment", "model", "grid", "mc", "output"}
        for sec in self.cp.sections():
            if sec not in known:
                self.err(f"unknown section [{sec}]")
                continue
            for key in self.cp[sec]:
                if key not in self.used.get(sec, set()):
                    self.err(f"unknown key {sec}.{key}")


def _build_sigma(p: _Parse, n: int):
    mat = p.matrix("model", "sigma")
    diag = p.vector("model", "sigma_diag")
    scale = p.num("model", "sigma_scale", lo=0.0, lo_open=True)
    off = p.num("model", "sigma_offdiag", default=0.0)
    given = sum(x is not None for x in (mat, diag, scale))
    if given == 0:
        p.err("model: one of sigma, sigma_diag, sigma_scale is required")
        return None
    if given > 1:
        p.err("model: give only one of sigma, sigma_diag, sigma_scale")
        return None
    if mat is not None:
        return np.asarray(mat, dtype=float)
    if diag is not None:
        if n is not None and len(diag) != n:
            p.err(f"model.sigma_diag: expected {n} entries, got {len(diag)}")
            return None
        m = np.full((len(diag), len(diag)), off)
        np.fill_diagonal(m, diag)
        return m
    if n is None:
        p.err("model.sigma_scale needs x0 to fix the dimension")
        return None
    m = np.full((n, n), off)
    np.fill_diagonal(m, scale)
    return m


def _build_model(p: _Parse, name: str, horizon):
    kind = p.text("model", "kind", required=True, choices=_MODEL_KINDS)
    if kind is None:
        return None
    r = p.num("model", "r", default=0.0)
    try:
        if kind == "dominance":
            return _markets.instantaneous_dominance_market(
                alpha=p.num("model", "alpha", required=True),
                delta=p.num("model", "delta", default=0.2),
                delta_prime=p.num("model", "delta_prime", default=0.35),
                cdrift=p.num("model", "cdrift", default=1.0),
                r=r,
            )
        if kind == "ou-pair":
            x0 = p.vector("model", "x0", default=[1.0, 1.0])
            return _markets.ou_two_stock(
                alpha=p.num("model", "alpha", required=True),
                x0=x0,
                switch_time=p.num("model", "switch_time", default=1.0),
                r=r,
            )
        x0 = p.vector("model", "x0", required=True)
        if x0 is None:
            return None
        sigma = _build_sigma(p, len(x0))
        if sigma is None:
            return None
        if kind == "constant":
            b = p.vector("model", "b", required=True)
            if b is None:
                return None
            bv = b[0] if len(b) == 1 else b
            return _markets.constant_market(b=bv, sigma=sigma, x0=x0, r=r)
        # diverse or patched
        g = p.vector("model", "g", default=[0.0])
        delta = p.num("model", "delta", required=True)
        if delta is None:
            return None
        kwargs = {}
        big_m = p.num("model", "big_m")
        if big_m is not None:
            kwargs["big_m"] = big_m
        base = _markets.diverse_market(
            sigma=sigma,
            g=g[0] if len(g) == 1 else g,
            delta=delta,
            x0=x0,
            r=r,
            **kwargs,
        )
        if kind == "diverse":
            return base
        eta = p.num("model", "eta", required=True)
        if eta is None:
            return None
        if horizon is None:
            p.err("grid.horizon is required for the patched model")
            return None
        return _markets.patched_weakly_diverse(base, eta=eta, horizon=horizon)
    except (InvalidModelError, InvalidArgumentError) as exc:
        p.err(f"model: {exc}")
        return None


def _parse_extras(p: _Parse, name: str, model) -> dict:
    ex = {}
    if name == "diversity-report":
        fallback = model.params.get("delta") if model is not None else None
        ex["delta"] = p.num("experiment", "delta", default=fallback,
                            lo=0.0, hi=1.0, lo_open=True, hi_open=True)
        if ex["delta"] is None:
            p.err("experiment.delta is required when the model carries no barrier")
        ex["tail_fraction"] = p.num("experiment", "tail_fraction", default=0.25,
                                    lo=0.0, hi=1.0, lo_open=True)
    elif name == "arbitrage-45":
        ex["p"] = p.num("experiment", "p", default=0.5,
                        lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    elif name in ("mirror-81", "parity-gap"):
        ex["p"] = p.num("experiment", "p", lo=1.0, lo_open=True)
        ex["margin"] = p.num("experiment", "margin", default=1.1, lo=1.0, lo_open=True)
        if name == "parity-gap":
            ex["control_i"] = p.num("experiment", "control_i", default=0, kind=int, lo=0)
            ex["control_j"] = p.num("experiment", "control_j", default=1, kind=int, lo=0)
    elif name == "master-formula":
        ex["p"] = p.num("experiment", "p", default=0.5,
                        lo=0.0, hi=1.0, lo_open=True)
        ex["refine"] = p.num("experiment", "refine", default=2, kind=int, lo=2)
    elif name == "local-time-oracle":
        ex["index"] = p.num("experiment", "index", default=0, kind=int, lo=0)
    elif name == "hedge-price":
        ex["strike"] = p.num("experiment", "strike", required=True, lo=0.0, lo_open=True)
        ex["index"] = p.num("experiment", "index", default=0, kind=int, lo=0)
    elif name == "call-decay":
        ex["strike"] = p.num("experiment", "strike", required=True, lo=0.0, lo_open=True)
        hz = p.vector("experiment", "horizons", default=[5.0, 10.0, 20.0, 40.0, 80.0])
        if hz is not None and any(t <= 0 for t in hz):
            p.err("experiment.horizons: entries must be positive")
        ex["horizons"] = hz
        ex["p_bound"] = p.num("experiment", "p_bound", default=0.5,
                              lo=0.0, hi=1.0, lo_open=True, hi_open=True)
        ex["index"] = p.num("experiment", "index", default=0, kind=int, lo=0)
    elif name == "instantaneous-dominance":
        ex["min_fraction"] = p.num("experiment", "min_fraction", default=0.99,
                                   lo=0.0, hi=1.0)
    if model is not None and "index" in ex and ex["index"] is not None:
        if ex["index"] >= model.n:
            p.err(f"experiment.index: {ex['index']} is out of range for {model.n} stocks")
    return ex


def _check_model_fits(p: _Parse, name: str, model, grid):
    if model is None:
        return
    if name == "mirror-81" and model.kind not in ("diverse", "patched"):
        p.err(f"{name} needs a barrier-controlled model, got kind {model.kind!r}")
    if name == "hedge-price" and model.kind != "constant":
        p.err(f"hedge-price needs the constant model, got kind {model.kind!r}")
    if name == "parity-gap":
        if model.kind != "diverse":
            p.err(f"parity-gap needs the diverse model, got kind {model.kind!r}")
        if grid is not None and not grid.is_uniform:
            p.err("parity-gap needs a uniform grid")
        if model.r != 0.0:
            p.err("parity-gap requires model.r = 0")
    if name == "call-decay":
        if model.r <= 0:
            p.err("call-decay requires a positive model.r")
        if model.kind != "diverse":
            p.err(f"call-decay needs the diverse model, got kind {model.kind!r}")
    if name == "instantaneous-dominance" and model.kind != "dominance":
        p.err(f"instantaneous-dominance needs the dominance model, got {model.kind!r}")


def parse_config(path: str, paths=None, seed=None, steps=None, out=None) -> ExperimentConfig:
    """Read and validate a config file, collecting every error found."""
    if not os.path.isfile(path):
        raise ConfigError([f"config file not found: {path}"])
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            cp.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot parse config: {exc}"]) from exc

    name_raw = cp.get("experiment", "name", fallback=None)
    steps_key = "steps_per_unit" if name_raw == "call-decay" else "n_steps"
    overrides = {}
    for sec, key, val in (
        ("mc", "n_paths", paths),
        ("mc", "master_seed", seed),
        ("grid", steps_key, steps),
        ("output", "directory", out),
    ):
        if val is not None:
            if not cp.has_section(sec):
                cp.add_section(sec)
            cp.set(sec, key, str(val))
            overrides[f"{sec}.{key}"] = str(val)

    p = _Parse(cp)
    name = p.text("experiment", "name", required=True, choices=EXPERIMENTS)

    # grid first: the patched model needs the horizon
    horizon = p.num("grid", "horizon", lo=0.0, lo_open=True)
    n_steps = p.num("grid", "n_steps", kind=int, lo=1)
    geometric = p.flag("grid", "geometric", default=name == "instantaneous-dominance")
    t_min = p.num("grid", "t_min", default=1e-8, lo=0.0, lo_open=True)
    steps_per_unit = p.num("grid", "steps_per_unit", kind=int, lo=1)

    model = _build_model(p, name, horizon) if name is not None else None

    grid = None
    if name == "call-decay":
        if steps_per_unit is None:
            p.err("grid.steps_per_unit is required for call-decay")
        # the ladder's grids come from experiment.horizons and steps_per_unit
        for key, v in (("grid.horizon", horizon), ("grid.n_steps", n_steps)):
            if v is not None:
                p.err(f"{key} does not apply to call-decay")
        # the geometric keys have defaults, so a set key shows in the file
        for key in ("geometric", "t_min"):
            if cp.has_option("grid", key):
                p.err(f"grid.{key} does not apply to call-decay")
    elif name is not None:
        if steps_per_unit is not None:
            p.err("grid.steps_per_unit only applies to call-decay")
        if not geometric and cp.has_option("grid", "t_min"):
            p.err("grid.t_min only applies to a geometric grid")
        missing = [k for k, v in (("grid.horizon", horizon), ("grid.n_steps", n_steps)) if v is None]
        for key in missing:
            p.err(f"{key} is required")
        if not missing:
            try:
                if geometric:
                    grid = _paths.geometric_grid(horizon, n_steps, t_min)
                else:
                    grid = _paths.make_grid(horizon, n_steps)
            except InvalidArgumentError as exc:
                p.err(f"grid: {exc}")

    n_paths = p.num("mc", "n_paths", required=True, kind=int, lo=1)
    master_seed = p.num("mc", "master_seed", required=True, kind=int, lo=0)

    stem = os.path.splitext(os.path.basename(path))[0]
    out_dir = p.text("output", "directory", default=os.path.abspath(stem + ".out"))
    per_path = p.flag("output", "per_path")
    series = p.flag("output", "series", default=False)

    extras = _parse_extras(p, name, model) if name is not None else {}
    if name == "call-decay":
        extras["steps_per_unit"] = steps_per_unit
        hz = extras["horizons"]
        if steps_per_unit is not None and hz is not None and all(t > 0 for t in hz):
            try:
                _hedging.ladder_steps(hz, steps_per_unit)
            except InvalidArgumentError as exc:
                p.err(f"experiment.horizons: {exc}")
    _check_model_fits(p, name, model, grid)
    if not p.errors:
        p.sweep_unknown()
    if p.errors:
        raise ConfigError(p.errors)

    if per_path is None:
        per_path = n_paths <= 10_000
    echo = {sec: dict(cp[sec]) for sec in cp.sections()}
    return ExperimentConfig(
        name=name,
        model=model,
        grid=grid,
        n_paths=n_paths,
        master_seed=master_seed,
        out_dir=os.path.abspath(out_dir),
        per_path=per_path,
        series=series,
        extras=extras,
        echo=echo,
        overrides=overrides,
    )


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """One verdict on a claim.  ``budget`` is the slack the verdict allows,
    in the units of the quantity it compares: 0.0 for exact comparisons,
    3 standard errors for Monte Carlo ones, the scheme's discretization
    budget for pathwise ones, and the largest of these where it compares
    several quantities."""

    label: str
    passed: bool
    detail: str
    budget: float


@dataclass
class ExperimentReport:
    name: str
    config: dict
    metrics: dict
    info: dict
    assertions: list    # of Check
    tables: dict        # file stem -> {column name: 1-D array}
    provenance: dict

    @property
    def failed(self) -> list:
        return [c for c in self.assertions if not c.passed]


def _factors(cfg: ExperimentConfig) -> _paths.FactorPaths:
    return _paths.generate_factors(cfg.grid, cfg.model.m, cfg.n_paths, cfg.master_seed)


def _numbered(prefix: str, matrix) -> dict:
    """One column per stock (or gap): ``prefix1``, ``prefix2``, ..."""
    return {f"{prefix}{i + 1}": matrix[:, i] for i in range(matrix.shape[1])}


def _run_simulate(cfg):
    model = cfg.model

    def per_batch(lo, hi, lx, aux):
        mu = _portfolios.market_weights(lx)
        top = _max_last(mu)
        return {
            "wsum": mu.sum(axis=0)[None],
            "topsum": top.sum(axis=0)[None],
            "term_lx": lx[:, -1],
            "term_mu": mu[:, -1],
            "max_top": top.max(axis=1),
            "trigger": aux.get("trigger_time", np.full(hi - lo, np.nan)),
        }

    cols = _markets.run_batches(model, _factors(cfg), per_batch, 256)
    trigger = cols["trigger"]
    metrics = {
        "n_paths": cfg.n_paths,
        "n_steps": cfg.grid.n_steps,
        "horizon": cfg.grid.horizon,
        "mean_terminal_top": float(_max_last(cols["term_mu"]).sum() / cfg.n_paths),
        "max_top_observed": float(cols["max_top"].max()),
        "capped_step_total": int(cols["capped_steps"].sum()),
    }
    if np.isfinite(trigger).any():
        hit = trigger[np.isfinite(trigger)]
        metrics["trigger_fraction"] = float(hit.size / cfg.n_paths)
        metrics["trigger_time_mean"] = float(hit.mean())

    tables = {"per_path": {
        "path_id": np.arange(cfg.n_paths),
        **_numbered("log_x", cols["term_lx"]),
        **_numbered("mu", cols["term_mu"]),
        "max_top": cols["max_top"],
        "capped_steps": cols["capped_steps"],
    }}
    if cfg.series:
        tables["series"] = {
            "t": cfg.grid.times,
            **_numbered("mean_mu", cols["wsum"].sum(axis=0) / cfg.n_paths),
            "mean_top": cols["topsum"].sum(axis=0) / cfg.n_paths,
        }
    return metrics, {}, [], tables


_DIVERSITY_COLUMNS = ("max_top", "avg_top", "tail_top", "delta_max", "delta_avg",
                      "is_diverse", "is_weakly_diverse")


def _run_diversity_report(cfg):
    model = cfg.model
    delta = cfg.extras["delta"]
    tail_fraction = cfg.extras["tail_fraction"]
    times = cfg.grid.times
    barrier = model.kind == "diverse"

    def per_batch(lo, hi, lx, aux):
        out = _diversity.check_diversity(
            _portfolios.market_weights(lx), times, delta, tail_fraction)
        if barrier:
            drift = _diversity.check_barrier_drift_condition(
                model, lx, times, model.params["delta"], aux)
            out.update({key: [value] for key, value in drift.items()})
        return out

    cols = _markets.run_batches(model, _factors(cfg), per_batch, 256)
    metrics = {
        "delta": delta,
        "tail_fraction": tail_fraction,
        "diverse_fraction": float(cols["is_diverse"].mean()),
        "weakly_diverse_fraction": float(cols["is_weakly_diverse"].mean()),
        "min_delta_max": float(cols["delta_max"].min()),
        "min_delta_avg": float(cols["delta_avg"].min()),
        "worst_tail_top": float(cols["tail_top"].max()),
    }
    assertions = []
    if barrier:
        violations = int(cols["violations"].sum())
        assertions.append(Check(
            "drift repels the leader wherever the top weight nears the barrier",
            violations == 0,
            f"checked={int(cols['checked'].sum())} violations={violations} "
            f"worst_slack={float(cols['worst_slack'].min()):.6g}", 0.0,
        ))
    per_path = {"path_id": np.arange(cfg.n_paths),
                **{key: cols[key] for key in _DIVERSITY_COLUMNS}}
    info = {"capped_steps": int(cols["capped_steps"].sum())}
    return metrics, info, assertions, {"per_path": per_path}


def _run_arbitrage_45(cfg):
    model = cfg.model
    p = cfg.extras["p"]
    factors = _factors(cfg)
    delta = model.params.get("delta")
    res = _arbitrage.outperformance_study(model, factors, p, delta=delta)
    tstar = _arbitrage.threshold_horizon(model.n, p, model.vol.eps, delta) \
        if delta is not None else None
    metrics = {
        "p": p,
        "horizon": cfg.grid.horizon,
        "fraction": res["fraction"],
        "min_slack": res["min_slack"],
        "weight_order_violations": res["weight_order_violations"],
        "delta_avg_min": float(res["delta_avg"].min()),
        "delta_max_min": float(res["delta_max"].min()),
    }
    if tstar is not None:
        metrics["threshold_horizon"] = tstar
    if res["fixed_slack"] is not None:
        metrics["min_fixed_slack"] = float(res["fixed_slack"].min())
    assertions = [
        Check("market outperformed on every path", res["fraction"] == 1.0,
              f"fraction={res['fraction']:g}", 0.0),
        Check("pathwise lower bound respected", res["min_slack"] > 0.0,
              f"min_slack={res['min_slack']:.6g}", 0.0),
        # each weight comparison allows 1e-12 of rounding
        Check("reweighting never flips the weight order",
              res["weight_order_violations"] == 0,
              f"violations={res['weight_order_violations']}", 1e-12),
    ]
    per_path = {
        "path_id": np.arange(cfg.n_paths),
        "terminal_log_ratio": res["terminal_log_ratio"],
        "a5_slack": res["slack"],
        "delta_avg": res["delta_avg"],
        "delta_max": res["delta_max"],
    }
    info = {"capped_steps": res["capped_steps"]}
    return metrics, info, assertions, {"per_path": per_path}


def _run_mirror_81(cfg):
    res = _arbitrage.mirror_study(
        cfg.model, _factors(cfg), p=cfg.extras["p"], margin=cfg.extras["margin"])
    fraction = res["fraction"]
    # the running ceiling is exact in continuous time; on the grid it may
    # overshoot by the scheme's per-path discrepancy scaled by the exponent
    ceiling_budget = 3.0 * res["p"] * res["master_residual_max"]
    checks = [
        Check("mirror finishes behind the market on every path",
              fraction == 1.0, f"fraction={fraction:g}", 0.0),
        Check("accumulated relative variance clears the threshold on every path",
              res["tau_integral_min"] >= res["eta_needed"],
              f"min={res['tau_integral_min']:.6g} needed={res['eta_needed']:.6g}", 0.0),
        Check("running log wealth ratio stays under the ceiling",
              res["worst_ceiling_gap"] <= ceiling_budget,
              f"worst_gap={res['worst_ceiling_gap']:.6g} "
              f"master_residual={res['master_residual_max']:.6g}", ceiling_budget),
        Check("drowned mirror stays all-long",
              res["wrap82_weight_margin_min"] >= 0.0,
              f"margin={res['wrap82_weight_margin_min']:.6g}", 0.0),
        Check("shorted mirror wrap stays all-long",
              res["wrap83_weight_margin_min"] >= 0.0,
              f"margin={res['wrap83_weight_margin_min']:.6g}", 0.0),
        Check("drowned mirror underperforms scaled market on every path",
              res["wrap82_fraction"] == 1.0, f"fraction={res['wrap82_fraction']:g}", 0.0),
        Check("shorted mirror outperforms scaled market on every path",
              res["wrap83_fraction"] == 1.0, f"fraction={res['wrap83_fraction']:g}", 0.0),
    ]
    metrics = {
        "p": res["p"],
        "p_threshold": res["p_threshold"],
        "beta": res["beta"],
        "horizon": cfg.grid.horizon,
        "fraction_under": fraction,
        "worst_terminal_log_ratio": float(res["terminal_log_ratio"].max()),
        "worst_ceiling_gap": res["worst_ceiling_gap"],
        "tau_integral_min": res["tau_integral_min"],
        "eta_needed": res["eta_needed"],
        "eta_model": res["eta_model"],
        "hypothesis_fraction": res["hypothesis_fraction"],
        "underperformer_capital": res["wrap82_capital"],
        "outperformer_capital": res["wrap83_capital"],
        "underperformer_fraction": res["wrap82_fraction"],
        "outperformer_fraction": res["wrap83_fraction"],
        "underperformer_weight_margin_min": res["wrap82_weight_margin_min"],
        "outperformer_weight_margin_min": res["wrap83_weight_margin_min"],
    }
    per_path = {
        "path_id": np.arange(cfg.n_paths),
        "terminal_log_ratio": res["terminal_log_ratio"],
        "ceiling_gap_max": res["ceiling_gap_max"],
        "tau_integral": res["tau_integral"],
        "under_gap": res["wrap82_term_gap"],
        "out_gap": res["wrap83_term_gap"],
    }
    return metrics, {"capped_steps": res["capped_steps"]}, checks, {"per_path": per_path}


def _run_master_formula(cfg):
    p = cfg.extras["p"]
    refine = cfg.extras["refine"]
    res = _arbitrage.master_formula_order_study(cfg.model, _factors(cfg), p, refine)
    rf, rc = res["fine"], res["coarse"]
    metrics = {
        "p": p,
        "dt_fine": cfg.grid.dt,
        "dt_coarse": cfg.grid.dt * refine,
        "mean_abs_residual_fine": rf["mean_abs_residual"],
        "mean_abs_residual_coarse": rc["mean_abs_residual"],
        "max_abs_residual_fine": rf["max_abs_residual"],
        "max_abs_residual_coarse": rc["max_abs_residual"],
        "ratio": res["ratio"],
        "order": res["order"],
        "max_abs_residual_model_cov_fine": rf["max_abs_residual_model_cov"],
        "floor_margin_min": rf["floor_margin_min"],
    }
    # the identity is exact in continuous time and its scheme is first order
    assertions = [
        Check("residual shrinks at first order in the step", res["order"] >= 0.9,
              f"order={res['order']:.6g} refine={refine}", 0.1),
        Check("decomposition holds on every path within the scheme budget",
              rf["max_abs_residual"] <= 1e-2,
              f"max_residual={rf['max_abs_residual']:.6g} dt={cfg.grid.dt:.6g}", 1e-2),
    ]
    per_path = {
        "path_id": np.arange(cfg.n_paths),
        **{key: rf[key] for key in ("lhs", "rhs", "residual", "residual_model_cov")},
    }
    info = {"capped_steps": rf["capped_steps"], "capped_steps_coarse": rc["capped_steps"]}
    return metrics, info, assertions, {"per_path": per_path}


def _run_ranked_decomposition(cfg):
    model = cfg.model
    factors = _factors(cfg)
    times = cfg.grid.times

    def per_batch(lo, hi, lx, aux):
        dv = _markets._vol_increments(model, factors.block(lo, hi))
        res = _ranks.ranked_decomposition(model, lx, dv, times, aux)
        return {
            "relative_named": res["relative_named"],
            "relative_model": res["relative_model"],
            "lam_term": res["local_times"][:, -1],
        }

    cols = _markets.run_batches(model, factors, per_batch, 256)
    rel_named, rel_model, lam_term = (
        cols[key] for key in ("relative_named", "relative_model", "lam_term"))
    metrics = {
        "max_relative_named": float(rel_named.max()),
        "max_relative_model": float(rel_model.max()),
        "mean_relative_model": float(rel_model.mean()),
        "mean_terminal_local_time_top_gap": float(lam_term[:, 0].mean()),
    }
    tables = {"per_path": {
        "path_id": np.arange(cfg.n_paths),
        "relative_named": rel_named,
        "relative_model": rel_model,
        **_numbered("gap_local_time", lam_term),
    }}
    if cfg.series:
        w = _portfolios.market_weights(_markets.simulate_block(model, factors, 0, 1)[0])
        tables["series"] = {
            "t": times,
            **_numbered("ranked_w", _ranks.ranked_weight_path(w)[0][0]),
            **_numbered("gap_local_time", _ranks.adjacent_gap_local_times(w)[0]),
        }
    return metrics, {"capped_steps": int(cols["capped_steps"].sum())}, [], tables


def _run_local_time_oracle(cfg):
    model = cfg.model
    idx = cfg.extras["index"]

    def per_batch(lo, hi, lx, aux):
        y = lx[:, :, idx] - lx[:, :1, idx]
        return {"lam": _ranks.estimate_local_time(y)[:, -1]}

    cols = _markets.run_batches(model, _factors(cfg), per_batch, 1024)
    lam = cols["lam"]
    mean, se = _hedging._compensated_mean_se(lam)
    metrics = {
        "mean_terminal_local_time": mean,
        "se": se,
        "horizon": cfg.grid.horizon,
    }
    assertions = []
    if model.kind == "constant":
        a = model.vol.a
        drift = model.params["b"][idx] - 0.5 * a[idx, idx]
        if abs(drift) < 1e-12:
            oracle = math.sqrt(a[idx, idx]) * math.sqrt(
                2.0 * cfg.grid.horizon / math.pi)
            tol = max(3.0 * se, 0.02 * oracle)
            metrics["oracle"] = oracle
            metrics["abs_error"] = abs(mean - oracle)
            metrics["t_stat"] = (mean - oracle) / se if se > 0 else float("inf")
            assertions.append(Check(
                "terminal local time matches the reflected-line mean",
                abs(mean - oracle) <= tol,
                f"mean={mean:.6g} oracle={oracle:.6g} tol={tol:.3g}", tol))
    per_path = {"path_id": np.arange(cfg.n_paths), "terminal_local_time": lam}
    info = {"capped_steps": int(cols["capped_steps"].sum())}
    return metrics, info, assertions, {"per_path": per_path}


def _run_hedge_price(cfg):
    model = cfg.model
    strike = cfg.extras["strike"]
    idx = cfg.extras["index"]
    factors = _factors(cfg)
    claim = _hedging.call_claim(idx, strike)
    res = _hedging.hedge_price(model, factors, claim)
    metrics = {
        "price": res["price"],
        "se": res["se"],
        "zero_fraction": res["zero_fraction"],
        "strike": strike,
        "spot": float(model.x0[idx]),
        "horizon": cfg.grid.horizon,
    }
    vol = math.sqrt(model.vol.a[idx, idx])
    ref = _hedging.call_price_closed_form(
        float(model.x0[idx]), strike, model.r, vol, cfg.grid.horizon)
    metrics["reference"] = ref
    metrics["t_stat"] = (res["price"] - ref) / res["se"] if res["se"] > 0 else float("inf")
    assertions = [Check(
        "deflator price matches the closed form within 3 standard errors",
        abs(res["price"] - ref) <= 3.0 * res["se"],
        f"price={res['price']:.6g} ref={ref:.6g} se={res['se']:.3g}", 3.0 * res["se"],
    )]
    return metrics, {"claim": res["claim"]}, assertions, {}


def _run_call_decay(cfg):
    model = cfg.model
    ex = cfg.extras
    spu = ex["steps_per_unit"]
    res = _hedging.call_decay_study(
        model, ex["strike"], ex["horizons"], spu, cfg.n_paths, cfg.master_seed,
        p_bound=ex["p_bound"], index=ex["index"],
    )
    rows = res["rows"]
    spot = res["spot"]
    metrics = {
        "strike": res["strike"],
        "spot": spot,
        "p_bound": ex["p_bound"],
        "n_horizons": len(rows),
        "first_price": rows[0]["price"],
        "last_price": rows[-1]["price"],
    }
    env_budget = [3.0 * r["stock_se"] for r in rows]
    mono_budget = [3.0 * math.hypot(a["se"], b["se"]) for a, b in zip(rows, rows[1:])]
    assertions = [
        Check("hedge price sits under the spot at every horizon",
              all(r["price"] < spot for r in rows),
              f"max_price={max(r['price'] for r in rows):.6g} spot={spot:g}", 0.0),
        Check("deflated stock price stays under the decay envelope",
              all(r["stock_price"] <= r["envelope"] + b for r, b in zip(rows, env_budget)),
              "", max(env_budget)),
        Check("hedge price decays along the horizon ladder",
              all(b["price"] <= a["price"] + m for a, b, m in zip(rows, rows[1:], mono_budget)),
              "", max(mono_budget, default=0.0)),
    ]

    def column(key):
        return np.array([r[key] for r in rows])

    ladder = {"T": column("horizon")}
    envelope = {"envelope": column("envelope")}
    tables = {
        "table": {**ladder, "h_hat": column("price"), "stderr": column("se"), **envelope},
        "stock": {**ladder, "deflated_stock": column("stock_price"),
                  "stderr": column("stock_se"), **envelope},
    }
    info = {
        "knocked_out": [r["knocked_out"] for r in rows],
        "monitoring_pair": [[r["price"], r["price_2dt"]] for r in rows],
    }
    return metrics, info, assertions, tables


def _run_parity_gap(cfg):
    model = cfg.model
    p = cfg.extras["p"]
    if p is None:
        p = cfg.extras["margin"] * _arbitrage.mirror_exponent(
            model.vol.eps, model.params["delta"], cfg.grid.horizon,
            float(_max_last(model.x0 / _sum_last(model.x0))),
        )
    wit = _hedging.parity_witness_study(model, p, cfg.grid.horizon, cfg.grid.n_steps,
                                        cfg.n_paths, cfg.master_seed)
    control_model = _markets.constant_market(
        b=np.asarray(model.params["g"], dtype=float) + 0.5 * np.diag(model.vol.a),
        sigma=model.vol.sigma, x0=model.x0, r=model.r)
    ctl = _hedging.parity_control_study(
        control_model, _factors(cfg), cfg.extras["control_i"], cfg.extras["control_j"])
    metrics = {
        "p": float(p),
        "h1": wit["h1"], "h1_se": wit["h1_se"],
        "h2": wit["h2"], "h2_se": wit["h2_se"],
        "gap": wit["gap"], "gap_se": wit["gap_se"],
        "t_stat": wit["t_stat"],
        "control_gap": ctl["gap"], "control_gap_se": ctl["gap_se"],
        "control_expected": ctl["expected"], "control_t_stat": ctl["t_stat"],
    }
    assertions = [
        Check("two equal-start assets price apart by at least 3 standard errors",
              wit["gap"] > 3.0 * wit["gap_se"],
              f"gap={wit['gap']:.6g} se={wit['gap_se']:.3g}", 3.0 * wit["gap_se"]),
        Check("plain stock pair prices at its initial difference",
              abs(ctl["t_stat"]) <= 3.0, f"t={ctl['t_stat']:.3g}", 3.0 * ctl["gap_se"]),
        Check("deflated market and mirror wealth stay within 3 standard errors of their start",
              wit["h1"] <= 1.0 + 3.0 * wit["h1_se"] and wit["h2"] <= 1.0 + 3.0 * wit["h2_se"],
              f"h1={wit['h1']:.6g} se={wit['h1_se']:.3g} "
              f"h2={wit['h2']:.6g} se={wit['h2_se']:.3g}",
              3.0 * max(wit["h1_se"], wit["h2_se"])),
    ]
    info = {
        "knocked_out": wit["knocked_out"],
        "monitoring_pair": [wit["h1"], wit["h1_2dt"]],
    }
    return metrics, info, assertions, {}


def _run_instantaneous_dominance(cfg):
    model = cfg.model
    factors = _factors(cfg)
    res, coarse = (_arbitrage.dominance_study(model, f)
                   for f in (factors, factors.coarsened(2)))
    metrics = {
        "fraction": res["fraction"],
        "worst_lead": res["worst_lead"],
        "switch_found_fraction": res["switch_found_fraction"],
        "confinement_breaches": res["confinement_breaches"],
        "capped_steps": res["capped_steps"],
        "n_steps": cfg.grid.n_steps,
        "min_fraction": cfg.extras["min_fraction"],
    }
    assertions = [
        Check("second stock leads at every grid time until the handback",
              res["fraction"] >= cfg.extras["min_fraction"],
              f"fraction={res['fraction']:g} floor={cfg.extras['min_fraction']:g}",
              1.0 - cfg.extras["min_fraction"]),
        Check("the leading fraction does not fall under refinement",
              res["fraction"] >= coarse["fraction"],
              f"fine={res['fraction']:g} coarse={coarse['fraction']:g}", 0.0),
        Check("confinement breaches do not grow under refinement",
              res["confinement_breaches"] <= coarse["confinement_breaches"],
              f"fine={res['confinement_breaches']} coarse={coarse['confinement_breaches']}", 0.0),
    ]
    per_path = {
        "path_id": np.arange(cfg.n_paths),
        **{key: res[key] for key in ("min_lead", "switch_index", "exit_index")},
        "dominated": res["min_lead"] > 0.0,
    }
    return metrics, {}, assertions, {"per_path": per_path}


_RUNNERS = {
    "simulate": _run_simulate,
    "diversity-report": _run_diversity_report,
    "arbitrage-45": _run_arbitrage_45,
    "mirror-81": _run_mirror_81,
    "master-formula": _run_master_formula,
    "ranked-decomposition": _run_ranked_decomposition,
    "local-time-oracle": _run_local_time_oracle,
    "hedge-price": _run_hedge_price,
    "call-decay": _run_call_decay,
    "parity-gap": _run_parity_gap,
    "instantaneous-dominance": _run_instantaneous_dominance,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispatch a validated config to its experiment and collect the report."""
    metrics, info, assertions, tables = _RUNNERS[cfg.name](cfg)
    provenance = {
        "artifact": f"spt-lab {__version__}",
        "master_seed": cfg.master_seed,
        "rng": "PCG64 per path, seeded by SeedSequence((master_seed, path_index))",
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }
    if cfg.overrides:
        provenance["overrides"] = ", ".join(
            f"{k}={v}" for k, v in sorted(cfg.overrides.items()))
    return ExperimentReport(
        name=cfg.name,
        config=cfg.echo,
        metrics=metrics,
        info=info,
        assertions=assertions,
        tables=tables,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _fmt_num(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _check_line(check: Check) -> str:
    detail = f"{check.detail}; " if check.detail else ""
    verdict = "PASS" if check.passed else "FAIL"
    return f"{check.label} = {verdict} ({detail}budget={check.budget:.6g})"


def _write_csv(path: str, table: dict):
    """Write named columns of equal length; the names form the header."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(table)
        for row in zip(*table.values()):
            w.writerow([v if isinstance(v, str) else _fmt_num(v) for v in row])


def persist(report: ExperimentReport, cfg: ExperimentConfig) -> list:
    """Write the report's files into the output directory; returns the paths."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    written = []

    path = os.path.join(cfg.out_dir, "metrics.csv")
    metrics = {k: v for k, v in report.metrics.items() if v is not None}
    _write_csv(path, {"metric": list(metrics), "value": list(metrics.values())})
    written.append(path)

    for stem, table in report.tables.items():
        if stem == "per_path" and not cfg.per_path:
            continue
        if stem == "series" and not cfg.series:
            continue
        path = os.path.join(cfg.out_dir, f"{stem}.csv")
        _write_csv(path, table)
        written.append(path)

    lines = []
    for sec, kv in report.config.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    lines.append("[results]")
    lines.extend(f"{k} = {_fmt_num(v)}" for k, v in metrics.items())
    lines.extend(f"{k} = {v}" for k, v in report.info.items())
    lines.append("")
    if report.assertions:
        lines.append("[assertions]")
        lines.extend(_check_line(c) for c in report.assertions)
        lines.append("")
    lines.append("[provenance]")
    lines.extend(f"{k} = {v}" for k, v in report.provenance.items())
    lines.append("")
    path = os.path.join(cfg.out_dir, "summary.txt")
    with open(path, "w") as f:
        f.write("\n".join(lines))
    written.append(path)

    payload = {
        "experiment": report.name,
        "config": report.config,
        "results": metrics,
        "info": report.info,
        "assertions": [
            {**c._asdict(), "passed": bool(c.passed), "budget": float(c.budget)}
            for c in report.assertions
        ],
        "provenance": report.provenance,
    }
    path = os.path.join(cfg.out_dir, "summary.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=float)
        f.write("\n")
    written.append(path)
    return written


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spt-lab",
        description="Simulation laboratory for rank- and diversity-driven "
                    "equity market models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", help="path to an INI-style experiment config")
    runp.add_argument("--out", help="output directory (beats output.directory)")
    runp.add_argument("--paths", type=int, help="path count (beats mc.n_paths)")
    runp.add_argument("--seed", type=int, help="master seed (beats mc.master_seed)")
    runp.add_argument("--steps", type=int,
                      help="step count (beats grid.n_steps / grid.steps_per_unit)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, paths=args.paths, seed=args.seed,
                           steps=args.steps, out=args.out)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2

    try:
        report = run(cfg)
    except (NumericFailureError, IntegrationFailureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (InvalidArgumentError, InvalidModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SptLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    written = persist(report, cfg)
    print(f"experiment: {report.name}")
    for k, v in report.metrics.items():
        if v is not None:
            print(f"{k} = {_fmt_num(v)}")
    for c in report.assertions:
        print(f"assert {_check_line(c)}")
    for path in written:
        print(f"wrote {path}")
    return 4 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
