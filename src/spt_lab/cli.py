"""The spt-lab command: config parsing, dispatch, and plot-ready output files.

Configs are INI-style text with five sections::

    [experiment]    name plus the experiment's parameters (p, strike, ...)
    [model]         kind plus the market's parameters (sigma, delta, x0, ...)
    [grid]          horizon and step count, or a geometric early grid
    [mc]            path count and master seed
    [output]        directory and which optional files to write

Every experiment is one function ``f(model, factors, **extras)`` in its
domain module (``diversity``, ``arbitrage``, ``ranks`` or ``hedging``)
that returns ``(metrics, info, checks, tables)`` under the report's names.
``extras`` are the function's parameters, read from ``[experiment]``:
each key is typed by the parameter's annotation, and a key left out takes
the parameter's default.  The function checks its own arguments before it
draws a factor, and each claim it makes once, as a ``Check`` with its
budget.  This module only parses, dispatches and writes.

A market kind is one entry of ``markets.KINDS``.  Its ``[model]`` keys
are its constructor's parameters that are not keyword-only, read the
same way (``_build_model`` says which three are read otherwise).

Every run writes ``summary.txt`` and ``summary.json`` (config echo,
results, assertion lines with their budgets, provenance: the master seed,
the RNG scheme, and the batch size and chunk length of each walk over the
paths) and
``metrics.csv`` (the numeric payload, 17 significant digits).  Identical
configs reproduce the CSV files byte for byte.
Exit codes: 0 success, 2 invalid config, 3 numeric failure, 4 an
experiment assertion failed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import importlib
import inspect
import json
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import hedging as _hedging
from . import markets as _markets
from . import paths as _paths
from .checks import Check
from .errors import (
    ConfigError,
    IntegrationFailureError,
    InvalidArgumentError,
    InvalidModelError,
    NumericFailureError,
    SptLabError,
)

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    name: str
    model: _markets.MarketModel
    grid: _paths.PathGrid
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
            lo=None, lo_open=False):
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


def _read_args(p: _Parse, sec: str, fn, skip=(), finite=False) -> dict:
    """The parameters of ``fn``, each read from the key of its name in
    section ``sec`` as its annotation says: an int, a float (``float`` or
    ``float | None``), or else a list of floats.  A key left out takes the
    parameter's default; one without a default is required.  Keyword-only
    parameters are not keys, and those in ``skip`` are the caller's.  With
    ``finite``, a nan or an infinity in a float or a list is an error."""
    args = {}
    for key, param in inspect.signature(fn, eval_str=True).parameters.items():
        if key in skip or param.kind is param.KEYWORD_ONLY:
            continue
        required = param.default is param.empty
        default = None if required else param.default
        if param.annotation is int:
            args[key] = p.num(sec, key, default, required, kind=int)
        elif param.annotation in (float, float | None):
            args[key] = p.num(sec, key, default, required)
        else:
            args[key] = p.vector(sec, key, default, required)
        if finite and args[key] is not None and not np.isfinite(args[key]).all():
            p.err(f"{sec}.{key}: {args[key]} is not finite")
            args[key] = default
    return args


def _build_sigma(p: _Parse, n: int):
    mat = p.matrix("model", "sigma")
    diag = p.vector("model", "sigma_diag")
    scale = p.num("model", "sigma_scale", lo=0.0, lo_open=True)
    off = p.num("model", "sigma_offdiag")
    given = sum(x is not None for x in (mat, diag, scale))
    if given != 1:
        p.err("model: one of sigma, sigma_diag, sigma_scale is required" if given == 0
              else "model: give only one of sigma, sigma_diag, sigma_scale")
    elif mat is not None and off is not None:
        p.err("model.sigma_offdiag does not apply to a full sigma matrix")
    elif mat is not None:
        return np.asarray(mat, dtype=float)
    elif diag is not None and len(diag) != n:
        p.err(f"model.sigma_diag: expected {n} entries, got {len(diag)}")
    else:
        m = np.full((n, n), 0.0 if off is None else off)
        np.fill_diagonal(m, scale if diag is None else diag)
        return m
    return None


def _build_model(p: _Parse, horizon, kind=None):
    """The ``[model]`` kind's market (or ``kind``'s), its constructor called
    once every parameter read cleanly; None after an error.  ``_read_args``
    reads all but three: ``sigma`` from its spellings once ``x0`` has fixed
    the dimension, ``horizon`` from ``[grid]``, and ``base``, annotated
    ``Annotated[MarketModel, kind]``, as that kind's model."""
    if kind is None:
        kind = p.text("model", "kind", required=True, choices=tuple(_markets.KINDS))
        if kind is None:
            return None
    make = _markets.KINDS[kind].make
    params = inspect.signature(make, eval_str=True).parameters
    errors = len(p.errors)
    args = _read_args(p, "model", make, skip=("sigma", "horizon", "base"))
    if "sigma" in params and args["x0"] is not None:
        args["sigma"] = _build_sigma(p, len(args["x0"]))
    if "horizon" in params:
        if horizon is None:
            p.err(f"grid.horizon is required for the {kind} model")
        args["horizon"] = horizon
    if "base" in params:
        args["base"] = _build_model(p, horizon, params["base"].annotation.__metadata__[0])
    if len(p.errors) > errors:
        return None
    try:
        return make(**args)
    except (InvalidModelError, InvalidArgumentError) as exc:
        p.err(f"model: {exc}")
        return None


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

    # grid first: a model may need the horizon
    horizon = p.num("grid", "horizon", lo=0.0, lo_open=True)
    n_steps = p.num("grid", "n_steps", kind=int, lo=1)
    geometric = p.flag("grid", "geometric", default=name == "instantaneous-dominance")
    t_min = p.num("grid", "t_min", default=1e-8, lo=0.0, lo_open=True)
    steps_per_unit = p.num("grid", "steps_per_unit", kind=int, lo=1)

    model = _build_model(p, horizon) if name is not None else None

    grid = None  # set below, or by call-decay's ladder once its horizons are read
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

    # a [model] constructor rejects its own non-finite numbers, naming them
    extras = (_read_args(p, "experiment", experiment(name), skip=("model", "factors"),
                         finite=True)
              if name is not None else {})
    if name == "call-decay":
        # one uniform grid out to the ladder's longest rung
        hz = extras["horizons"]
        if steps_per_unit is not None and hz is not None:
            try:
                k_max = max(_hedging.ladder_steps(hz, steps_per_unit))
                grid = _paths.make_grid(k_max / steps_per_unit, k_max)
            except InvalidArgumentError as exc:
                p.err(f"experiment.horizons: {exc}")
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
# experiments
# ---------------------------------------------------------------------------

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


# experiment name -> "module.function" in this package.  The function is
# looked up on its module each time an experiment runs, so one replaced
# there (to trace it, say) is the one that runs.
_EXPERIMENTS = {
    "diversity-report": "diversity.diversity_study",
    "arbitrage-45": "arbitrage.outperformance_study",
    "mirror-81": "arbitrage.mirror_study",
    "master-formula": "arbitrage.master_formula_order_study",
    "ranked-decomposition": "ranks.ranked_decomposition_study",
    "local-time-oracle": "ranks.local_time_study",
    "hedge-price": "hedging.hedge_price",
    "call-decay": "hedging.call_decay_study",
    "parity-gap": "hedging.parity_gap_study",
    "instantaneous-dominance": "arbitrage.dominance_study",
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def experiment(name: str):
    """The function that runs experiment ``name``."""
    module, attr = _EXPERIMENTS[name].split(".")
    return getattr(importlib.import_module(f".{module}", __package__), attr)


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Run a validated config's experiment and collect the report."""
    with _markets.recording_walks() as walks:
        metrics, info, assertions, tables = experiment(cfg.name)(
            cfg.model, _factors(cfg), **cfg.extras)
    provenance = {
        "artifact": f"spt-lab {__version__}",
        "master_seed": cfg.master_seed,
        "rng": "PCG64 per path, seeded by SeedSequence((master_seed, path_index))",
        "walks": walks,
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
