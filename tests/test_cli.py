"""Config parsing, experiment runs, output files, and exit codes."""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import spt_lab
from spt_lab import _kernels, arbitrage, cli, markets, paths
from spt_lab.errors import ConfigError
from helpers import CoarsenedFactors, count_draws, force_batch_size


_PRESETS = Path(__file__).resolve().parents[1] / "configs"


def _write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def _constant_cfg(tmp_path, out_dir, extra_mc="", extra_out="", n_paths=20):
    return _write(tmp_path, f"""\
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
        n_paths = {n_paths}
        master_seed = 3
        {extra_mc}

        [output]
        directory = {out_dir}
        {extra_out}
        """)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_config_defaults(tmp_path):
    cfg = cli.parse_config(_constant_cfg(tmp_path, tmp_path / "out"))
    assert cfg.name == "diversity-report"
    assert cfg.model.kind == "constant"
    assert cfg.model.n == 2
    assert cfg.grid.n_steps == 50
    assert cfg.n_paths == 20
    assert cfg.master_seed == 3
    assert cfg.per_path is True      # small runs record per-path rows by default
    assert cfg.series is False
    assert cfg.overrides == {}


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(str(tmp_path / "absent.ini"))
    assert "not found" in exc.value.messages[0]


def test_parse_collects_every_error(tmp_path):
    path = _write(tmp_path, """\
        [experiment]
        name = diversity-report

        [model]
        kind = diverse
        sigma_scale = 1.0
        delta = 0.3
        x0 = 10.0, 1.0, 1.0

        [grid]
        horizon = 1.0
        n_steps = 10

        [mc]
        n_paths = -5
        master_seed = 1
        """)
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(path)
    text = "; ".join(exc.value.messages)
    assert len(exc.value.messages) >= 2
    assert "barrier" in text          # initial top weight already too large
    assert "mc.n_paths" in text


def test_parse_rejects_unknown_experiment_and_keys(tmp_path):
    path = _write(tmp_path, """\
        [experiment]
        name = levitate

        [mc]
        n_paths = 10
        master_seed = 0
        """)
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(path)
    assert any("experiment.name" in m for m in exc.value.messages)

    stray = _constant_cfg(tmp_path, tmp_path / "o", extra_mc="typo = 1")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(stray)
    assert any("mc.typo" in m for m in exc.value.messages)

    # settings that no longer exist are rejected like any unknown one
    base = Path(_constant_cfg(tmp_path, tmp_path / "o")).read_text()
    for old, new, named in (
        ("[mc]", "[mc]\nworkers = 2", "mc.workers"),
        ("[mc]", "[mc]\nbatch_size = 7", "mc.batch_size"),
        ("[output]", "[output]\njson = false", "output.json"),
        ("kind = constant", "kind = gbm", "'gbm'"),
        ("name = diversity-report", "name = examples-82-83", "'examples-82-83'"),
        ("name = diversity-report", "name = simulate", "'simulate'"),
    ):
        removed = tmp_path / "removed.ini"
        removed.write_text(base.replace(old, new))
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(str(removed))
        assert any(named in m for m in exc.value.messages), new


def test_parse_steps_per_unit_restricted_to_call_decay(tmp_path):
    path = _write(tmp_path, """\
        [experiment]
        name = diversity-report
        delta = 0.3

        [model]
        kind = constant
        sigma_diag = 0.2
        b = 0.0
        x0 = 1.0

        [grid]
        horizon = 1.0
        n_steps = 10
        steps_per_unit = 5

        [mc]
        n_paths = 4
        master_seed = 0
        """)
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(path)
    assert any("steps_per_unit" in m for m in exc.value.messages)


def test_flag_overrides_beat_file_values(tmp_path):
    cfg = cli.parse_config(_constant_cfg(tmp_path, tmp_path / "a"),
                           paths=7, seed=99, steps=25, out=str(tmp_path / "b"))
    assert cfg.n_paths == 7
    assert cfg.master_seed == 99
    assert cfg.grid.n_steps == 25
    assert cfg.out_dir.endswith("b")
    assert cfg.overrides == {
        "mc.n_paths": "7", "mc.master_seed": "99",
        "grid.n_steps": "25", "output.directory": str(tmp_path / "b"),
    }


def test_per_path_gating(tmp_path):
    big = _constant_cfg(tmp_path, tmp_path / "o1", n_paths=20_000)
    assert cli.parse_config(big).per_path is False
    forced = _constant_cfg(tmp_path, tmp_path / "o2", n_paths=20_000,
                           extra_out="per_path = true")
    assert cli.parse_config(forced).per_path is True


# ---------------------------------------------------------------------------
# running experiments end to end
# ---------------------------------------------------------------------------

def test_run_simulate_writes_outputs(tmp_path):
    out = tmp_path / "run1"
    cfg = _constant_cfg(tmp_path, out, extra_out="series = true")
    assert cli.main(["run", cfg]) == 0
    for fname in ("metrics.csv", "per_path.csv", "series.csv",
                  "summary.txt", "summary.json"):
        assert (out / fname).is_file(), fname
    doc = json.loads((out / "summary.json").read_text())
    assert doc["provenance"]["master_seed"] == 3
    assert doc["provenance"]["rng"] == (
        "PCG64 per path, seeded by SeedSequence((master_seed, path_index))")
    assert doc["config"]["experiment"]["name"] == "diversity-report"
    # numeric cells carry full precision and parse back to floats
    rows = (out / "per_path.csv").read_text().strip().splitlines()
    assert rows[0].startswith("path_id,")
    assert len(rows) == 21
    float(rows[1].split(",")[1])

    # every check records a budget; the mirror's ceiling gap gets a positive one
    mirror = tmp_path / "mirror"
    assert cli.main(["run", str(_PRESETS / "mirror_81.ini"), "--paths", "8",
                     "--steps", "300", "--out", str(mirror)]) in (0, 4)
    doc = _checks_with_budgets(mirror)
    budgets = {a["label"]: a["budget"] for a in doc["assertions"]}
    assert budgets["running log wealth ratio stays under the ceiling"] > 0.0
    assert doc["info"]["capped_steps"] >= 0
    assert "capped_steps = " in (mirror / "summary.txt").read_text()
    # the mirror's two all-long wraps are reported beside it
    assert "underperformer_capital" in doc["results"]
    header = (mirror / "per_path.csv").read_text().splitlines()[0]
    assert header.endswith(",tau_integral,under_gap,out_gap")


def _checks_with_budgets(out):
    """summary.json, once each of its checks is seen to carry a finite
    budget >= 0 that summary.txt states too."""
    doc = json.loads((out / "summary.json").read_text())
    text = (out / "summary.txt").read_text()
    assert doc["assertions"]
    for a in doc["assertions"]:
        assert set(a) == {"label", "passed", "detail", "budget"}
        assert np.isfinite(a["budget"]) and a["budget"] >= 0.0
        assert f"{a['label']} = {'PASS' if a['passed'] else 'FAIL'} (" in text
        assert f"budget={a['budget']:.6g})" in text
    return doc


def test_provenance_records_each_walk(tmp_path):
    """summary.json's provenance lists each walk over the paths in order,
    with its batch size, chunk length and refinement factor: a whole-path
    study walks its grid in one chunk, arbitrage-45 in 256-step chunks, the
    call ladder's Foellmer pass in 512-path batches of 256-step chunks up
    to its last rung, and master-formula's fine and coarse grids in one
    pair walk of 256-step chunks (255 with refine = 3).  summary.txt
    carries the same list."""
    runs = {
        "report": ([_constant_cfg(tmp_path, tmp_path / "report")],
                   [{"batch_size": 256, "chunk_steps": 50, "refine": 1}]),
        "a45": ([str(_PRESETS / "arbitrage_45.ini"), "--paths", "4", "--steps", "600"],
                [{"batch_size": 256, "chunk_steps": 256, "refine": 1}]),
        "decay": ([str(_PRESETS / "call_decay.ini"), "--paths", "4", "--steps", "20"],
                  [{"batch_size": 512, "chunk_steps": 256, "refine": 1}]),
        "master": ([str(_PRESETS / "master_formula.ini"), "--paths", "4", "--steps", "600"],
                   [{"batch_size": 256, "chunk_steps": 256, "refine": 2}]),
        "master3": ([_write(tmp_path, (_PRESETS / "master_formula.ini").read_text().replace(
                         "refine = 2", "refine = 3"), name="mf3.ini"),
                     "--paths", "4", "--steps", "600"],
                    [{"batch_size": 256, "chunk_steps": 255, "refine": 3}]),
    }
    for name, (args, walks) in runs.items():
        out = tmp_path / name
        assert cli.main(["run", *args, "--out", str(out)]) in (0, 4), name
        doc = json.loads((out / "summary.json").read_text())
        assert doc["provenance"]["walks"] == walks, name
        assert f"walks = {walks}" in (out / "summary.txt").read_text().splitlines(), name


def test_reruns_and_batch_sizes_are_byte_identical(tmp_path, monkeypatch):
    outs = []
    for i in range(2):
        out = tmp_path / f"d{i}"
        assert cli.main(["run", _constant_cfg(tmp_path, out)]) == 0
        outs.append(out)
    for fname in ("metrics.csv", "per_path.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname

    # a study gives the same columns in one batch of 20 paths (its default
    # batch holds 256) and in three batches of at most 7; each run reduces
    # its 1,500 steps in several time chunks
    model = markets.diverse_market(np.eye(3), g=0.0, delta=0.3, x0=[1.0, 1.0, 1.0])
    factors = paths.generate_factors(paths.make_grid(15.0, 1500), 3, 20, master_seed=5)
    one = arbitrage.outperformance_study(model, factors, 0.5)
    force_batch_size(monkeypatch, 7)
    three = arbitrage.outperformance_study(model, factors, 0.5)
    assert one[0] == three[0]      # metrics, min_slack and min_fixed_slack among them
    assert one[1] == three[1]      # capped_steps
    for key, column in one[3]["per_path"].items():
        np.testing.assert_array_equal(column, three[3]["per_path"][key], err_msg=key)


# What each preset reports at 8 paths and 20 steps, by name: its metrics in
# order, its info keys, its check labels in order, and each CSV's columns.
_SCHEMA = {
    "arbitrage_45.ini": (
        "p horizon fraction min_slack weight_order_violations delta_avg_min "
        "delta_max_min threshold_horizon min_fixed_slack",
        "capped_steps",
        ["market outperformed on every path", "pathwise lower bound respected",
         "reweighting never flips the weight order"],
        {"per_path": "path_id terminal_log_ratio a5_slack delta_avg delta_max"}),
    "call_decay.ini": (
        "strike spot p_bound n_horizons first_price last_price",
        "knocked_out knocked_out_2dt monitoring_pair",
        ["hedge price sits under the spot at every horizon",
         "deflated stock price stays under the decay envelope",
         "hedge price decays along the horizon ladder"],
        {"stock": "T deflated_stock stderr envelope", "table": "T h_hat stderr envelope"}),
    "diversity_report.ini": (
        "delta tail_fraction diverse_fraction weakly_diverse_fraction min_delta_max "
        "min_delta_avg worst_tail_top mean_terminal_top",
        "capped_steps",
        ["drift repels the leader wherever the top weight nears the barrier"],
        {"per_path": "path_id log_x1 log_x2 log_x3 mu1 mu2 mu3 max_top avg_top tail_top "
                     "delta_max delta_avg is_diverse is_weakly_diverse capped_steps",
         "series": "t mean_mu1 mean_mu2 mean_mu3 mean_top"}),
    "hedge_price.ini": (
        "price se zero_fraction strike spot horizon reference t_stat",
        "claim",
        ["deflator price matches the closed form within 3 standard errors"],
        {}),
    "instantaneous_dominance.ini": (
        "fraction worst_lead switch_found_fraction confinement_breaches capped_steps "
        "n_steps min_fraction",
        "",
        ["second stock leads at every grid time until the handback",
         "the leading fraction does not fall under refinement",
         "confinement breaches do not grow under refinement"],
        {"per_path": "path_id min_lead switch_index exit_index dominated"}),
    "local_time_oracle.ini": (
        "mean_terminal_local_time se horizon oracle abs_error t_stat",
        "capped_steps",
        ["terminal local time matches the reflected-line mean"],
        {}),
    "master_formula.ini": (
        "p dt_fine dt_coarse mean_abs_residual_fine mean_abs_residual_coarse "
        "max_abs_residual_fine max_abs_residual_coarse ratio order "
        "max_abs_residual_model_cov_fine floor_margin_min",
        "capped_steps capped_steps_coarse",
        ["residual shrinks at first order in the step",
         "decomposition holds on every path within the scheme budget"],
        {"per_path": "path_id lhs rhs residual residual_model_cov"}),
    "mirror_81.ini": (
        "p p_threshold beta horizon fraction_under worst_terminal_log_ratio "
        "worst_ceiling_gap tau_integral_min eta_needed eta_model hypothesis_fraction "
        "underperformer_capital outperformer_capital underperformer_fraction "
        "outperformer_fraction underperformer_weight_margin_min "
        "outperformer_weight_margin_min",
        "capped_steps",
        ["mirror finishes behind the market on every path",
         "accumulated relative variance clears the threshold on every path",
         "running log wealth ratio stays under the ceiling",
         "drowned mirror stays all-long",
         "shorted mirror wrap stays all-long",
         "drowned mirror underperforms scaled market on every path",
         "shorted mirror outperforms scaled market on every path"],
        {"per_path": "path_id terminal_log_ratio ceiling_gap_max tau_integral under_gap "
                     "out_gap"}),
    "parity_gap.ini": (
        "p h1 h1_se h2 h2_se gap gap_se t_stat control_gap control_gap_se "
        "control_expected control_t_stat",
        "knocked_out monitoring_pair",
        ["two equal-start assets price apart by at least 3 standard errors",
         "plain stock pair prices at its initial difference",
         "deflated market and mirror wealth stay within 3 standard errors of their start"],
        {}),
    "ranked_decomposition.ini": (
        "max_relative_named max_relative_model mean_relative_model "
        "mean_terminal_local_time_top_gap",
        "capped_steps",
        [],
        {"per_path": "path_id relative_named relative_model gap_local_time1",
         "series": "t ranked_w1 ranked_w2 gap_local_time1"}),
}


@pytest.mark.parametrize("preset", sorted(p.name for p in _PRESETS.glob("*.ini")))
def test_preset_runs_at_small_size(tmp_path, preset):
    """Every shipped preset runs end to end, and reports what it reported
    before by name; assertions may fail at this size."""
    out = tmp_path / "out"
    rc = cli.main(["run", str(_PRESETS / preset), "--paths", "8", "--steps", "20",
                   "--out", str(out)])
    assert rc in (0, 4)
    assert {"metrics.csv", "summary.txt", "summary.json"} <= set(os.listdir(out))
    metrics, info, labels, tables = _SCHEMA[preset]
    rows = (out / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == metrics.split()
    doc = json.loads((out / "summary.json").read_text())
    assert sorted(doc["info"]) == info.split()
    assert [a["label"] for a in doc["assertions"]] == labels
    headers = {p.stem: p.read_text().splitlines()[0].split(",")
               for p in out.glob("*.csv") if p.stem != "metrics"}
    assert headers == {stem: cols.split() for stem, cols in tables.items()}


def test_exit_codes_for_bad_invocations(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "ghost.ini")]) == 2
    bad = _write(tmp_path, "[experiment]\nname = diversity-report\n")
    assert cli.main(["run", bad]) == 2
    # the dominance study walks its grid and the grid coarsened by two
    capsys.readouterr()
    assert cli.main(["run", str(_PRESETS / "instantaneous_dominance.ini"), "--paths", "4",
                     "--steps", "21", "--out", str(tmp_path / "odd")]) == 2
    assert "cannot coarsen a 21-step grid by 2" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main([])


def test_failed_comparison_exits_four(tmp_path):
    """On a coarse uniform grid the early-lead claim genuinely fails."""
    out = tmp_path / "coarse"
    cfg = _write(tmp_path, f"""\
        [experiment]
        name = instantaneous-dominance

        [model]
        kind = dominance
        alpha = 0.25

        [grid]
        horizon = 1.0
        n_steps = 16
        geometric = false

        [mc]
        n_paths = 200
        master_seed = 11

        [output]
        directory = {out}
        """)
    assert cli.main(["run", cfg]) == 4
    assert not all(a["passed"] for a in _checks_with_budgets(out)["assertions"])


def test_arbitrage_per_path_schema(tmp_path):
    out = tmp_path / "a45"
    cfg = _write(tmp_path, f"""\
        [experiment]
        name = arbitrage-45
        p = 0.5

        [model]
        kind = diverse
        sigma_scale = 1.0
        delta = 0.3
        x0 = 1.0, 1.0, 1.0

        [grid]
        horizon = 2.0
        n_steps = 200

        [mc]
        n_paths = 60
        master_seed = 11

        [output]
        directory = {out}
        """)
    assert cli.main(["run", cfg]) == 0
    header = (out / "per_path.csv").read_text().splitlines()[0]
    assert header == "path_id,terminal_log_ratio,a5_slack,delta_avg,delta_max"


def test_call_decay_table_schema(tmp_path):
    out = tmp_path / "decay"
    cfg = _write(tmp_path, f"""\
        [experiment]
        name = call-decay
        strike = 1.0
        horizons = 1.0, 2.0

        [model]
        kind = diverse
        sigma_scale = 0.25
        delta = 0.3
        x0 = 1.0, 1.0
        r = 0.03

        [grid]
        steps_per_unit = 20

        [mc]
        n_paths = 200
        master_seed = 7

        [output]
        directory = {out}
        """)
    rc = cli.main(["run", cfg])
    assert rc in (0, 4)
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "T,h_hat,stderr,envelope"
    assert len(table) == 3
    stock = (out / "stock.csv").read_text().splitlines()
    assert stock[0] == "T,deflated_stock,stderr,envelope"
    # knocked-out paths and the call price monitored at dt and at 2 dt, per
    # rung, outside the CSVs; monitoring every other point knocks out fewer
    info = json.loads((out / "summary.json").read_text())["info"]
    assert set(info) == {"knocked_out", "knocked_out_2dt", "monitoring_pair"}
    assert len(info["knocked_out"]) == len(info["knocked_out_2dt"]) == 2
    assert all(isinstance(k, int) and 0 <= k <= 200 for k in info["knocked_out"])
    assert all(isinstance(k2, int) and 0 <= k2 <= k
               for k, k2 in zip(info["knocked_out"], info["knocked_out_2dt"]))
    h_hat = [float(line.split(",")[1]) for line in table[1:]]
    assert [pair[0] for pair in info["monitoring_pair"]] == h_hat
    summary = (out / "summary.txt").read_text()
    assert f"knocked_out = {info['knocked_out']}" in summary
    assert "monitoring_pair = " in summary


def _assert_rejected(capsys, argv, out, message):
    """``spt-lab`` exits 2 with the study's ``message`` as a config error
    and writes nothing."""
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, extra, kind, grid, message", [
    ("hedge-price", "strike = 1.0", "diverse", "n_steps = 10\nhorizon = 1.0",
     "the closed-form deflator needs a constant market, not 'diverse'"),
    ("parity-gap", "p = 2.0", "patched", "n_steps = 10\nhorizon = 1.0",
     "the Foellmer knock-out is defined for the diverse market kind, not 'patched'"),
    ("call-decay", "strike = 1.0\nhorizons = 1.0", "constant", "steps_per_unit = 10",
     "the Foellmer knock-out is defined for the diverse market kind, not 'constant'"),
    ("parity-gap", "p = 2.0", "diverse", "n_steps = 10\nhorizon = 1.0\ngeometric = true",
     "the parity witness needs a uniform grid"),
])
def test_experiments_reject_models_they_cannot_price(tmp_path, capsys, name, extra, kind,
                                                     grid, message):
    """hedge-price's closed-form deflator needs a constant market; the
    Foellmer knock-out needs the diverse one, since the patched market's
    drift may never switch on and its tau is not the first barrier hit; the
    parity witness needs a uniform grid.  Each config parses, and its study
    rejects it before anything is written."""
    model = {"constant": "b = 0.05", "diverse": "delta = 0.1",
             "patched": "delta = 0.1\neta = 0.3"}[kind]
    # call-decay needs a positive rate, parity-gap a zero one
    rate = "r = 0.03\n" if name == "call-decay" else ""
    cfg = tmp_path / "kind.ini"
    cfg.write_text(f"[experiment]\nname = {name}\n{extra}\n\n"
                   f"[model]\nkind = {kind}\nsigma_scale = 0.25\n{model}\n"
                   f"x0 = 1.0, 1.0\n{rate}\n"
                   f"[grid]\n{grid}\n\n"
                   "[mc]\nn_paths = 10\nmaster_seed = 7\n")
    _assert_rejected(capsys, ["run", str(cfg)], tmp_path / "out", message)


def test_parity_gap_records_knock_outs(tmp_path):
    """The witness runs under the Foellmer measure: its summary records the
    paths knocked out and h1 monitored at dt and at 2 dt, not capped steps."""
    out = tmp_path / "gap"
    rc = cli.main(["run", str(_PRESETS / "parity_gap.ini"), "--paths", "200",
                   "--steps", "80", "--out", str(out)])
    assert rc in (0, 4)
    info = json.loads((out / "summary.json").read_text())["info"]
    assert set(info) == {"knocked_out", "monitoring_pair"}
    assert isinstance(info["knocked_out"], int) and 0 <= info["knocked_out"] <= 200
    metrics = dict(line.split(",") for line in (out / "metrics.csv").read_text().splitlines())
    h1, h1_2dt = info["monitoring_pair"]
    assert h1 == float(metrics["h1"]) and h1 <= h1_2dt


def test_call_decay_rejects_off_grid_horizons(tmp_path):
    cfg = _write(tmp_path, """\
        [experiment]
        name = call-decay
        strike = 1.0
        horizons = 1.0, 2.5

        [model]
        kind = diverse
        sigma_scale = 0.25
        delta = 0.3
        x0 = 1.0, 1.0
        r = 0.03

        [grid]
        steps_per_unit = 3

        [mc]
        n_paths = 10
        master_seed = 7
        """, name="offgrid.ini")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(cfg)
    assert any("horizon 2.5 is not a whole number of steps" in m
               for m in exc.value.messages)
    assert cli.parse_config(cfg, steps=4).extras["horizons"] == [1.0, 2.5]
    negative = _write(tmp_path, Path(cfg).read_text().replace("2.5", "-2"), name="neg.ini")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(negative)
    assert exc.value.messages == ["experiment.horizons: horizon -2 must be positive"]


def test_call_decay_rejects_grid_horizon_and_steps(tmp_path):
    """call-decay's grids come from experiment.horizons and steps_per_unit,
    so a grid horizon or step count would be ignored; both are errors."""
    cfg = _write(tmp_path, """\
        [experiment]
        name = call-decay
        strike = 1.0
        horizons = 1.0

        [model]
        kind = diverse
        sigma_scale = 0.25
        delta = 0.3
        x0 = 1.0, 1.0
        r = 0.03

        [grid]
        steps_per_unit = 10
        horizon = 7.0
        n_steps = 3

        [mc]
        n_paths = 10
        master_seed = 7
        """, name="decay_grid.ini")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(cfg)
    assert exc.value.messages == ["grid.horizon does not apply to call-decay",
                                  "grid.n_steps does not apply to call-decay"]


def test_call_decay_rejects_geometric_grid_keys(tmp_path):
    """call-decay builds uniform ladder grids, so a set grid.geometric or
    grid.t_min would be ignored; each is an error, even at its default."""
    cfg = _write(tmp_path, """\
        [experiment]
        name = call-decay
        strike = 1.0
        horizons = 1.0

        [model]
        kind = diverse
        sigma_scale = 0.25
        delta = 0.3
        x0 = 1.0, 1.0
        r = 0.03

        [grid]
        steps_per_unit = 10
        geometric = false
        t_min = 1e-8

        [mc]
        n_paths = 10
        master_seed = 7
        """, name="decay_geometric.ini")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(cfg)
    assert exc.value.messages == ["grid.geometric does not apply to call-decay",
                                  "grid.t_min does not apply to call-decay"]


@pytest.mark.parametrize("geometric", ["", "geometric = false"])
def test_t_min_needs_a_geometric_grid(tmp_path, geometric):
    """grid.t_min only shapes a geometric grid; on a uniform one it is an
    error, whether the grid is uniform by default or by a set key."""
    cfg = _write(tmp_path, f"""\
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
        t_min = 1e-6
        {geometric}

        [mc]
        n_paths = 10
        master_seed = 3
        """, name="uniform_t_min.ini")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(cfg)
    assert exc.value.messages == ["grid.t_min only applies to a geometric grid"]


def test_geometric_grid_keys_parse_where_they_apply(tmp_path):
    """The dominance preset sets both keys on its geometric grid, and a
    geometric grid may be asked for on any other experiment."""
    cfg = cli.parse_config(str(_PRESETS / "instantaneous_dominance.ini"))
    assert not cfg.grid.is_uniform
    assert cfg.grid.times[1] == pytest.approx(1e-8)
    text = Path(_constant_cfg(tmp_path, tmp_path / "out")).read_text()
    geo = _write(tmp_path, text.replace(
        "n_steps = 50", "n_steps = 50\ngeometric = true\nt_min = 1e-4"), name="geo.ini")
    assert cli.parse_config(geo).grid.times[1] == pytest.approx(1e-4)


def test_master_formula_records_capped_steps(tmp_path):
    """On a coarse grid the diverse market's drift cap binds; the summary
    counts the capped entries of the fine and the coarse run, outside the
    CSVs."""
    out = tmp_path / "mf"
    cfg = _write(tmp_path, f"""\
        [experiment]
        name = master-formula
        p = 0.5
        refine = 2

        [model]
        kind = diverse
        sigma_scale = 1.0
        delta = 0.3
        x0 = 1.0, 1.0, 1.0

        [grid]
        horizon = 15.0
        n_steps = 400

        [mc]
        n_paths = 16
        master_seed = 5

        [output]
        directory = {out}
        """, name="mf.ini")
    assert cli.main(["run", cfg]) in (0, 4)
    info = json.loads((out / "summary.json").read_text())["info"]
    parsed = cli.parse_config(cfg)
    factors = cli._factors(parsed)
    caps = [int(markets.simulate_block(parsed.model, f, 0, 16)[1]["capped_steps"].sum())
            for f in (factors, CoarsenedFactors(factors, 2))]
    assert caps[0] > 0 and caps[1] > 0
    assert info == {"capped_steps": caps[0], "capped_steps_coarse": caps[1]}
    summary = (out / "summary.txt").read_text()
    assert f"capped_steps = {caps[0]}" in summary
    assert f"capped_steps_coarse = {caps[1]}" in summary
    assert "capped" not in (out / "metrics.csv").read_text()
    assert (out / "per_path.csv").read_text().splitlines()[0] == \
        "path_id,lhs,rhs,residual,residual_model_cov"


@pytest.mark.parametrize("name", ["ranked-decomposition", "local-time-oracle"])
def test_experiments_without_a_study_record_capped_steps(tmp_path, name):
    """ranked-decomposition and local-time-oracle count the capped drift
    entries in the summary, outside the CSVs."""
    out = tmp_path / "capped"
    cfg = _write(tmp_path, f"""\
        [experiment]
        name = {name}

        [model]
        kind = diverse
        sigma_scale = 1.0
        delta = 0.3
        x0 = 1.0, 1.0, 1.0

        [grid]
        horizon = 15.0
        n_steps = 400

        [mc]
        n_paths = 16
        master_seed = 5

        [output]
        directory = {out}
        """)
    assert cli.main(["run", cfg]) == 0
    parsed = cli.parse_config(cfg)
    caps = int(markets.simulate_block(parsed.model, cli._factors(parsed), 0, 16)[1]
               ["capped_steps"].sum())
    assert caps > 0
    assert json.loads((out / "summary.json").read_text())["info"] == {"capped_steps": caps}
    assert f"capped_steps = {caps}" in (out / "summary.txt").read_text()
    assert "capped" not in (out / "metrics.csv").read_text()


def _parity_gap_with(tmp_path, old, new):
    text = (_PRESETS / "parity_gap.ini").read_text()
    assert old in text
    return _write(tmp_path, text.replace(old, new), name="gap.ini")


@pytest.mark.parametrize("control, message", [
    ("control_j = 7", "control_j 7 is not a stock of a 3-stock market"),
    ("control_j = 0", "control_j 0 must differ from control_i"),
])
def test_parity_gap_rejects_bad_control_indices(tmp_path, capsys, control, message):
    """A control stock outside the market, or a pair of one stock, is a
    config error rather than an index error or a gap of 0 with t = inf."""
    cfg = _parity_gap_with(tmp_path, "control_j = 1", control)
    _assert_rejected(capsys, ["run", cfg, "--paths", "4"], tmp_path / "o", message)


@pytest.mark.parametrize("name, kind", [
    ("ranked-decomposition", "ou-pair"),
    ("instantaneous-dominance", "dominance"),
])
def test_alpha_is_required(tmp_path, capsys, name, kind):
    """A market kind whose constructor takes alpha without a default reports
    the missing key, not a TypeError from comparing None."""
    cfg = _write(tmp_path, f"""\
        [experiment]
        name = {name}

        [model]
        kind = {kind}

        [grid]
        horizon = 1.0
        n_steps = 10

        [mc]
        n_paths = 4
        master_seed = 1
        """)
    _assert_rejected(capsys, ["run", cfg], tmp_path / "o", "model.alpha is required")


def test_more_paths_than_seeds_is_a_config_error(tmp_path, capsys):
    """A path index hashes as one 32-bit word, so a run has at most 2**32
    paths; the factor source rejects more before it draws anything."""
    _assert_rejected(capsys, ["run", str(_PRESETS / "hedge_price.ini"), "--paths", str(2**32 + 1)],
                     tmp_path / "o", "need between 1 and 2**32 paths, not 4294967297")


@pytest.mark.parametrize("preset, old, new, message", [
    ("ranked_decomposition.ini", "switch_time = 1.0", "switch_time = nan",
     "model: switch_time must be finite and nonnegative, not nan"),
    ("ranked_decomposition.ini", "alpha = 0.5", "alpha = inf",
     "model: alpha must be finite and positive, not inf"),
    ("instantaneous_dominance.ini", "cdrift = 1.0", "cdrift = nan",
     "model: cdrift nan and step_cap 0.25 must be finite and positive"),
    ("arbitrage_45.ini", "delta = 0.3", "delta = 0.3\nbig_m = nan",
     "model: big_m nan must be finite and at least the certificate upper bound"),
    ("arbitrage_45.ini", "delta = 0.3", "delta = 0.3\nbig_m = inf",
     "model: big_m inf must be finite and at least the certificate upper bound"),
])
def test_non_finite_model_numbers_are_config_errors(tmp_path, capsys, preset, old, new,
                                                    message):
    """A nan or inf the constructor would carry into the drift (a spread
    that never reverts or reverts infinitely fast, a leader step always
    capped) is rejected before the run, naming its key."""
    text = (_PRESETS / preset).read_text()
    assert old in text
    cfg = _write(tmp_path, text.replace(old, new), name=preset)
    _assert_rejected(capsys, ["run", cfg], tmp_path / "o", message)


@pytest.mark.parametrize("preset, old, new, message", [
    ("hedge_price.ini", "strike = 1.0", "strike = inf", "experiment.strike: inf is not finite"),
    ("hedge_price.ini", "strike = 1.0", "strike = nan", "experiment.strike: nan is not finite"),
    ("call_decay.ini", "strike = 1.0", "strike = inf", "experiment.strike: inf is not finite"),
    ("call_decay.ini", "horizons = 5, 10, 20, 40, 80", "horizons = 5, inf",
     "experiment.horizons: [5.0, inf] is not finite"),
], ids=["hedge-price-inf", "hedge-price-nan", "call-decay-inf", "call-decay-horizons-inf"])
def test_non_finite_experiment_numbers_are_config_errors(tmp_path, capsys, preset, old, new,
                                                         message):
    """A nan or inf in an ``[experiment]`` float or list is rejected before
    the run, naming its key: an infinite strike ended the closed-form price
    in a traceback, a nan one wrote ``price = nan``, call-decay ran to the
    end on an infinite strike, and an infinite rung ended its grid in an
    ``OverflowError`` traceback."""
    text = (_PRESETS / preset).read_text()
    assert old in text
    cfg = _write(tmp_path, text.replace(old, new), name=preset)
    _assert_rejected(capsys, ["run", cfg, "--paths", "10"], tmp_path / "o", message)


def test_full_sigma_matrix_parses_and_takes_no_offdiag(tmp_path):
    """``sigma`` spells the whole matrix, rows split by ``;``; a
    ``sigma_offdiag`` beside it would be read and dropped, so it is an
    error."""
    text = Path(_constant_cfg(tmp_path, tmp_path / "o")).read_text()
    full = _write(tmp_path, text.replace("sigma_diag = 0.2, 0.3", "sigma = 0.2 0.1; 0 0.3"),
                  name="full.ini")
    np.testing.assert_array_equal(cli.parse_config(full).model.vol.sigma,
                                  [[0.2, 0.1], [0.0, 0.3]])
    both = _write(tmp_path, text.replace("sigma_diag = 0.2, 0.3",
                                         "sigma = 1 0; 0 1\nsigma_offdiag = 0.5"),
                  name="both.ini")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(both)
    assert exc.value.messages == ["model.sigma_offdiag does not apply to a full sigma matrix"]


# a valid value for every [model] key of every kind, on two stocks
_MODEL_VALUES = {
    "alpha": "0.25", "b": "0.05, 0.0", "big_m": "2.0", "cdrift": "1.5", "delta": "0.2",
    "delta_prime": "0.35", "eta": "0.3", "g": "0.01", "r": "0.02", "switch_time": "0.5",
    "x0": "1.0, 1.2",
}
_SIGMA_SPELLINGS = ({"sigma": "0.3 0.05; 0.05 0.3"},
                    {"sigma_diag": "0.3, 0.2", "sigma_offdiag": "0.05"},
                    {"sigma_scale": "0.3", "sigma_offdiag": "0.05"})


def _model_keys(kind):
    """The [model] keys of ``kind`` as its constructor's signature names
    them: ``sigma`` as its spellings, ``base`` as the diverse kind's keys,
    and no ``horizon``, which ``[grid]`` sets."""
    params = inspect.signature(markets.KINDS[kind].make).parameters.values()
    keys = set()
    for param in params:
        if param.kind is not param.POSITIONAL_OR_KEYWORD or param.name == "horizon":
            continue
        if param.name == "sigma":
            keys |= {k for spelling in _SIGMA_SPELLINGS for k in spelling}
        elif param.name == "base":
            keys |= _model_keys("diverse")
        else:
            keys.add(param.name)
    return keys


def _model_cfg(tmp_path, kind, keys: dict):
    return _write(tmp_path, "[experiment]\nname = diversity-report\n\n"
                  f"[model]\nkind = {kind}\n"
                  + "".join(f"{k} = {v}\n" for k, v in keys.items())
                  + "\n[grid]\nhorizon = 1.0\nn_steps = 10\n\n"
                  "[mc]\nn_paths = 4\nmaster_seed = 1\n", name=f"{kind}.ini")


@pytest.mark.parametrize("kind", sorted(markets.KINDS))
def test_each_kind_reads_exactly_its_constructor_keys(tmp_path, kind):
    """parse_config accepts every key the constructor's signature names, in
    each spelling of sigma, and rejects every other [model] key as
    unknown: ``step_cap``, which is keyword-only and set in code,
    ``horizon``, which [grid] sets, and the keys of the other kinds."""
    keys = _model_keys(kind)
    plain = {k: _MODEL_VALUES[k] for k in keys if k in _MODEL_VALUES}
    spellings = [s for s in _SIGMA_SPELLINGS if s.keys() <= keys] or [{}]
    for spelling in spellings:
        cfg = cli.parse_config(_model_cfg(tmp_path, kind, {**plain, **spelling}))
        assert cfg.model.kind == kind
        assert set(cfg.echo["model"]) == {"kind", *plain, *spelling}
    others = set().union(*map(_model_keys, markets.KINDS)) | {"horizon"}
    for key in sorted(others - keys | {"step_cap"}):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(_model_cfg(tmp_path, kind, {**plain, **spellings[0], key: "0.1"}))
        assert exc.value.messages == [f"unknown key model.{key}"], key


def _toy_market(sigma, x0, pull: float = 1.0):
    """Log prices pulled toward their mean at rate ``pull``."""
    return markets.MarketModel(kind="toy", vol=markets.Dispersion(sigma), x0=x0,
                               params={"pull": pull})


def _toy_rule(model):
    pull = model.params["pull"]
    return lambda t, lx, records: -pull * (lx - lx.mean(axis=-1, keepdims=True))


def test_a_new_kind_is_one_entry(tmp_path, monkeypatch):
    """A kind added as one ``markets.KINDS`` entry, and nowhere else, parses
    from a config, integrates through ``simulate_block`` with the shared
    Euler kernel, and replays its growth rule through ``growth_rates_along``
    as the displacement that kernel applied."""
    monkeypatch.setitem(markets.KINDS, "toy", markets.Kind(_toy_market, _toy_rule,
                                                           _kernels._euler))
    cfg = cli.parse_config(_model_cfg(tmp_path, "toy", {"sigma_scale": "0.3",
                                                        "x0": "1.0, 2.0, 0.5", "pull": "2.0"}))
    model, factors = cfg.model, cli._factors(cfg)
    assert (model.kind, model.params) == ("toy", {"pull": 2.0})
    lx, aux = markets.simulate_block(model, factors, 0, factors.n_paths)
    np.testing.assert_array_equal(aux["capped_steps"], 0)
    gamma = markets.growth_rates_along(model, lx, factors.grid.times, aux)
    dv = markets._vol_increments(model, factors.block(0, factors.n_paths))
    np.testing.assert_allclose(lx[:, 1:] - lx[:, :-1] - dv,
                               gamma[:, :-1] * factors.grid.step_sizes[None, :, None],
                               rtol=0, atol=1e-12)
    assert np.abs(gamma).max() > 0


def test_ranked_decomposition_rejects_a_kind_without_growth_rule(tmp_path, capsys, monkeypatch):
    """The dominance kind has no growth rule to replay, so ranked-decomposition
    exits 2 before it draws a single factor."""
    whole, chunked = count_draws(monkeypatch)
    cfg = _write(tmp_path, """\
        [experiment]
        name = ranked-decomposition

        [model]
        kind = dominance
        alpha = 0.25

        [grid]
        horizon = 1.0
        n_steps = 200

        [mc]
        n_paths = 600
        master_seed = 1
        """)
    _assert_rejected(capsys, ["run", cfg], tmp_path / "o",
                     "growth rates along a path are not defined for kind 'dominance'")
    assert not whole and not chunked


@pytest.mark.parametrize("refine, message", [
    ("3", "cannot coarsen a 2000-step grid by 3"),
    ("1", "refine 1 must be at least 2"),
])
def test_master_formula_rejects_a_bad_refinement_before_drawing(tmp_path, capsys, monkeypatch,
                                                              refine, message):
    """A refinement that does not divide the preset's 2,000 steps, or that
    is below 2, exits 2 before a single factor is drawn."""
    whole, chunked = count_draws(monkeypatch)
    cfg = _write(tmp_path, (_PRESETS / "master_formula.ini").read_text().replace(
        "refine = 2", f"refine = {refine}"), name="mf.ini")
    _assert_rejected(capsys, ["run", cfg], tmp_path / "o", message)
    assert not whole and not chunked


_PRESET_MODELS = {
    "arbitrage_45": lambda: markets.diverse_market(np.eye(3), delta=0.3, x0=[1.0] * 3),
    "call_decay": lambda: markets.diverse_market(0.25 * np.eye(3), delta=0.3, x0=[1.0] * 3,
                                                 r=0.03),
    "diversity_report": lambda: markets.diverse_market(np.eye(3), delta=0.3, x0=[1.0] * 3),
    "hedge_price": lambda: markets.constant_market(
        b=[0.12, 0.05], sigma=np.diag([0.25, 0.30]), x0=[1.0, 1.0], r=0.03),
    "instantaneous_dominance": lambda: markets.instantaneous_dominance_market(alpha=0.25),
    "local_time_oracle": lambda: markets.constant_market(b=0.5, sigma=[[1.0]], x0=[1.0]),
    "master_formula": lambda: markets.constant_market(
        b=[0.05, 0.02, 0.08, 0.0, 0.04],
        sigma=np.where(np.eye(5, dtype=bool), [0.2, 0.25, 0.3, 0.35, 0.4], 0.05),
        x0=[2.0, 1.0, 1.5, 0.8, 1.2]),
    "mirror_81": lambda: markets.diverse_market(np.eye(3), delta=0.3, x0=[1.0] * 3),
    "parity_gap": lambda: markets.diverse_market(0.25 * np.eye(3), delta=0.3, x0=[1.0] * 3),
    "ranked_decomposition": lambda: markets.ou_two_stock(alpha=0.5, switch_time=1.0),
}


def test_each_preset_parses_to_its_constructors_model():
    """Every preset's [model] gives the market its constructor builds when
    called directly: the same kind, parameters, sigma, x0 and r."""
    assert sorted(_PRESET_MODELS) == sorted(p.stem for p in _PRESETS.glob("*.ini"))
    for stem, build in _PRESET_MODELS.items():
        got, want = cli.parse_config(str(_PRESETS / f"{stem}.ini")).model, build()
        assert (got.kind, got.r) == (want.kind, want.r), stem
        assert got.params.keys() == want.params.keys(), stem
        for key in want.params:
            np.testing.assert_array_equal(got.params[key], want.params[key], err_msg=stem)
        np.testing.assert_array_equal(got.vol.sigma, want.vol.sigma, err_msg=stem)
        np.testing.assert_array_equal(got.x0, want.x0, err_msg=stem)


def test_each_experiment_reads_exactly_its_parsed_keys():
    """Every experiment's function takes the model, the factors and, by
    name, the extras that parse_config reads for it from its preset: no key
    is parsed and never read, and no parameter is left unparsed."""
    parsed = {cfg.name: cfg for cfg in map(cli.parse_config, map(str, _PRESETS.glob("*.ini")))}
    assert sorted(parsed) == sorted(cli.EXPERIMENTS)
    for name, cfg in parsed.items():
        params = list(inspect.signature(cli.experiment(name)).parameters)
        assert params[:2] == ["model", "factors"], name
        assert sorted(params[2:]) == sorted(cfg.extras), name


def test_left_out_keys_take_the_study_defaults(tmp_path):
    """A key left out of [experiment] takes its parameter's default, and one
    whose parameter has none is required."""
    text = (_PRESETS / "hedge_price.ini").read_text()
    no_index = _write(tmp_path, text.replace("index = 0\n", ""), name="no_index.ini")
    assert cli.parse_config(no_index).extras == {"strike": 1.0, "index": 0}
    no_strike = _write(tmp_path, text.replace("strike = 1.0\n", ""), name="no_strike.ini")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(no_strike)
    assert exc.value.messages == ["experiment.strike is required"]


def test_call_decay_steps_override_goes_to_steps_per_unit(tmp_path):
    cfg = _write(tmp_path, f"""\
        [experiment]
        name = call-decay
        strike = 1.0
        horizons = 1.0

        [model]
        kind = diverse
        sigma_scale = 0.25
        delta = 0.3
        x0 = 1.0, 1.0
        r = 0.03

        [grid]
        steps_per_unit = 20

        [mc]
        n_paths = 10
        master_seed = 7

        [output]
        directory = {tmp_path / "x"}
        """, name="decay.ini")
    parsed = cli.parse_config(cfg, steps=5)
    assert (parsed.grid.n_steps, parsed.grid.horizon) == (5, 1.0)


def test_cli_import_leaves_scipy_unloaded():
    """Importing the CLI imports neither scipy, which no experiment uses,
    nor concurrent.futures: batches run one after another.  Nor does it
    import numpy.random, which numpy loads lazily: the first factor draw
    loads it, so its cost falls in the draws and not in a run's set-up."""
    root = str(Path(spt_lab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in [root, os.environ.get("PYTHONPATH")] if p)
    r = subprocess.run(
        [sys.executable, "-c", "import sys, spt_lab.cli; "
         "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules, "
         "'numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False False False"
