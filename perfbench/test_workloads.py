"""Each benchmark check accepts a right result and rejects a constructed
wrong one.  Run with ``python3 -m pytest perfbench -q`` from the repo root;
no test starts the program."""

import math

import numpy as np
import pytest

import reference
import run
import workloads as wl


def outputs(metrics=None, **tables):
    return {"metrics": metrics or {}, "tables": tables}


# --- every run -------------------------------------------------------------

GOOD_SUMMARY = {"assertions": [{"label": "a", "passed": True, "detail": ""}]}
CSVS = {"metrics.csv": b"metric,value\nx,1\n"}


def test_run_problems_accepts_a_clean_rerun():
    assert wl.run_problems(0, GOOD_SUMMARY, CSVS, dict(CSVS)) == []


@pytest.mark.parametrize("code, summary, csvs", [
    (4, GOOD_SUMMARY, CSVS),
    (0, {"assertions": [{"label": "a", "passed": False, "detail": ""}]}, CSVS),
    (0, {"assertions": []}, CSVS),
    (0, None, CSVS),
    (0, GOOD_SUMMARY, {"metrics.csv": b"metric,value\nx,2\n"}),
    (0, GOOD_SUMMARY, {}),
])
def test_run_problems_rejects(code, summary, csvs):
    assert wl.run_problems(code, summary, csvs, CSVS)


# --- gbm-hedge -------------------------------------------------------------

def hedge_case(offset, se=0.001):
    sections = wl.gbm_hedge_sections(0)
    ref = reference.black_scholes_call(1.0, 1.0, 0.03, 0.25, 2.0)
    return sections, outputs({"price": ref + offset, "se": se})


def test_black_scholes_matches_a_textbook_value():
    # S = K = 100, r = 5%, sigma = 20%, T = 1: 10.4506
    assert reference.black_scholes_call(100, 100, 0.05, 0.2, 1.0) == pytest.approx(10.4506, abs=1e-4)


def test_hedge_check_accepts_a_price_within_the_error():
    assert wl.gbm_hedge_check(*hedge_case(0.003)) == (1, 0, [])


@pytest.mark.parametrize("offset, se", [(0.005, 0.001), (-0.005, 0.001), (0.0, 0.0),
                                        (0.0, math.nan)])
def test_hedge_check_rejects(offset, se):
    assert wl.gbm_hedge_check(*hedge_case(offset, se))[2]


# --- diverse-arbitrage -----------------------------------------------------

def arbitrage_case(**change):
    sections = wl.diverse_arbitrage_sections(0)
    n = int(sections["mc"]["n_paths"])
    # eps = 1, delta = 0.3, T = 15, p = 0.5: bound = 0.5 (2.25 - 2 log 3)
    bound = 0.5 * (0.3 * 15 / 2 - 2 * math.log(3))
    rows = [{"path_id": i, "terminal_log_ratio": bound + 0.5, "delta_max": 0.4}
            for i in range(n)]
    rows[3].update(change)
    return sections, outputs({"weight_order_violations": 0}, per_path=rows)


def test_arbitrage_check_accepts_paths_above_the_bound():
    assert wl.diverse_arbitrage_check(*arbitrage_case()) == (1, 0, [])


@pytest.mark.parametrize("change", [{"terminal_log_ratio": 0.02}, {"delta_max": 0.3}])
def test_arbitrage_check_rejects_a_bad_path(change):
    assert wl.diverse_arbitrage_check(*arbitrage_case(**change))[2]


def test_arbitrage_check_rejects_weight_order_violations_and_missing_rows():
    sections, out = arbitrage_case()
    out["metrics"]["weight_order_violations"] = 1
    assert wl.diverse_arbitrage_check(sections, out)[2]
    sections, out = arbitrage_case()
    out["tables"]["per_path"].pop()
    assert wl.diverse_arbitrage_check(sections, out)[2]


def test_arbitrage_check_rejects_a_horizon_short_of_the_threshold():
    sections, out = arbitrage_case()
    sections["grid"]["horizon"] = 14.0  # threshold 2 log 3 / 0.15 = 14.65
    assert wl.diverse_arbitrage_check(sections, out)[2]


# --- deflator-ladder -------------------------------------------------------

def ladder_case(call=None, stock=None, horizons=(5.0, 10.0, 20.0)):
    sections = wl.deflator_ladder_sections(0)
    ref = np.zeros((2, 3, 2))
    ref[:, :, 0] = [0.25, 0.24, 0.13]
    ref[:, :, 1] = [0.92, 0.67, 0.29]
    ref[1] += 0.001  # dt/2 monitoring
    se = np.full((2, 3, 2), 0.005)
    call = list(ref[0, :, 0]) if call is None else call
    stock = list(ref[0, :, 1]) if stock is None else stock
    out = outputs(
        table=[{"T": t, "h_hat": c, "stderr": 0.01} for t, c in zip(horizons, call)],
        stock=[{"T": t, "deflated_stock": s, "stderr": 0.01} for t, s in zip(horizons, stock)],
    )
    return sections, out, (ref, se)


def test_ladder_check_passes_rungs_on_the_reference():
    assert wl.deflator_ladder_check(*ladder_case()) == (3, 0, [])


def test_ladder_check_counts_rungs_that_miss_the_reference_as_failed():
    # the deflator estimator's fault: prices far under the Föllmer value
    assert wl.deflator_ladder_check(*ladder_case(call=[0.015, 0.0136, 0.0],
                                                 stock=[0.15, 0.04, 3e-5])) == (3, 3, [])
    assert wl.deflator_ladder_check(*ladder_case(stock=[0.92, 0.5, 0.29]))[:2] == (3, 1)


@pytest.mark.parametrize("case", [
    {"call": [0.25, 0.24, 0.5], "stock": [0.92, 0.67, 0.4]},  # call above stock
    {"stock": [1.2, 0.67, 0.29]},  # deflated stock above spot
    {"horizons": (5.0, 10.0, 40.0)},
])
def test_ladder_check_rejects(case):
    assert wl.deflator_ladder_check(*ladder_case(**case))[2]


def test_foellmer_reference_without_a_reachable_barrier_is_black_scholes():
    # a barrier at top weight 0.99 is out of reach in one year, so the
    # survival-weighted call is the plain lognormal call and the deflated
    # stock is the spot
    mean, se = reference.foellmer_ladder([1.0], 50, [1.0, 1.0, 1.0], 0.25, 0.01, 0.03,
                                         1.0, 0, 4000, 5)
    bs = reference.black_scholes_call(1.0, 1.0, 0.03, 0.25, 1.0)
    assert abs(mean[0, 0, 0] - bs) < 4 * se[0, 0, 0]
    assert abs(mean[0, 0, 1] - 1.0) < 4 * se[0, 0, 1]
    assert np.array_equal(mean[0], mean[1])


def test_foellmer_reference_coarse_monitoring_sees_fewer_hits():
    mean, _ = reference.foellmer_ladder([2.0], 20, [1.0, 1.0, 1.0], 0.5, 0.3, 0.03,
                                        1.0, 0, 2000, 5)
    assert np.all(mean[0] >= mean[1])


# --- trace accounting ------------------------------------------------------

def test_self_times_and_process_edges_add_up_to_the_wall_time():
    spans = [
        ["cli.main", 1.0, 9.0, -1],
        ["cli.parse", 1.1, 1.3, 0],
        ["cli.run", 1.3, 8.5, 0],
        ["study", 1.4, 8.4, 2],
        ["markets.run_batches", 1.5, 8.3, 3],
        ["markets.simulate_block", 1.6, 4.0, 4],
        ["paths.block", 1.6, 3.0, 5],
        ["study.consume", 4.0, 8.0, 4],
        ["portfolios.market_weights", 4.0, 5.0, 7],
        ["cli.persist", 8.5, 8.9, 0],
    ]
    counts = {"paths.drawn": 10, "markets.paths": 10, "markets.batches": 1,
              "markets.batch_bytes": 80, "cli.persist_bytes": 5}
    m = run.layer_metrics({"spans": spans, "counts": counts}, 0.5, 9.25)
    self_times = sum(m[k] for k in run.SELF_TIMES)
    assert self_times + m["process.startup_s"] + m["process.exit_s"] == pytest.approx(8.75)
    assert m["paths.block_s"] == pytest.approx(1.4)
    assert m["markets.simulate_block_s"] == pytest.approx(1.0)
    assert m["portfolios.s"] == pytest.approx(1.0)
    assert m["study.consume_s"] == pytest.approx(3.0)
    assert m["kernels.path_steps_per_s"] == 0.0


def test_covered_merges_overlapping_children():
    assert run.covered([(1.0, 3.0), (2.0, 4.0), (5.0, 6.0)], 0.0, 5.5) == pytest.approx(3.5)
