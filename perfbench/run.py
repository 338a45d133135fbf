"""End-to-end benchmark of spt-lab experiments, with per-layer times from a
traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's config is generated from
the seed, then ``spt-lab run`` is started on it again and again, one process
at a time, for about S seconds; every run's outputs are checked.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, medians over the runs.  With ``--trace 1`` untraced and
traced runs alternate, and the metrics are per-layer self times and work
counts from the traced runs, plus the tracing overhead.  Run outputs, the
generated config and the trace files go to ``.perfbench_runs/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, ini_text, path_steps, read_outputs, run_problems

CHILD = Path(__file__).resolve().parent / "child.py"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "path_steps_per_s": "path-steps/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> the spans whose self times it sums
SELF_TIMES = {
    "cli.s": ("cli.main", "cli.run"),
    "cli.parse_s": ("cli.parse",),
    "cli.persist_s": ("cli.persist",),
    "study.s": ("study", "markets.run_batches"),
    "study.consume_s": ("study.consume",),
    "markets.simulate_block_s": ("markets.simulate_block",),
    "paths.block_s": ("paths.block",),
    "kernels.drift_s": ("kernels.drift",),
    "markets.growth_rates_along_s": ("markets.growth_rates_along",),
    "hedging.market_price_of_risk_s": ("hedging.market_price_of_risk",),
    "portfolios.s": (),  # every span named portfolios.<function>
}
LAYER_OF = {span: metric for metric, spans in SELF_TIMES.items() for span in spans}

LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIMES},
    "process.startup_s": "s",
    "process.exit_s": "s",
    "paths.draws_per_path": "draws/path",
    "kernels.path_steps_per_s": "path-steps/s",
    "markets.batches": "count",
    "markets.batch_bytes": "bytes",
    "cli.persist_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(marks: dict, t0: float, t1: float) -> dict:
    """Self time per layer and work counts of one traced run.

    process.startup_s (interpreter start and imports) + the self times +
    process.exit_s add up to the traced wall time t1 - t0.
    """
    spans = marks["spans"]
    children = defaultdict(list)
    for name, a, b, parent in spans:
        if parent >= 0:
            children[parent].append((a, b))
    out = {metric: 0.0 for metric in SELF_TIMES}
    for i, (name, a, b, _) in enumerate(spans):
        metric = "portfolios.s" if name.startswith("portfolios.") else LAYER_OF[name]
        out[metric] += (b - a) - covered(children[i], a, b)
    main = next(s for s in spans if s[0] == "cli.main")
    counts = marks["counts"]
    drift_s = out["kernels.drift_s"]
    out.update({
        "process.startup_s": main[1] - t0,
        "process.exit_s": t1 - main[2],
        "paths.draws_per_path": counts["paths.drawn"] / counts["markets.paths"],
        "kernels.path_steps_per_s":
            counts.get("kernels.path_steps", 0) / drift_s if drift_s > 0 else 0.0,
        "markets.batches": counts["markets.batches"],
        "markets.batch_bytes": counts["markets.batch_bytes"],
        "cli.persist_bytes": counts["cli.persist_bytes"],
        "trace.wall_s": t1 - t0,
    })
    return out


def run_once(run_dir: Path, config: Path, src: Path, traced: bool, index: int) -> dict:
    """Start one ``spt-lab run`` and wait for it; returns its timings."""
    out_dir = run_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    marks_path = run_dir / (f"trace-{index}.json" if traced else "marks.json")
    cmd = [sys.executable, str(CHILD), str(marks_path), "1" if traced else "0",
           "run", str(config), "--out", str(out_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    with open(run_dir / "stdout.txt", "wb") as so, open(run_dir / "stderr.txt", "wb") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    summary_path = out_dir / "summary.json"
    return {
        "traced": traced,
        "returncode": proc.returncode,
        "t0": t0,
        "t1": t1,
        "wall_s": t1 - t0,
        "setup_s": marks["first_draw"] - t0 if "first_draw" in marks else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "marks": marks,
        "summary": json.loads(summary_path.read_text()) if summary_path.exists() else None,
        "csvs": {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))},
        "out_dir": out_dir,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "spt_lab" / "cli.py").is_file():
        print(f"no spt_lab sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = root / ".perfbench_runs" / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    sections = workload.sections(args.seed)
    config = run_dir / "config.ini"
    config.write_text(ini_text(sections))
    expected = workload.expected(sections)
    steps = path_steps(sections)

    runs, problems = [], []
    attempted = failed = 0
    first_csvs = None
    start = time.monotonic()
    while True:
        began = time.monotonic()
        r = run_once(run_dir, config, src, args.trace == 1 and len(runs) % 2 == 1, len(runs))
        runs.append(r)
        found = run_problems(r["returncode"], r["summary"], r["csvs"], first_csvs)
        if first_csvs is None:
            first_csvs = r["csvs"]
        if r["returncode"] == 0:
            n_ops, n_failed, wrong = workload.check(sections, read_outputs(r["out_dir"]), expected)
            attempted += n_ops
            failed += n_failed
            found += wrong
        else:
            attempted += 1
        if r["setup_s"] is None:
            found.append("the program drew no factors")
        problems += [f"run {len(runs)}: {p}" for p in found]
        print(f"run {len(runs)}{' traced' if r['traced'] else ''}: wall {r['wall_s']:.3f} s, "
              f"peak rss {r['peak_rss_mb']:.1f} MB, {len(found)} problems", file=sys.stderr)
        now = time.monotonic()
        if problems or (len(runs) >= 1 + args.trace and now - start + (now - began) > args.seconds):
            break

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    plain = [r for r in runs if not r["traced"]]
    if args.trace:
        traced = [r for r in runs if r["traced"]]
        layers = [] if problems else [layer_metrics(r["marks"], r["t0"], r["t1"]) for r in traced]
        values = {}
        if layers:
            values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
            values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                          - statistics.median(r["wall_s"] for r in plain))
        units = LAYER_UNITS
        (run_dir / "layers.json").write_text(json.dumps(
            {"runs": layers, "median": values}, indent=2) + "\n")
    else:
        values = {} if problems else {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "path_steps_per_s": statistics.median(
                steps / (r["wall_s"] - r["setup_s"]) for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
