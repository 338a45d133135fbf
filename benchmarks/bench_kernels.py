"""Timing harness for the market kinds' integration.

Integrates each of the five market kinds through the public entry point
``markets.simulate_block``, in this process, and reports path-steps per
second.

Usage:
    python3 benchmarks/bench_kernels.py [--paths N] [--steps K] [--repeat R]
"""

import argparse
import sys
import time

import numpy as np

from spt_lab import markets, paths


def _models():
    return {
        "constant": markets.constant_market(
            b=(0.05, 0.02, 0.08), sigma=0.3 * np.eye(3), x0=(2.0, 1.0, 1.5)),
        "diverse": markets.diverse_market(
            sigma=np.eye(3), g=np.zeros(3), delta=0.3, x0=(1.0, 1.0, 1.0)),
        "ou_pair": markets.ou_two_stock(alpha=0.5),
        "patched": markets.patched_weakly_diverse(
            markets.diverse_market(sigma=np.eye(2), g=np.zeros(2), delta=0.25,
                                   x0=(1.0, 1.0)),
            eta=0.3, horizon=5.0),
        "dominance": markets.instantaneous_dominance_market(alpha=0.25),
    }


def run_suite(n_paths, k_steps, repeat):
    rows = []
    for name, model in _models().items():
        grid = (paths.geometric_grid(1.0, k_steps, 1e-8)
                if name == "dominance" else paths.make_grid(5.0, k_steps))
        factors = paths.generate_factors(grid, model.m, n_paths, master_seed=17)
        markets.simulate_block(model, factors, 0, min(8, n_paths))  # warm up
        best = np.inf
        for _ in range(repeat):
            t0 = time.perf_counter()
            markets.simulate_block(model, factors, 0, n_paths)
            best = min(best, time.perf_counter() - t0)
        rows.append({
            "kernel": name,
            "seconds": best,
            "rate": n_paths * k_steps / best,
        })
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=256)
    ap.add_argument("--steps", type=int, default=5_000)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    rows = run_suite(args.paths, args.steps, args.repeat)
    print(f"paths {args.paths}, steps {args.steps}, best of {args.repeat}")
    for row in rows:
        print(f"{row['kernel']:<10} {row['seconds']:>10.4f} s "
              f"{row['rate']:>12.3g} path-steps/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
