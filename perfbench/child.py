"""Run one ``spt-lab run`` in this process and record when its layers ran.

    python child.py MARKS TRACE run CONFIG --out DIR

does what ``python -m spt_lab.cli run CONFIG --out DIR`` does and exits
with the CLI's code.  It also writes MARKS, a JSON file with the monotonic
clock reading of the first factor draw.  With TRACE = 1 it wraps the public
entry points of each layer and adds every span (name, start, end, parent
index) and the work counters to MARKS.  Spans are kept in memory and
written once, after the CLI returns.

The timestamps come from ``time.monotonic``, which on Linux reads the
system-wide ``CLOCK_MONOTONIC`` and so compares with the parent's clock.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time


class Tracer:
    """Spans and counters recorded around calls into the program."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's outermost span hangs under the main thread's
            # innermost one, the batch loop that handed it the work
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else -1)
            span = [name, 0.0, 0.0, parent]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if count is not None:
                count(args, out)
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans."""
    from spt_lab import _kernels, arbitrage, cli, hedging, markets, paths, portfolios

    wrap = tracer.wrap

    def drawn(args, out):
        tracer.add("paths.drawn", out.shape[0])

    def simulated(args, out):
        tracer.add("markets.batches", 1)
        tracer.add("markets.paths", out[0].shape[0])
        tracer.peak("markets.batch_bytes", out[0].size * out[0].itemsize)

    def stepped(args, out):
        dv = args[1]
        tracer.add("kernels.path_steps", dv.shape[0] * dv.shape[1])

    def persisted(args, out):
        tracer.add("cli.persist_bytes", sum(os.path.getsize(p) for p in out))

    paths.FactorPaths.block = wrap("paths.block", paths.FactorPaths.block, drawn)
    markets.simulate_block = wrap("markets.simulate_block", markets.simulate_block, simulated)
    markets.growth_rates_along = wrap("markets.growth_rates_along", markets.growth_rates_along)
    hedging.market_price_of_risk = wrap(
        "hedging.market_price_of_risk", hedging.market_price_of_risk)

    active = _kernels.active_kernels
    traced_kernels: dict = {}

    def active_kernels():
        if not traced_kernels:
            traced_kernels.update(
                {kind: wrap("kernels.drift", fn, stepped) for kind, fn in active().items()})
        return traced_kernels

    _kernels.active_kernels = active_kernels

    batches = markets.run_batches

    def run_batches(model, factors, consume, *args, **kwargs):
        return batches(model, factors, wrap("study.consume", consume), *args, **kwargs)

    markets.run_batches = wrap("markets.run_batches", run_batches)

    for name in portfolios.__all__:
        fn = getattr(portfolios, name)
        if inspect.isfunction(fn):
            setattr(portfolios, name, wrap(f"portfolios.{name}", fn))
    for module in (arbitrage, hedging):
        for name in module.__all__:
            if name.endswith("_study") or name == "hedge_price":
                setattr(module, name, wrap("study", getattr(module, name)))

    cli.parse_config = wrap("cli.parse", cli.parse_config)
    cli.run = wrap("cli.run", cli.run)
    cli.persist = wrap("cli.persist", cli.persist, persisted)


def main(argv: list) -> int:
    marks_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    from spt_lab import cli, paths

    marks: dict = {}
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    block = paths.FactorPaths.block

    def first_block(self, lo, hi):
        marks["first_draw"] = time.monotonic()
        paths.FactorPaths.block = block
        return block(self, lo, hi)

    paths.FactorPaths.block = first_block
    entry = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    code = entry(cli_args)
    if tracer is not None:
        marks["spans"] = tracer.spans
        marks["counts"] = tracer.counts
    with open(marks_path, "w") as f:
        json.dump(marks, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
