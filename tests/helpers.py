"""Small utilities shared across test modules."""

import collections
import itertools
from unittest import mock

import numpy as np

from spt_lab import markets, paths, portfolios


class ZeroFactors:
    """Factor source whose increments are identically zero.

    Lets the integrators run with the noise switched off so drift
    bookkeeping can be checked in isolation.  A walk cuts it in time chunks
    as it cuts a ``FactorPaths``.
    """

    def __init__(self, grid, m, n_paths=1):
        self.grid = grid
        self.times = grid.times
        self.m = m
        self.n_paths = n_paths

    first_step = 0

    def path_index(self, row):
        return row

    def block(self, lo, hi):
        return np.zeros((hi - lo, self.times.size - 1, self.m))

    def time_chunk(self, rows, start, stop):
        chunk = ZeroFactors(self.grid, self.m, len(rows))
        chunk.times, chunk.first_step = self.grid.times[start:stop + 1], start
        return chunk


class CoarsenedFactors:
    """The paths of ``fine`` on its grid coarsened by ``factor``, drawn whole:
    each coarse step's increment is the sum of the ``factor`` fine
    increments it spans.  The whole-path reference of a pair walk's coarse
    grid (``markets.walk`` with ``refine``), for ``simulate_block``."""

    def __init__(self, fine, factor):
        self.grid = fine.grid.coarsened(factor)
        self.times, self.m, self.n_paths = self.grid.times, fine.m, fine.n_paths
        self._fine, self._factor = fine, factor

    first_step = 0

    def path_index(self, row):
        return row

    def block(self, lo, hi):
        return self._fine.block(lo, hi).reshape(hi - lo, -1, self._factor, self.m).sum(axis=2)


def walk_record(batch_size, chunk_steps, refine):
    """A ``markets.recording_walks`` entry of this shape, whatever its
    seconds integrating and reducing."""
    return {"batch_size": batch_size, "chunk_steps": chunk_steps, "refine": refine,
            "integrate_s": mock.ANY, "reduce_s": mock.ANY}


def force_batch_size(monkeypatch, size):
    """Make every walk over paths (``markets.walk``, which ``run_batches``
    runs too, and a pair walk alike) take batches of ``size`` paths (all of
    them where there are fewer), in place of the byte budget of
    ``markets.batch_paths``; so does every other user of that rule."""
    monkeypatch.setattr(markets, "batch_paths", lambda n_paths, _: min(n_paths, size))


def count_draws(monkeypatch):
    """Wrap ``FactorPaths.block`` to record what each call draws.

    Returns two Counters of (path, step) pairs: those drawn by a plain source
    (whole paths, which only a direct ``block`` call draws) and those drawn
    by a time chunk (every walk's draws, ``run_batches``' included)."""
    whole, chunked = collections.Counter(), collections.Counter()
    block = paths.FactorPaths.block

    def counted(self, lo, hi):
        chunk = self._chunk
        if chunk is None:
            whole.update(itertools.product(range(lo, hi), range(self.grid.n_steps)))
        else:
            chunked.update(itertools.product(chunk.rows[lo:hi].tolist(),
                                             range(chunk.start, chunk.stop)))
        return block(self, lo, hi)

    monkeypatch.setattr(paths.FactorPaths, "block", counted)
    return whole, chunked


def whole_path_knock_out(model, factors, lo=0, hi=None):
    """The Foellmer knock-out on whole paths lo..hi-1: the Q market (every
    stock a GBM with rate of return r) integrated to the grid's end in one
    ``simulate_block`` call, and each path's first grid index at which the
    top weight reaches 1 - delta, monitored on every grid point and on every
    even one (n_steps + 1 where there is none).  Returns (log prices, first,
    first_2dt)."""
    q = markets.constant_market(b=model.r, sigma=model.vol.sigma, x0=model.x0, r=model.r)
    lx, _ = markets.simulate_block(q, factors, lo, factors.n_paths if hi is None else hi)
    x = np.exp(lx)
    hit = x.max(axis=2) >= (1.0 - model.params["delta"]) * x.sum(axis=2)
    n_steps = factors.grid.n_steps
    first = [np.where(h.any(axis=1), stride * h.argmax(axis=1), n_steps + 1)
             for stride, h in ((1, hit), (2, hit[:, ::2]))]
    return lx, first[0], first[1]


def whole_path_parity_witness(model, factors, p, lo=0, hi=None):
    """The parity witness's summands read off whole paths lo..hi-1: Z_mu(T)
    and Z_mu(T) exp(log(Z_pi / Z_mu)(T)), Z_pi the mirror of stock 0 with
    exponent p, each times whether the path is alive at T under the dt
    monitor."""
    lx, first, _ = whole_path_knock_out(model, factors, lo, hi)
    cap = portfolios.market_value(lx)
    zmu = cap[:, -1] / cap[:, 0]
    what = portfolios.mirror_weights(np.eye(model.n)[0], portfolios.market_weights(lx), p)
    rel = portfolios.relative_log_value(what, lx, factors.grid.times, model.vol.a)[:, -1]
    alive = first > factors.grid.n_steps
    return zmu * alive, zmu * np.exp(rel) * alive


def random_simplex(rng, n_points, n, floor=1e-3):
    """Interior points of the weight simplex, every coordinate >= floor/n."""
    w = rng.dirichlet(np.ones(n), size=n_points)
    return (1.0 - floor) * w + floor / n


def random_covariance(rng, n, lo=0.2, hi=2.0):
    """Covariance matrix with eigenvalues drawn inside [lo, hi].

    Returns the matrix together with its exact spectrum so tests can use
    the true ellipticity constants instead of re-estimating them.
    """
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.sort(rng.uniform(lo, hi, size=n))
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T), lam


def kernel_cases():
    """One small batch per drift kernel, chosen so every branch is taken.

    The step caps are tight enough to bind on some paths, the patched
    trigger fires on some paths and not on others, and every early-lead
    path leaves the power-drift phase before the horizon.
    """
    grid = paths.make_grid(1.0, 100)
    patched_base = markets.diverse_market(np.eye(3) * 0.5, g=0.01, delta=0.1,
                                          x0=[1.0, 4.0, 1.0], step_cap=0.05)
    models = {
        "diverse": (markets.diverse_market(np.eye(3) * 0.5, g=0.01, delta=0.3,
                                           x0=[1.0, 2.0, 1.5], step_cap=0.02), grid),
        "ou-pair": (markets.ou_two_stock(alpha=0.5, switch_time=0.5), grid),
        "patched": (markets.patched_weakly_diverse(patched_base, eta=0.3, horizon=1.0),
                    grid),
        "dominance": (markets.instantaneous_dominance_market(alpha=0.25),
                      paths.geometric_grid(1.0, 100, 1e-8)),
    }
    return {kind: (model, paths.generate_factors(g, model.m, 4, master_seed=9))
            for kind, (model, g) in models.items()}


def knock_out_ladder(horizons, steps_per_unit, x0, sigma, delta, rate, strike, index,
                     n_paths, seed, chunk=100):
    """Deflated call, stock and market values of the barrier market under the
    Foellmer measure, in plain numpy:

        h(T) = e^{-rT} E_Q[(X_T - K)^+ ; tau > T],  s(T) = e^{-rT} E_Q[X_T ; tau > T],
        m(T) = e^{-rT} E_Q[sum X_T / sum X_0 ; tau > T],

    with independent draws from ``default_rng(seed)``.  Under Q each log
    price is a Brownian motion with drift r - a_ii / 2 and dispersion
    ``sigma``; tau is the first monitored time at which the top weight
    reaches 1 - delta.  The paths are simulated at dt / 2 for
    dt = 1 / steps_per_unit and monitored at every other point (dt) and at
    every point (dt / 2).  Returns ``(mean, se)``, each of shape
    (2, len(horizons), 3): monitoring grid (0: dt, 1: dt / 2), rung, and
    quantity (0: call, 1: stock, 2: market).
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    lx0 = np.log(np.asarray(x0, dtype=float))
    total0 = np.exp(lx0).sum()
    dt = 0.5 / steps_per_unit
    rungs = [int(round(2 * steps_per_unit * t)) for t in horizons]
    steps = max(rungs)
    drift = (rate - 0.5 * np.sum(sigma * sigma, axis=1)) * dt
    rng = np.random.default_rng(seed)
    sums = np.zeros((2, 2, len(rungs), 3))  # (sum, sum of squares), grid, rung, quantity
    for lo in range(0, n_paths, chunk):
        b = min(chunk, n_paths - lo)
        z = rng.standard_normal((b, steps, sigma.shape[1]))
        lx = lx0 + np.cumsum(z @ sigma.T * np.sqrt(dt) + drift, axis=1)
        x = np.exp(lx)
        hit = x.max(axis=2) >= (1.0 - delta) * x.sum(axis=2)  # hit[:, i] at step i + 1
        for g, stride in enumerate((2, 1)):
            h = hit[:, stride - 1::stride]
            first = np.where(h.any(axis=1), stride * (h.argmax(axis=1) + 1), steps + 1)
            for j, (k, t) in enumerate(zip(rungs, horizons)):
                xt = x[:, k - 1, index]
                mt = x[:, k - 1].sum(axis=1) / total0
                kept = np.exp(-rate * t) * (first > k)
                for q, v in enumerate((np.maximum(xt - strike, 0.0) * kept, xt * kept,
                                       mt * kept)):
                    sums[:, g, j, q] += (v.sum(), (v * v).sum())
    mean = sums[0] / n_paths
    var = (sums[1] / n_paths - mean * mean) * n_paths / (n_paths - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / n_paths)
