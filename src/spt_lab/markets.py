"""Market models: n stocks driven by m Brownian factors.

All models evolve log prices by an Euler step

    log X_i(t_{k+1}) = log X_i(t_k) + growth_i(t_k, state) dt_k + (sigma dW_k)_i

with constant dispersion ``sigma``.  Growth rates are log-drifts; arithmetic
rates of return are ``b_i = growth_i + a_ii / 2`` with ``a = sigma sigma^T``.
State-dependent growth rules read the left-endpoint state only, so a path is
a pure function of (model, factor increments).

A market kind is one entry of ``KINDS``: its constructor, growth rule and
kernel.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Annotated, Callable, NamedTuple

import numpy as np

from . import _kernels
from .errors import IntegrationFailureError, InvalidArgumentError, InvalidModelError
from .paths import DrawnChunk, FactorPaths

__all__ = [
    "Dispersion",
    "MarketModel",
    "constant_market",
    "diverse_market",
    "ou_two_stock",
    "patched_weakly_diverse",
    "instantaneous_dominance_market",
    "Kind",
    "KINDS",
    "simulate_block",
    "run_batches",
    "walk",
    "recording_walks",
    "growth_rates_along",
]

# Per-step displacement cap on singular drifts.  The continuous dynamics never
# reach the pole, so the cap only binds on discretization overshoots; capped
# steps are counted and reported, never silent.
DRIFT_STEP_CAP = 0.25


@dataclass(frozen=True)
class Dispersion:
    """Constant dispersion matrix with its ellipticity certificate.

    ``eps`` and ``big_m`` are the extreme eigenvalues of ``a = sigma sigma^T``:
    every unit vector xi satisfies eps <= xi' a xi <= big_m.  A rank-deficient
    sigma (eps ~ 0) is rejected.
    """

    sigma: np.ndarray
    a: np.ndarray = field(init=False)
    eps: float = field(init=False)
    big_m: float = field(init=False)

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if s.ndim != 2 or not np.isfinite(s).all():
            raise InvalidModelError("sigma must be a finite 2-d matrix")
        n, m = s.shape
        if m < n:
            raise InvalidModelError("need at least as many factors as stocks")
        a = s @ s.T
        w = np.linalg.eigvalsh(a)
        if w[0] <= 1e-12:
            raise InvalidModelError(
                f"sigma sigma^T is numerically singular (min eigenvalue {w[0]:.3e})"
            )
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "eps", float(w[0]))
        object.__setattr__(self, "big_m", float(w[-1]))

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @property
    def m(self) -> int:
        return self.sigma.shape[1]


@dataclass(frozen=True)
class MarketModel:
    kind: str
    vol: Dispersion
    x0: np.ndarray
    r: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.vol.n,):
            raise InvalidModelError(f"x0 must have shape ({self.vol.n},)")
        if not (np.isfinite(x0).all() and (x0 > 0).all()):
            raise InvalidModelError("initial prices must be positive and finite")
        if not np.isfinite(self.r):
            raise InvalidModelError("r must be finite")
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.vol.n

    @property
    def m(self) -> int:
        return self.vol.m


def _as_vector(v, n, name):
    out = np.asarray(v, dtype=float)
    if out.shape in ((), (1,)):
        out = np.full(n, out.item())
    if out.shape != (n,):
        raise InvalidModelError(f"{name} must be a scalar or length-{n} vector")
    if not np.isfinite(out).all():
        raise InvalidModelError(f"{name} must be finite")
    return out


def constant_market(b, sigma, x0, r: float = 0.0) -> MarketModel:
    """Constant-coefficient market (geometric Brownian motions).

    Parameters
    ----------
    b : array_like
        Arithmetic rates of return, one per stock.
    sigma : array_like
        Dispersion matrix, shape (n, m) with m >= n.
    x0 : array_like
        Positive initial prices.
    r : float
        Money-market rate.
    """
    vol = Dispersion(sigma)
    b = _as_vector(b, vol.n, "b")
    return MarketModel(kind="constant", vol=vol, x0=x0, r=r, params={"b": b})


def diverse_market(
    sigma,
    delta: float,
    x0,
    g=0.0,
    big_m: float | None = None,
    r: float = 0.0,
    *,
    step_cap: float = DRIFT_STEP_CAP,
) -> MarketModel:
    """Market whose current leader is log-repelled from the weight barrier.

    Non-leading stocks carry constant growth rates ``g``; the stock holding
    the largest weight (lowest index on ties) gets growth
    ``-(big_m/delta) / log((1-delta)/mu_max)``, which diverges as the top
    weight approaches ``1 - delta`` and keeps the market diverse.

    Parameters
    ----------
    sigma : array_like
        Dispersion matrix; its certificate upper bound is the default drift
        scale ``big_m``.
    delta : float
        Barrier parameter in (0, 1): the top weight is repelled from 1-delta.
    x0 : array_like
        Initial prices; the initial top weight must sit below the barrier.
    g : array_like
        Growth rates for non-leading stocks, one or one per stock.
    big_m : float, optional
        Drift scale; finite, and at least the certificate upper bound.
    """
    vol = Dispersion(sigma)
    g = _as_vector(g, vol.n, "g")
    if not 0 < delta < 1:
        raise InvalidModelError("delta must lie in (0, 1)")
    if big_m is None:
        big_m = vol.big_m
    if not vol.big_m * (1 - 1e-12) <= big_m < np.inf:
        raise InvalidModelError(
            f"big_m {big_m} must be finite and at least the certificate upper bound {vol.big_m}"
        )
    x0v = _as_vector(x0, vol.n, "x0")
    if _kernels._max_last(x0v) / _kernels._sum_last(x0v) >= 1 - delta:
        raise InvalidModelError("initial top weight already at or past the barrier")
    if step_cap <= 0:
        raise InvalidModelError("step_cap must be positive")
    return MarketModel(
        kind="diverse",
        vol=vol,
        x0=x0,
        r=r,
        params={
            "g": g,
            "delta": float(delta),
            "big_m": float(big_m),
            "step_cap": float(step_cap),
        },
    )


def ou_two_stock(
    alpha: float, x0=(1.0, 1.0), switch_time: float = 1.0, r: float = 0.0
) -> MarketModel:
    """Two stocks with unit quadratic variation of the log spread.

    Stock 1 has zero rate of return.  After ``switch_time`` stock 2's rate
    of return is ``-alpha * Z(t)`` where Z is the log price spread, making Z
    an Ornstein-Uhlenbeck process; before the switch Z is a standard
    Brownian motion.  With alpha = 1/2 the spread is stationary N(0, 1) from
    t = switch_time on.
    """
    if not 0 < alpha < np.inf:
        raise InvalidModelError(f"alpha must be finite and positive, not {alpha}")
    if not 0 <= switch_time < np.inf:
        raise InvalidModelError(f"switch_time must be finite and nonnegative, not {switch_time}")
    sigma = np.diag([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])
    return MarketModel(
        kind="ou-pair",
        vol=Dispersion(sigma),
        x0=x0,
        r=r,
        params={"alpha": float(alpha), "switch_time": float(switch_time)},
    )


def patched_weakly_diverse(base: Annotated[MarketModel, "diverse"], eta: float,
                           horizon: float) -> MarketModel:
    """Drop the repelling drift until the top weight first reaches 1 - eta.

    The repelling drift of ``base``, a diverse market, is switched on at the
    first time S the top weight hits 1 - eta, and only if S lands in the
    first half of the horizon; otherwise every stock keeps zero rate of
    return for the whole run.  The result is weakly diverse for half the
    base barrier parameter even though single time points can concentrate.
    ``horizon`` is the one model parameter a config sets in ``[grid]``.
    """
    if base.kind != "diverse":
        raise InvalidModelError("patched construction needs a diverse base model")
    delta = base.params["delta"]
    if not delta < eta < 0.5:
        raise InvalidModelError("need base delta < eta < 1/2")
    if not horizon > 0:
        raise InvalidModelError("horizon must be positive")
    params = dict(base.params)
    params.update({"eta": float(eta), "horizon": float(horizon)})
    return MarketModel(kind="patched", vol=base.vol, x0=base.x0, r=base.r, params=params)


def instantaneous_dominance_market(
    alpha: float,
    delta: float = 0.2,
    delta_prime: float = 0.35,
    cdrift: float = 1.0,
    r: float = 0.0,
    *,
    step_cap: float = DRIFT_STEP_CAP,
) -> MarketModel:
    """Two equal-priced stocks where stock 2 takes the lead immediately.

    Stock 2's cumulative log drift is t**alpha (alpha in (0, 1/2)) until the
    log gap Y first leaves (-eta', eta'); afterwards a two-pole drift
    confines Y inside (-eta, eta), with eta = log((1-delta)/delta).  The
    power drift beats the Brownian fluctuation at small times, so stock 2
    dominates right away, yet the market stays diverse.
    """
    if not 0 < alpha < 0.5:
        raise InvalidModelError("alpha must lie in (0, 1/2)")
    if not 0 < delta < delta_prime < 0.5:
        raise InvalidModelError("need 0 < delta < delta_prime < 1/2")
    eta = float(np.log((1 - delta) / delta))
    eta_prime = float(np.log((1 - delta_prime) / delta_prime))
    if not (0 < cdrift < np.inf and step_cap > 0):
        raise InvalidModelError(f"cdrift {cdrift} and step_cap {step_cap} must be "
                                "finite and positive")
    return MarketModel(
        kind="dominance",
        vol=Dispersion(np.eye(2)),
        x0=(1.0, 1.0),
        r=r,
        params={
            "alpha": float(alpha),
            "delta": float(delta),
            "delta_prime": float(delta_prime),
            "eta": eta,
            "eta_prime": eta_prime,
            "cdrift": float(cdrift),
            "step_cap": float(step_cap),
        },
    )


# ---------------------------------------------------------------------------
# growth rules, the kernels of their own, and their replay on stored paths
# ---------------------------------------------------------------------------

# Floor for the log-distance to the barrier inside the repelling drift.
_Q_FLOOR = 1e-8


def constant_growth(model):
    """Growth rates ``b - diag(a)/2`` of the constant-coefficient market,
    one per stock, the same in every state."""
    return model.params["b"] - 0.5 * np.diag(model.vol.a)


def _constant_rule(model):
    gamma = constant_growth(model)
    return lambda t, lx, records: np.broadcast_to(gamma, np.shape(lx)).copy()


def leader_repulsion(model):
    """Growth rule of the repelled-leader market.

    Non-leading stocks grow at ``g``; the leader (lowest index on ties)
    grows at ``-(big_m/delta) / q`` with ``q = log((1-delta)/mu_max)``
    floored at ``_Q_FLOOR``.
    """
    p = model.params
    log_barrier = np.log(1.0 - p["delta"])
    pull = -(p["big_m"] / p["delta"])
    g = p["g"]

    def growth(t, lx, records):
        at_lead, s = _kernels._leader(lx)
        q = np.maximum(log_barrier + np.log(s), _Q_FLOOR)
        gam = np.empty(lx.shape)
        gam[...] = g
        gam[at_lead] = pull / q
        return gam

    return growth


def patched_repulsion(model):
    """Growth rule of the patched market.

    The repelled-leader rule holds from the record ``trigger_time`` on when
    the trigger fired in the first half of the horizon; otherwise every
    stock has zero rate of return.
    """
    repel = leader_repulsion(model)
    half_t = 0.5 * model.params["horizon"]
    quiet = -0.5 * np.diag(model.vol.a)

    def growth(t, lx, records):
        trigger_time = records["trigger_time"]
        gam = repel(t, lx, records)
        gam[~((trigger_time <= half_t) & (t >= trigger_time))] = quiet
        return gam

    return growth


def _patched_kernel(rule, logx0, dv, dt, times, model, carry, start):
    """Euler steps recording each path's ``trigger_time``, the first grid
    time at which its top weight is at least 1 - eta."""
    growth = rule(model)
    p = model.params
    trigger = 1.0 / (1.0 - p["eta"])  # mu_max >= 1-eta  <=>  1/mu_max <= this
    cur, caps = _kernels._start(logx0, dv, carry)
    trigger_time = np.full(dv.shape[0], np.inf) if carry is None else carry["trigger_time"].copy()
    records = {"capped_steps": caps, "trigger_time": trigger_time}

    def step(k, cur):
        hit = (trigger_time == np.inf) & (_kernels._leader(cur)[1] <= trigger)
        trigger_time[hit] = times[k]
        return growth(times[k], cur, records) * dt[k], p["step_cap"]

    _kernels._stepping(cur, dv, step, caps)
    return records


def spread_reversion(model):
    """Growth rule of the two-stock spread market.

    Stock 2's rate of return is ``-alpha * (lx_2 - lx_1)`` from the switch
    time on and zero before; stock 1's is zero throughout.
    """
    p = model.params
    alpha, switch_time = p["alpha"], p["switch_time"]
    a_half = 0.5 * float(model.vol.a[0, 0])

    def growth(t, lx, records):
        b2 = np.where(t >= switch_time, -alpha * (lx[..., 1] - lx[..., 0]), 0.0)
        gam = np.empty(lx.shape)
        gam[..., 0] = -a_half
        gam[..., 1] = b2 - a_half
        return gam

    return growth


def _upstart_kernel(rule, logx0, dv, dt, times, model, carry, start):
    """Two-stock upstart market, which has no growth rule.

    Stock 2 carries the power drift t**alpha, integrated exactly over each
    step and never capped, until the log gap first leaves (-eta', eta');
    from then on a capped two-pole drift confines the gap to (-eta, eta).
    The record ``exit_index`` is the exit's grid index, -1 before it.
    """
    p = model.params
    alpha, eta, eta_prime, cdrift = p["alpha"], p["eta"], p["eta_prime"], p["cdrift"]
    margin = 1e-9 * eta
    B = dv.shape[0]
    cur, caps = _kernels._start(logx0, dv, carry)
    exit_index = np.full(B, -1, np.int64) if carry is None else carry["exit_index"].copy()
    confined = exit_index >= 0
    # the power phase is never capped
    row_cap = np.where(confined, p["step_cap"], np.inf)[:, None]

    def step(k, cur):
        y = cur[:, 1] - cur[:, 0]
        newly = ~confined & (np.abs(y) >= eta_prime)
        exit_index[newly] = start + k
        confined[newly] = True
        row_cap[newly] = p["step_cap"]
        disp = np.zeros((B, 2))
        disp[:, 1] = times[k + 1] ** alpha - times[k] ** alpha
        if not confined.any():
            return disp, None
        yc = np.clip(y[confined], -eta + margin, eta - margin)
        disp[confined, 1] = cdrift * (1.0 / (eta + yc) - 1.0 / (eta - yc)) * dt[k]
        return disp, row_cap

    _kernels._stepping(cur, dv, step, caps)
    return {"exit_index": exit_index, "capped_steps": caps}


class Kind(NamedTuple):
    """A market kind: its constructor, whose parameters that are not
    keyword-only are a config's ``[model]`` keys (see ``cli``); its growth
    rule, or None; and its kernel (the rule and kernel contracts are in
    ``_kernels``)."""

    make: Callable
    growth: Callable | None
    kernel: Callable


KINDS = {
    "constant": Kind(constant_market, _constant_rule, _kernels._state_free),
    "diverse": Kind(diverse_market, leader_repulsion, _kernels._euler),
    "ou-pair": Kind(ou_two_stock, spread_reversion, _kernels._euler),
    "patched": Kind(patched_weakly_diverse, patched_repulsion, _patched_kernel),
    "dominance": Kind(instantaneous_dominance_market, None, _upstart_kernel),
}


def _growth_rule(model: MarketModel):
    """The growth rule of ``model``'s kind; raises where the kind has none."""
    entry = KINDS.get(model.kind)
    if entry is None or entry.growth is None:
        raise InvalidArgumentError(
            f"growth rates along a path are not defined for kind {model.kind!r}")
    return entry.growth


def growth_rates_along(model: MarketModel, log_prices: np.ndarray, times: np.ndarray,
                       aux: dict | None = None) -> np.ndarray:
    """Growth rates gamma_i(t_k) the integrator applied at each grid point.

    Drift caps are not reflected here: this is the model's defining rule,
    which checkers compare against theory.  ``log_prices`` is a batch
    (B, len(times), n) and ``aux`` the kernel's records of its paths, which
    some rules read; the returned array has its shape and is always freshly
    allocated.
    """
    growth = _growth_rule(model)(model)
    records = {key: np.atleast_1d(v)[:, None] for key, v in (aux or {}).items()}
    try:
        return growth(np.asarray(times, dtype=float)[None, :],
                      np.asarray(log_prices, dtype=float), records)
    except KeyError as exc:
        raise InvalidArgumentError(f"{model.kind} growth rates need the record {exc}") from exc


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

# Bytes of factor draws held at once while a batch's noise is mixed in.
_DRAW_BYTES = 8 << 20


def _vol_increments(model: MarketModel, dw: np.ndarray, out=None) -> np.ndarray:
    # one matmul per path (numpy loops over the leading axis), so the
    # arithmetic does not depend on how paths are batched
    if out is None:
        out = np.empty(dw.shape[:2] + (model.n,))
    return np.matmul(dw, model.vol.sigma.T, out=out)


def simulate_block(model: MarketModel, factors: FactorPaths, lo: int, hi: int, carry=None,
                   out=None):
    """Integrate paths lo..hi-1 over ``factors.times``.  Returns (log_prices
    (B, K+1, n), aux dict).

    ``aux`` holds the kind's kernel's per-path records of the paths from
    grid step 0 on, ``capped_steps`` (B,) int64 among them (``_kernels``).

    The paths start from log x0 on grid step 0, or go on from the state a
    ``carry`` holds for them, one row per path: ``log_prices`` (B, n) at
    ``factors.times[0]`` and the ``aux`` of the same paths over the steps
    before (a time chunk, ``FactorPaths.time_chunk``).  Row 0 of the log
    prices is that starting state for every kind: log x0, or the carry's
    ``log_prices``.  A chunk integrated from the carry of the chunk before
    gives the log prices and records of the whole path bit for bit.  Given
    ``out``, a buffer of at least (B, K+1, n), the log prices are written
    into its leading corner and returned as a view of it.

    The log-price buffer is the only batch-sized array.  The factors are
    drawn in slices of paths whose draws take at most ``_DRAW_BYTES`` (one
    path at least), and each slice is mixed into its rows as volatility
    increments dv.  The drift is then integrated over dv in place.  The
    result is pure in (model, factors, path index): identical inputs give
    identical float results regardless of batch boundaries or time chunks.
    A non-finite log price raises ``IntegrationFailureError`` naming its
    path index and grid step.
    """
    if factors.m != model.m:
        raise InvalidArgumentError(
            f"factors carry {factors.m} factors but the model needs {model.m}"
        )
    kernel = _kernels.active_kernels().get(model.kind)
    if kernel is None:
        raise InvalidModelError(f"unknown model kind {model.kind!r}")
    times = factors.times
    n_steps = times.size - 1
    logx0 = np.log(model.x0)
    shape = (hi - lo, n_steps + 1, model.n)
    logx = np.empty(shape) if out is None else out[:shape[0], :shape[1]]
    dv = logx[:, 1:]
    per_slice = max(1, _DRAW_BYTES // (n_steps * model.m * 8))
    for s in range(lo, hi, per_slice):
        e = min(s + per_slice, hi)
        _vol_increments(model, factors.block(s, e), out=dv[s - lo:e - lo])
    # row 0 last, so the draws, not this strided write, first touch the pages
    logx[:, 0] = logx0 if carry is None else carry["log_prices"]
    aux = kernel(logx0, dv, np.diff(times), times, model, carry, factors.first_step)

    if not np.isfinite(logx).all():
        b, k, _ = np.argwhere(~np.isfinite(logx))[0]
        path, step = factors.path_index(lo + b), factors.first_step + int(k)
        raise IntegrationFailureError(
            f"non-finite log price at path {path}, step {step}",
            path_index=path,
            step=step,
        )
    return logx, aux


# Steps per time chunk of a walk: a walked batch holds a few (B, 257, n)
# arrays, however long the grid.  No result depends on it.
_CHUNK_STEPS = 256

# glibc gives freed heap memory back to the system once more than twice its
# mmap threshold is free, and raises that threshold to the size of any freed
# mmapped block of up to 32 MB.  A chunk's temporaries take a few times its
# log-price buffer, so one untouched block of this many buffers, freed as a
# chunked batch starts, keeps them in the heap from chunk to chunk instead
# of faulting them in afresh each time.
_HEAP_HINT_BUFFERS = 8

# the list ``recording_walks`` collects into, None outside one
_walks = None


@contextlib.contextmanager
def recording_walks():
    """Collect the shape of every walk run inside the ``with`` block: a list,
    in order, of ``{"batch_size": paths per batch, "chunk_steps": steps per
    time chunk, "refine": refinement factor, 1 for a single grid}``."""
    global _walks
    outer, _walks = _walks, []
    try:
        yield _walks
    finally:
        _walks = outer


def walk(model: MarketModel, factors: FactorPaths, batch, batch_size: int,
         stop: int | None = None, refine: int = 1, chunk_steps: int | None = None):
    """Integrate all paths in batches, each in time chunks, and join what
    each batch returns.

    ``batch(lo, hi)`` starts paths lo..hi-1 and returns ``(consume,
    columns)``.  ``consume(rows, start, log_prices, aux)`` is handed each
    time chunk of ``chunk_steps`` steps (``_CHUNK_STEPS`` by default) up to
    grid step ``stop`` (the grid's end by default), in order: the log
    prices (len(rows), k+1, n) at grid points start..start+k and the
    kernel records so far of the batch's paths ``rows`` (positions
    0..hi-lo-1) still walked.  It returns the positions in ``rows`` of the
    paths it still needs, or None for all: a path left out is retired, and
    no later chunk draws or integrates it.  After the batch's last chunk
    ``columns()`` returns a dict of arrays whose leading axis runs over the
    batch's paths, or has length 1 for a per-batch partial.  Each is copied
    as soon as the batch ends, so no result pins a batch's buffers, and the
    copies are joined along axis 0 in batch order: per-path values come
    back as ``(n_paths, ...)``, per-batch partials as ``(n_batches, ...)``.
    The walk adds the kernel's record as the per-path column
    ``capped_steps`` (drift entries capped, 0 where the kind has no cap); a
    batch that returns that key is rejected.

    With ``refine`` f above 1 (dividing ``stop``), ``batch`` is a pair, the
    grid's and the grid coarsened by f's, and so is the result.  Each chunk,
    cut to a multiple of f steps, is drawn once, and each grid integrated
    from it (``paths.DrawnChunk``) from its own carry and handed to its own
    ``consume``, which returns None: both see the same Brownian paths.

    Every chunk is cut by ``FactorPaths.time_chunk`` and goes on from the
    state the chunk before carried (``simulate_block``), in one log-price
    buffer per batch and grid that every chunk reuses, so the log prices
    are the whole path's bit for bit.
    """
    stop = factors.grid.n_steps if stop is None else stop
    steps = max(refine, min(chunk_steps or _CHUNK_STEPS, stop) // refine * refine)
    grids = [(batch, 1)] if refine == 1 else list(zip(batch, (1, refine)))
    if _walks is not None:
        _walks.append({"batch_size": batch_size, "chunk_steps": steps, "refine": refine})

    def walked(lo, hi):
        # a function scope, so one batch's buffers are freed before the next
        # batch is walked
        if steps < stop:
            np.empty((_HEAP_HINT_BUFFERS, hi - lo, steps + 1, model.n))  # freed at once
        lanes = [(*make(lo, hi), f, np.empty((hi - lo, steps // f + 1, model.n)))
                 for make, f in grids]
        caps, carries = np.zeros((len(lanes), hi - lo), np.int64), [None] * len(lanes)
        rows, keep, chunk = np.arange(hi - lo), np.arange(lo, hi), factors
        for start in range(0, stop, steps):
            # a plain source's chunk takes path indices, a chunk's the rows it keeps
            chunk = chunk.time_chunk(keep, start, min(start + steps, stop))
            dw = None if refine == 1 else chunk.block(0, rows.size)
            for i, (consume, _, f, buf) in enumerate(lanes):
                source = chunk if dw is None else DrawnChunk(chunk, dw, f)
                lx, aux = simulate_block(model, source, 0, rows.size, carries[i], out=buf)
                caps[i, rows] = aux["capped_steps"]
                carries[i] = {"log_prices": lx[:, -1], **aux}
                keep = consume(rows, source.first_step, lx, aux)
            keep = np.arange(rows.size) if keep is None else np.asarray(keep)
            if keep.size == 0:
                break
            rows = rows[keep]
            carries = [{key: v[keep] for key, v in carry.items()} for carry in carries]
        cols = [lane[1]() for lane in lanes]
        if any("capped_steps" in c for c in cols):
            raise InvalidArgumentError(
                "a batch returned 'capped_steps', which the walk joins itself")
        return [{k: np.array(v) for k, v in {**c, "capped_steps": n}.items()}
                for c, n in zip(cols, caps)]

    n = factors.n_paths
    parts = [walked(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]
    joined = [{k: np.concatenate([part[i][k] for part in parts]) for k in parts[0][i]}
              for i in range(len(grids))]
    return joined[0] if refine == 1 else tuple(joined)


def run_batches(model: MarketModel, factors: FactorPaths, per_batch, batch_size: int) -> dict:
    """Integrate all paths in fixed batches of whole paths and join what each
    batch returns: ``walk`` with one time chunk spanning the grid, cut and
    drawn like every other walk's.

    ``per_batch(lo, hi, log_prices, aux)`` gets each batch's whole log
    prices and returns its columns, which the walk copies and joins.
    """

    def batch(lo, hi):
        cols = {}

        def consume(rows, start, lx, aux):
            cols.update(per_batch(lo, hi, lx, aux))

        return consume, lambda: cols

    return walk(model, factors, batch, batch_size, chunk_steps=factors.grid.n_steps)
