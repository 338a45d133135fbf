"""Drift rules and the kernels that integrate them, one per market kind.

Each kind has its drift written once, batch-vectorised, and its kernel
is keyed by its kind name (``markets.KINDS``).  The ``constant`` kind's
growth rates do not depend on the state, so its kernel adds them to every
step at once and sums the increments.  The rules of the repelled-leader
market (``diverse``, shared by its ``patched`` variant) and of the spread
market (``ou-pair``) take log prices of any leading shape ``(..., n)``:
the kernels evaluate them on a whole batch at one grid time, and
``markets.growth_rates_along`` on a stored path at every grid time, so the
integrator and the reconstruction cannot disagree about the rule.  The
upstart market's drift (``dominance``) lives in its kernel, because its
power phase adds an exact integral over each step rather than a rate
times the step.
One stepping loop applies the step cap, counts capped entries and adds the
noise for every state-dependent kind.

Kernel contract: ``kernel(logx0, dv, dt, times, model, carry, start)``
with ``logx0 (n,)``, ``dv (B, K, n)`` volatility increments already
multiplied by the dispersion matrix, ``dt (K,)`` step sizes, ``times
(K+1,)`` grid points and ``start`` the grid index of ``times[0]``.  A
kernel runs the whole time loop, overwriting ``dv`` in place with the log
prices at ``times[1:]`` (each step's increment is read once, then
replaced by the new state), and returns a dict of per-path records of the
paths from grid step 0 on.  It always holds ``capped_steps``, the (B,)
int64 count of capped drift entries (zeros for a kind without a cap).  No
cross-path reduction happens inside a kernel, so results never depend on
how paths were split into batches.

Every kind carries its state through time chunks.  ``carry`` is None
where the paths start at ``logx0`` on grid step 0; otherwise it holds,
one row per path, ``log_prices`` (B, n) at ``times[0]`` and the records
the kernel returned for the same paths' chunk before.  The kinds that
step with ``_euler`` go on from those log prices, their capped-entry
counts and their own records: the patched kind's trigger time and the
dominance kind's exit index (a grid index, so ``start`` is added to the
kernel's own step), whose sign is its confined flag.  ``_euler`` takes
one step at a time, so a chunk repeats the whole path's arithmetic.  The
constant kind's state is the running sum of each path's log increments,
its record ``increment_sum`` (B, n), added in front of the chunk's
``cumsum``, so every addition happens in the order it has on the whole
path and the log prices, log x0 plus the sum, match it bit for bit.

Sums, maxima and minima over the stock or factor axis go through
``_sum_last``, ``_max_last`` and ``_min_last`` here, because numpy reduces
a short contiguous last axis several times slower than it adds or compares
its columns as whole arrays.  They match numpy bit for bit for up to seven
stocks or factors; past that the sum may differ from numpy's by rounding.
A sum over time that a study takes chunk by chunk goes through
``_RowSum``, which repeats numpy's pairwise sum of the whole row.
"""

from __future__ import annotations

import functools

import numpy as np


def _sum_last(x):
    """Sum over the last axis, adding the columns in index order.

    Equals numpy's sum over the last axis bit for bit when that axis has
    at most 7 entries: numpy then adds sequentially from +0.0, so an
    all-(-0.0) row sums to +0.0 here too.  From 8 entries on numpy sums
    pairwise and the two may differ by rounding.  A bool array counts its
    True entries in numpy's default integer, as numpy's sum does (adding
    two bool columns would be a logical or).
    """
    out = x[..., 0] + 0
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


# numpy sums a row of up to this many entries as one leaf, with eight
# accumulators; a longer row splits at half its length rounded down to a
# multiple of 8, and each half is summed the same way
_PAIRWISE_LEAF = 128


def _pairwise_plan(n):
    """numpy's pairwise summation of n entries, in post-order: the length of
    each leaf, and None where the two sums on top are added."""
    if n <= _PAIRWISE_LEAF:
        yield n
        return
    half = n // 2 - n // 2 % 8
    yield from _pairwise_plan(half)
    yield from _pairwise_plan(n - half)
    yield None


class _RowSum:
    """``np.sum(x, axis=1)`` of a (B, n) block fed in column pieces, bit for bit.

    numpy adds a contiguous row pairwise (``_pairwise_plan``), so a sum
    carried from piece to piece would round differently.  This walks the
    same recursion instead: ``add`` copies each (B, k) piece into one
    (B, 128) leaf buffer, each full leaf is summed by numpy, and the leaf
    sums are added as the recursion adds them, holding O(log n) partial
    sums per row.  ``total()`` returns the (B,) sums once all n columns
    have come.
    """

    def __init__(self, b: int, n: int):
        self._plan = _pairwise_plan(n)
        self._leaf = np.empty((b, _PAIRWISE_LEAF))
        self._size = next(self._plan)
        self._fill = 0
        self._sums = []

    def add(self, piece):
        at, k = 0, piece.shape[1]
        while at < k:
            if self._size is None:
                raise ValueError("more columns than the row holds")
            take = min(self._size - self._fill, k - at)
            self._leaf[:, self._fill:self._fill + take] = piece[:, at:at + take]
            self._fill += take
            at += take
            if self._fill == self._size:
                self._sums.append(np.sum(self._leaf[:, :self._size], axis=1))
                self._fill, self._size = 0, None
                for op in self._plan:
                    if op is not None:
                        self._size = op
                        break
                    right = self._sums.pop()
                    self._sums[-1] += right

    def total(self):
        if self._size is not None:
            raise ValueError("the row is not complete")
        return self._sums[0]


def _max_last(x):
    """Max over the last axis, equal to numpy's bit for bit, by columns."""
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out


def _min_last(x):
    """Min over the last axis, equal to numpy's bit for bit, by columns."""
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.minimum(out, x[..., j], out=out)
    return out


@functools.lru_cache(maxsize=8)
def _index_grid(shape):
    # cached: a kernel asks for the same shape at every step
    return np.indices(shape, sparse=True)


def _leader(lx):
    """Index of each state's leader (lowest index on ties) and 1 / mu_max.

    ``lx`` holds log prices (..., n); the index is a tuple that picks the
    leader's entry, and 1 / mu_max = sum_i exp(lx_i - lx_lead).
    """
    lead = lx.argmax(axis=-1)
    at_lead = (*_index_grid(lead.shape), lead)
    gap = lx - lx[at_lead][..., None]
    return at_lead, _sum_last(np.exp(gap, out=gap))


# ---------------------------------------------------------------------------
# drift rules
# ---------------------------------------------------------------------------

# Floor for the log-distance to the barrier inside the repelling drift.
_Q_FLOOR = 1e-8


def constant_growth(model):
    """Growth rates ``b - diag(a)/2`` of the constant-coefficient market,
    one per stock, the same in every state."""
    return model.params["b"] - 0.5 * np.diag(model.vol.a)


def leader_repulsion(model):
    """Growth rule ``lx -> gamma`` of the repelled-leader market.

    Non-leading stocks grow at ``g``; the leader (lowest index on ties)
    grows at ``-(big_m/delta) / q`` with ``q = log((1-delta)/mu_max)``
    floored at ``_Q_FLOOR``.
    """
    p = model.params
    log_barrier = np.log(1.0 - p["delta"])
    pull = -(p["big_m"] / p["delta"])
    g = p["g"]

    def growth(lx):
        at_lead, s = _leader(lx)
        q = np.maximum(log_barrier + np.log(s), _Q_FLOOR)
        gam = np.empty(lx.shape)
        gam[...] = g
        gam[at_lead] = pull / q
        return gam

    return growth


def patched_repulsion(model):
    """Growth rule ``(t, lx, trigger_time) -> gamma`` of the patched market.

    The repelled-leader rule holds from the trigger time on when the trigger
    fired in the first half of the horizon; otherwise every stock has zero
    rate of return.
    """
    repel = leader_repulsion(model)
    half_t = 0.5 * model.params["horizon"]
    quiet = -0.5 * np.diag(model.vol.a)

    def growth(t, lx, trigger_time):
        gam = repel(lx)
        gam[~((trigger_time <= half_t) & (t >= trigger_time))] = quiet
        return gam

    return growth


def spread_reversion(model):
    """Growth rule ``(t, lx) -> gamma`` of the two-stock spread market.

    Stock 2's rate of return is ``-alpha * (lx_2 - lx_1)`` from the switch
    time on and zero before; stock 1's is zero throughout.
    """
    p = model.params
    alpha, switch_time = p["alpha"], p["switch_time"]
    a_half = 0.5 * float(model.vol.a[0, 0])

    def growth(t, lx):
        b2 = np.where(t >= switch_time, -alpha * (lx[..., 1] - lx[..., 0]), 0.0)
        gam = np.empty(lx.shape)
        gam[..., 0] = -a_half
        gam[..., 1] = b2 - a_half
        return gam

    return growth


# ---------------------------------------------------------------------------
# the stepping loop and the kernels
# ---------------------------------------------------------------------------

def _euler(cur, dv, step, caps):
    """log x_{k+1} = log x_k + capped displacement + dv_k, for a whole batch.

    ``cur (B, n)`` holds the log prices at the first grid point on entry
    and moves on with every step.  ``dv (B, K, n)`` holds the volatility
    increments on entry and the log prices x_1..x_K on return: ``dv[:, k]``
    is overwritten with the new state right after it is read.
    ``step(k, cur)`` returns the drift displacement over step k from the
    left-endpoint log prices ``cur`` and the cap on its size: a scalar, an
    array broadcasting against ``cur``, or None for no cap.  Entries past
    the cap are clipped to it and counted per path into ``caps`` (B,).
    """
    size = np.empty(cur.shape)
    over = np.empty(cur.shape, bool)
    for k in range(dv.shape[1]):
        disp, cap = step(k, cur)
        if cap is not None:
            np.greater(np.abs(disp, out=size), cap, out=over)
            for j in range(over.shape[1]):
                caps += over[:, j]
            np.maximum(disp, -cap, out=disp)
            np.minimum(disp, cap, out=disp)
        cur += disp
        cur += dv[:, k, :]
        dv[:, k, :] = cur


def _start(logx0, dv, carry):
    """Fresh copies of the log prices (B, n) at ``times[0]`` and the
    capped-entry counts (B,) an ``_euler`` kind starts a chunk from."""
    if carry is None:
        cur = np.empty((dv.shape[0], dv.shape[2]))
        cur[:] = logx0
        return cur, np.zeros(dv.shape[0], np.int64)
    return carry["log_prices"].copy(), carry["capped_steps"].copy()


def _constant(logx0, dv, dt, times, model, carry, start):
    dv += constant_growth(model)[None, :] * dt[:, None]
    if carry is not None:
        dv[:, 0] += carry["increment_sum"]
    np.cumsum(dv, axis=1, out=dv)
    total = dv[:, -1].copy()
    # a (K, n) operand: numpy adds it per path in one run, an (n,) row per step
    dv += np.tile(logx0, (dv.shape[1], 1))
    return {"capped_steps": np.zeros(dv.shape[0], np.int64), "increment_sum": total}


def _diverse(logx0, dv, dt, times, model, carry, start):
    growth = leader_repulsion(model)
    step_cap = model.params["step_cap"]
    cur, caps = _start(logx0, dv, carry)
    _euler(cur, dv, lambda k, cur: (growth(cur) * dt[k], step_cap), caps)
    return {"capped_steps": caps}


def _ou_pair(logx0, dv, dt, times, model, carry, start):
    growth = spread_reversion(model)
    cur, caps = _start(logx0, dv, carry)
    _euler(cur, dv, lambda k, cur: (growth(times[k], cur) * dt[k], None), caps)
    return {"capped_steps": caps}


def _patched(logx0, dv, dt, times, model, carry, start):
    growth = patched_repulsion(model)
    p = model.params
    trigger = 1.0 / (1.0 - p["eta"])  # mu_max >= 1-eta  <=>  1/mu_max <= this
    cur, caps = _start(logx0, dv, carry)
    trigger_time = np.full(dv.shape[0], np.inf) if carry is None else carry["trigger_time"].copy()

    def step(k, cur):
        hit = (trigger_time == np.inf) & (_leader(cur)[1] <= trigger)
        trigger_time[hit] = times[k]
        return growth(times[k], cur, trigger_time) * dt[k], p["step_cap"]

    _euler(cur, dv, step, caps)
    return {"capped_steps": caps, "trigger_time": trigger_time}


def _dominance(logx0, dv, dt, times, model, carry, start):
    """Two-stock upstart market.

    Stock 2 carries the power drift t**alpha, integrated exactly over each
    step and never capped, until the log gap first leaves (-eta', eta');
    from then on a capped two-pole drift confines the gap to (-eta, eta).
    """
    p = model.params
    alpha, eta, eta_prime, cdrift = p["alpha"], p["eta"], p["eta_prime"], p["cdrift"]
    margin = 1e-9 * eta
    B = dv.shape[0]
    cur, caps = _start(logx0, dv, carry)
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

    _euler(cur, dv, step, caps)
    return {"exit_index": exit_index, "capped_steps": caps}


_KERNELS = {
    "constant": _constant,
    "diverse": _diverse,
    "ou-pair": _ou_pair,
    "patched": _patched,
    "dominance": _dominance,
}


def active_kernels():
    """The kernel of each market kind.

    ``markets.simulate_block`` looks its kernel up here on every call, so
    replacing this function (to wrap the kernels, say) takes effect at once.
    """
    return _KERNELS
