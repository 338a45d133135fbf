"""The kernels that integrate a market kind's drift, and the reductions they share.

A market kind is one entry of ``markets.KINDS``: constructor, growth rule
and kernel.  No kind is named here.  A growth rule ``rule(model)`` returns
``growth(t, lx, records)``, the growth rates at time ``t`` of log prices
``lx (..., n)`` given the kernel's per-path ``records``.  A kernel
evaluates it on a batch at one grid time; ``markets.growth_rates_along``
on stored paths at every grid time, with ``t`` a row and each record a
column, so the integrator and the replay cannot disagree about the rule.
``_state_free`` serves a rule that depends on neither time nor state: it
adds it to every step at once and sums the increments.  ``_euler`` steps
any rule, capped at ``params.get("step_cap")`` (no cap where None).  A
kind whose drift needs more brings its own kernel on the stepping loop
``_stepping``, which applies the cap, counts capped entries and adds the
noise.  The diverse kind brings ``markets._leader_kernel``: at a few
hundred paths a step costs about its count of numpy calls, so it steps
only the leader on rows of paths and equals ``_euler`` on its rule bit for
bit; the leader's rate is ``markets._leader_rate``, which its growth rule
calls too.

Kernel contract: ``kernel(rule, logx0, dv, dt, times, model, carry,
start)``, the rule bound by ``active_kernels``, with ``logx0 (n,)``, ``dv
(B, K, n)`` volatility increments already multiplied by the dispersion
matrix, ``dt (K,)`` step sizes, ``times (K+1,)`` grid points and
``start`` the grid index of ``times[0]``.  A kernel runs the whole time
loop, overwriting ``dv`` in place with the log prices at ``times[1:]``,
and returns a dict of per-path records of the paths from grid step 0 on,
always with ``capped_steps``, the (B,) int64 count of capped drift
entries.  No cross-path reduction happens inside a kernel, so results
never depend on how paths were split into batches.

Every kernel carries its state through time chunks.  ``carry`` is None
where the paths start at ``logx0`` on grid step 0; otherwise it holds,
one row per path, ``log_prices`` (B, n) at ``times[0]`` and the records
the kernel returned for the same paths' chunk before.  A ``_stepping``
kernel goes on from them one step at a time, repeating the whole path's
arithmetic.  ``_state_free`` carries the running sum of each path's log
increments, ``increment_sum`` (B, n), in front of the chunk's cumsum.

Sums, maxima and minima over the stock or factor axis go through
``_sum_last``, ``_max_last`` and ``_min_last`` here, because numpy reduces
a short contiguous last axis several times slower than it adds or compares
its columns as whole arrays.  They match numpy bit for bit for up to seven
stocks or factors; past that the sum may differ from numpy's by rounding.
A sum over time that a study takes chunk by chunk goes through
``_RowSum``, which repeats numpy's pairwise sum of the whole row, and a
running sum through ``_carried_cumsum``.
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
# the stepping loop and the kernels
# ---------------------------------------------------------------------------

def _stepping(cur, dv, step, caps):
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
    capped-entry counts (B,) a ``_stepping`` kernel starts a chunk from."""
    if carry is None:
        return np.tile(logx0, (dv.shape[0], 1)), np.zeros(dv.shape[0], np.int64)
    return carry["log_prices"].copy(), carry["capped_steps"].copy()


def _carried_cumsum(steps, carry):
    """Running sums of ``steps`` along axis 1, in place, from ``carry``,
    the sum carried from the chunk before (None on grid step 0): every
    entry is the same additions, in the same order, as one cumsum over the
    whole path.  Returns ``steps``."""
    if carry is not None:
        steps[:, 0] += carry
    return np.cumsum(steps, axis=1, out=steps)


def _state_free(rule, logx0, dv, dt, times, model, carry, start):
    dv += rule(model)(times[0], logx0, None)[None, :] * dt[:, None]
    _carried_cumsum(dv, None if carry is None else carry["increment_sum"])
    total = dv[:, -1].copy()
    # a (K, n) operand: numpy adds it per path in one run, an (n,) row per step
    dv += np.tile(logx0, (dv.shape[1], 1))
    return {"capped_steps": np.zeros(dv.shape[0], np.int64), "increment_sum": total}


def _euler(rule, logx0, dv, dt, times, model, carry, start):
    growth = rule(model)
    cap = model.params.get("step_cap")
    cur, caps = _start(logx0, dv, carry)
    records = {"capped_steps": caps}
    _stepping(cur, dv, lambda k, cur: (growth(times[k], cur, records) * dt[k], cap), caps)
    return records


def active_kernels():
    """The kernel of each market kind, its entry's growth rule bound.

    ``markets.simulate_block`` looks its kernel up here on every call, so
    replacing this function (to wrap the kernels, say) takes effect at once.
    """
    from .markets import KINDS  # markets imports this module

    return {kind: functools.partial(e.kernel, e.growth) for kind, e in KINDS.items()}
