"""Time grids and reproducible Brownian factor increments."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["PathGrid", "FactorPaths", "DrawnChunk", "make_grid", "geometric_grid",
           "generate_factors"]


@dataclass(frozen=True)
class PathGrid:
    """Strictly increasing partition of [0, horizon], starting at 0.

    ``make_grid`` builds the uniform grids used everywhere; a handful of
    experiments with early-time singularities build refined grids through
    ``geometric_grid``.
    """

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise InvalidArgumentError("grid needs at least two time points")
        if t[0] != 0.0:
            raise InvalidArgumentError("grid must start at 0")
        if not np.all(np.diff(t) > 0):
            raise InvalidArgumentError("grid times must be strictly increasing")
        if not np.isfinite(t).all():
            raise InvalidArgumentError("grid times must be finite")
        object.__setattr__(self, "times", t)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def step_sizes(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def is_uniform(self) -> bool:
        d = self.step_sizes
        return bool(np.allclose(d, d[0], rtol=1e-9, atol=0.0))

    @property
    def dt(self) -> float:
        if not self.is_uniform:
            raise InvalidArgumentError("dt is only defined for uniform grids")
        return self.horizon / self.n_steps

    def coarsened(self, factor: int) -> "PathGrid":
        if factor < 1 or self.n_steps % factor != 0:
            raise InvalidArgumentError(
                f"cannot coarsen a {self.n_steps}-step grid by {factor}"
            )
        return PathGrid(self.times[::factor])


def make_grid(horizon: float, n_steps: int) -> PathGrid:
    """Uniform grid over [0, horizon] with n_steps steps."""
    if not (horizon > 0) or not np.isfinite(horizon):
        raise InvalidArgumentError("horizon must be positive and finite")
    if n_steps < 1:
        raise InvalidArgumentError("n_steps must be at least 1")
    return PathGrid(np.linspace(0.0, float(horizon), int(n_steps) + 1))


def geometric_grid(horizon: float, n_steps: int, t_min: float) -> PathGrid:
    """Grid whose interior points are geometrically spaced from t_min up to
    the horizon, preceded by 0.  Step sizes grow by a constant ratio, which
    packs resolution near the origin."""
    if not (0 < t_min < horizon):
        raise InvalidArgumentError("need 0 < t_min < horizon")
    if n_steps < 2:
        raise InvalidArgumentError("n_steps must be at least 2")
    interior = np.exp(np.linspace(np.log(t_min), np.log(horizon), int(n_steps)))
    interior[-1] = horizon
    return PathGrid(np.concatenate(([0.0], interior)))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _hashmix(const: int, mult: int):
    """numpy's ``hashmix`` over uint32 arrays: each call mixes its words with
    the hash constant, then steps the constant on for the next call."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> _XSHIFT
    return hashmix


def _seed_words(master_seed: int, paths) -> np.ndarray:
    """``SeedSequence((master_seed, i)).generate_state(4, np.uint64)`` for each
    path index ``i`` (below 2**32), as the rows of a (len(paths), 4) uint64
    array.

    This is numpy's ``SeedSequence`` hash from ``bit_generator.pyx``, run in
    uint32 arrays over all the paths at once.  The entropy is the master
    seed's 32-bit words, least significant first, then the path index.  Its
    first four words fill the pool and are mixed with each other, and any
    word past the pool is mixed in after.
    """
    index = np.asarray(paths, dtype=np.uint32)
    seed = int(master_seed)
    entropy = [np.full(index.shape, seed >> shift & _MASK32, np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)] + [index]
    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ value >> _XSHIFT

    zero = np.zeros(index.shape, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state: eight uint32 words cycled out of the pool, read in
    # little-endian pairs as four uint64 words
    state = _hashmix(_INIT_B, _MULT_B)
    words = [state(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]
    return np.stack(words, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type():
    # built at the first draw, not at import: numpy imports numpy.random
    # lazily, and importing spt_lab does not import it either
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        """The four uint64 words a PCG64 seeds itself from."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _SeedWords


def _generators(master_seed: int, paths):
    """The generators of ``paths``, one at a time: path ``i``'s is a PCG64
    seeded bit for bit as ``SeedSequence((master_seed, i))`` seeds it, and
    the seed words of all the paths are hashed in one pass."""
    seed_words, generator, pcg64 = _seed_words_type(), np.random.Generator, np.random.PCG64
    for words in _seed_words(master_seed, paths):
        yield generator(pcg64(seed_words(words)))


def _scale(step_sizes: np.ndarray, m: int) -> np.ndarray:
    # a (K, m) factor: numpy scales each path in one run, not a row per step
    return np.repeat(np.sqrt(step_sizes)[:, None], m, axis=1)


class _Stream:
    """One path's generator and the grid step it stands at.  A time chunk
    seeds the generators of its paths that have not drawn yet together, at
    its first draw, and each stream keeps its generator from one chunk to
    the next, and lets it go once it has drawn the grid's last step."""

    __slots__ = ("path", "rng", "step")

    def __init__(self, path: int):
        self.path, self.rng, self.step = path, None, 0

    def advance(self, start: int, stop: int):
        """Move on past steps start..stop-1, which the caller then draws."""
        if self.step != start:
            raise InvalidArgumentError(
                f"path {self.path} stands at step {self.step}, so it cannot draw "
                f"steps {start}..{stop - 1}: draw each chunk once, in order")
        self.step = stop


@dataclass(frozen=True)
class _Chunk:
    rows: np.ndarray  # path index of each row
    start: int
    stop: int
    streams: list  # one _Stream per row


@dataclass(frozen=True)
class FactorPaths:
    """Brownian factor increments on a grid, regenerable path by path.

    Each path's increments come from its own PCG64 stream, seeded by the
    pure tuple hash ``SeedSequence((master_seed, path_index))``, so any path
    can be produced in isolation, in any order, on any worker, and the
    result never depends on how paths are batched.  A block's streams are
    seeded in one vectorised pass over its paths, bit for bit as numpy seeds
    them one by one.  Increments (not levels) are the stored representation;
    levels would couple a path's state to summation order.  Path indices
    hash as one 32-bit word, so a source has at most 2**32 paths.

    ``time_chunk`` cuts a source for a set of paths over a span of grid
    steps; its ``block`` and ``times`` cover that span only.  Every walk
    (``markets.walk``) draws through time chunks.
    """

    grid: PathGrid
    m: int
    n_paths: int
    master_seed: int
    _chunk: "_Chunk | None" = field(default=None, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgumentError("need at least one factor")
        if not 1 <= self.n_paths <= 2**32:
            raise InvalidArgumentError(f"need between 1 and 2**32 paths, not {self.n_paths}")
        if self.master_seed < 0:
            raise InvalidArgumentError("master_seed must be a nonnegative integer")

    @property
    def times(self) -> np.ndarray:
        """Grid points the draws span: the grid's, or a time chunk's."""
        if self._chunk is None:
            return self.grid.times
        return self.grid.times[self._chunk.start:self._chunk.stop + 1]

    @property
    def first_step(self) -> int:
        """Grid index of ``times[0]``: 0, or a time chunk's first step."""
        return 0 if self._chunk is None else self._chunk.start

    def path_index(self, row: int) -> int:
        """Path index of this source's row ``row``: the row itself, or the
        path a time chunk's row draws."""
        return int(row) if self._chunk is None else int(self._chunk.rows[row])

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Increments for paths lo..hi-1, shape (hi-lo, n_steps, m)."""
        if not 0 <= lo < hi <= self.n_paths:
            raise InvalidArgumentError(f"bad path range [{lo}, {hi})")
        chunk = self._chunk
        if chunk is None:  # whole paths, each from a fresh stream
            start, stop, streams = 0, self.grid.n_steps, [_Stream(i) for i in range(lo, hi)]
        else:
            start, stop, streams = chunk.start, chunk.stop, chunk.streams[lo:hi]
        for stream in streams:
            stream.advance(start, stop)
        fresh = _generators(self.master_seed, [s.path for s in streams if s.rng is None])
        out = np.empty((hi - lo, stop - start, self.m))
        for row, stream in zip(out, streams):
            rng = next(fresh) if stream.rng is None else stream.rng
            rng.standard_normal(out=row)
            stream.rng = rng if stop < self.grid.n_steps else None
        out *= _scale(self.grid.step_sizes[start:stop], self.m)
        return out

    def time_chunk(self, rows, start: int, stop: int) -> "FactorPaths":
        """Paths ``rows`` of this source over grid steps start..stop-1.

        The chunk is a source of ``len(rows)`` paths: its ``block(lo, hi)``
        draws rows lo..hi-1 over those steps, (hi-lo, stop-start, m), and
        its ``times`` are grid points start..stop.  Each path keeps its
        generator from one chunk to the next, because a stream drawn in
        pieces equals the stream drawn whole: a plain source's chunks start
        at step 0, a chunk's chunks go on where it stops, and drawing a
        path's steps out of order or twice raises ``InvalidArgumentError``.
        """
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        if rows.size == 0 or not np.all((0 <= rows) & (rows < self.n_paths)):
            raise InvalidArgumentError("a time chunk needs rows among the source's paths")
        if not 0 <= start < stop <= self.grid.n_steps:
            raise InvalidArgumentError(f"bad step range [{start}, {stop})")
        if self._chunk is None:
            paths, streams = rows, [_Stream(int(i)) for i in rows]
        else:
            paths = self._chunk.rows[rows]
            streams = [self._chunk.streams[i] for i in rows]
        return replace(self, n_paths=rows.size, _chunk=_Chunk(paths, start, stop, streams))


class DrawnChunk:
    """A time chunk's increments ``dw`` (B, k, m), drawn once, read as a
    source by ``markets.simulate_block``: on the chunk's grid points, or on
    every ``factor``-th of them (k a multiple), each coarse step's increment
    the sum of the drawn increments it spans."""

    def __init__(self, chunk: FactorPaths, dw: np.ndarray, factor: int = 1):
        if factor < 1 or dw.shape[1] % factor:
            raise InvalidArgumentError(
                f"cannot coarsen a {dw.shape[1]}-step chunk by {factor}")
        self.m, self.path_index, self.times = chunk.m, chunk.path_index, chunk.times[::factor]
        self.first_step, self._dw, self._factor = chunk.first_step // factor, dw, factor

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Increments of rows lo..hi-1, (hi-lo, k / f, m)."""
        return self._dw[lo:hi].reshape(hi - lo, -1, self._factor, self.m).sum(axis=2)


def generate_factors(grid: PathGrid, m: int, n_paths: int, master_seed: int) -> FactorPaths:
    """Factor increment source for ``n_paths`` paths of ``m`` Brownian motions."""
    return FactorPaths(grid=grid, m=int(m), n_paths=int(n_paths), master_seed=int(master_seed))
