"""Time grids and reproducible Brownian factor increments."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["PathGrid", "FactorPaths", "make_grid", "geometric_grid", "generate_factors"]


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


class _Stream:
    """One path's generator, seeded at its first draw, and the grid step it
    stands at."""

    __slots__ = ("path", "rng", "step")

    def __init__(self, path: int):
        self.path, self.rng, self.step = path, None, 0

    def advance(self, master_seed: int, start: int, stop: int):
        """The generator, to draw steps start..stop-1 with."""
        if self.step != start:
            raise InvalidArgumentError(
                f"path {self.path} stands at step {self.step}, so it cannot draw "
                f"steps {start}..{stop - 1}: draw each chunk once, in order")
        if self.rng is None:
            self.rng = np.random.default_rng(np.random.SeedSequence((master_seed, self.path)))
        self.step = stop
        return self.rng


@dataclass(frozen=True)
class _Chunk:
    rows: np.ndarray  # path index of each row
    start: int
    stop: int
    streams: list  # one _Stream per row


@dataclass(frozen=True)
class FactorPaths:
    """Brownian factor increments on a grid, regenerable path by path.

    Each path's increments come from an independent generator seeded by the
    pure tuple hash ``SeedSequence((master_seed, path_index))``, so any path
    can be produced in isolation, in any order, on any worker, and the
    result never depends on how paths are batched.  Increments (not levels)
    are the stored representation; levels would couple a path's state to
    summation order.

    ``time_chunk`` cuts a source for a set of paths over a span of grid
    steps; its ``block`` and ``times`` cover that span only.
    """

    grid: PathGrid
    m: int
    n_paths: int
    master_seed: int
    _parent: "FactorPaths | None" = field(default=None, repr=False)
    _factor: int = field(default=1, repr=False)
    _chunk: "_Chunk | None" = field(default=None, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgumentError("need at least one factor")
        if self.n_paths < 1:
            raise InvalidArgumentError("need at least one path")
        if self.master_seed < 0:
            raise InvalidArgumentError("master_seed must be a nonnegative integer")

    @property
    def times(self) -> np.ndarray:
        """Grid points the draws span: the grid's, or a time chunk's."""
        if self._chunk is None:
            return self.grid.times
        return self.grid.times[self._chunk.start:self._chunk.stop + 1]

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Increments for paths lo..hi-1, shape (hi-lo, n_steps, m)."""
        if not 0 <= lo < hi <= self.n_paths:
            raise InvalidArgumentError(f"bad path range [{lo}, {hi})")
        return self._draw(lo, hi)

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
        if self._parent is not None:
            raise InvalidArgumentError("a coarsened source draws whole paths only")
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

    def _draw(self, lo: int, hi: int) -> np.ndarray:
        # a coarsened source reads its parent through here, not through
        # ``block``, so a wrapper that counts ``block`` calls sees each path once
        if self._parent is not None:
            out = np.empty((hi - lo, self.grid.n_steps, self.m))
            for i in range(lo, hi):
                fine = self._parent._draw(i, i + 1)[0]
                out[i - lo] = fine.reshape(-1, self._factor, self.m).sum(axis=1)
            return out
        chunk = self._chunk
        start, stop = (0, self.grid.n_steps) if chunk is None else (chunk.start, chunk.stop)
        out = np.empty((hi - lo, stop - start, self.m))
        for i in range(lo, hi):
            if chunk is None:
                rng = np.random.default_rng(np.random.SeedSequence((self.master_seed, i)))
            else:
                rng = chunk.streams[i].advance(self.master_seed, start, stop)
            rng.standard_normal(out=out[i - lo])
        # a (K, m) factor: numpy scales each path in one run, not a row per step
        out *= np.repeat(np.sqrt(self.grid.step_sizes[start:stop])[:, None], self.m, axis=1)
        return out

    def coarsened(self, factor: int) -> "FactorPaths":
        """Same Brownian paths on a grid coarsened by an integer factor;
        consecutive fine increments are summed, preserving the path law."""
        return FactorPaths(
            grid=self.grid.coarsened(factor),
            m=self.m,
            n_paths=self.n_paths,
            master_seed=self.master_seed,
            _parent=self,
            _factor=factor,
        )


def generate_factors(grid: PathGrid, m: int, n_paths: int, master_seed: int) -> FactorPaths:
    """Factor increment source for ``n_paths`` paths of ``m`` Brownian motions."""
    return FactorPaths(grid=grid, m=int(m), n_paths=int(n_paths), master_seed=int(master_seed))
