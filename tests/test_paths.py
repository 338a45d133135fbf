"""Grid construction and Brownian factor generation."""

import numpy as np
import pytest

from spt_lab import paths
from spt_lab.errors import InvalidArgumentError


def test_uniform_grid_quarter_steps():
    g = paths.make_grid(1.0, 4)
    np.testing.assert_allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
    assert g.n_steps == 4
    assert g.horizon == 1.0
    assert g.is_uniform
    assert g.dt == 0.25


def test_single_step_grid():
    g = paths.make_grid(2.0, 1)
    assert g.dt == 2.0
    np.testing.assert_array_equal(g.step_sizes, [2.0])


def test_grid_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        paths.make_grid(0.0, 4)
    with pytest.raises(InvalidArgumentError):
        paths.make_grid(-1.0, 4)
    with pytest.raises(InvalidArgumentError):
        paths.make_grid(1.0, 0)
    with pytest.raises(InvalidArgumentError):
        paths.PathGrid(np.array([0.0, 0.5, 0.5, 1.0]))   # not strictly increasing
    with pytest.raises(InvalidArgumentError):
        paths.PathGrid(np.array([0.5, 1.0]))             # must start at zero
    with pytest.raises(InvalidArgumentError):
        paths.PathGrid(np.array([0.0]))


def test_geometric_grid_shape():
    g = paths.geometric_grid(2.0, 16, 1e-5)
    assert g.times[0] == 0.0
    assert g.times[1] == pytest.approx(1e-5, rel=1e-12)
    assert g.times[-1] == 2.0
    assert g.n_steps == 16
    assert np.all(np.diff(g.times) > 0)
    assert not g.is_uniform
    with pytest.raises(InvalidArgumentError):
        g.dt
    with pytest.raises(InvalidArgumentError):
        paths.geometric_grid(1.0, 16, 0.0)
    with pytest.raises(InvalidArgumentError):
        paths.geometric_grid(1.0, 16, 2.0)


def test_increments_reproducible_and_split_invariant():
    """Same seed gives the same draws, however the block is sliced."""
    g = paths.make_grid(1.0, 32)
    f1 = paths.generate_factors(g, 2, 8, master_seed=123)
    f2 = paths.generate_factors(g, 2, 8, master_seed=123)
    b1 = f1.block(0, 8)
    np.testing.assert_array_equal(b1, f2.block(0, 8))
    rows = np.stack([f1.block(i, i + 1)[0] for i in range(8)])
    np.testing.assert_array_equal(b1, rows)
    split = np.concatenate([f2.block(0, 3), f2.block(3, 8)])
    np.testing.assert_array_equal(b1, split)


def test_different_seeds_and_paths_differ():
    g = paths.make_grid(1.0, 8)
    a = paths.generate_factors(g, 1, 4, master_seed=0).block(0, 4)
    b = paths.generate_factors(g, 1, 4, master_seed=1).block(0, 4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a[0], a[1])


def test_terminal_moments_match_brownian():
    # W(1) should be close to standard normal in first two moments
    g = paths.make_grid(1.0, 4)
    f = paths.generate_factors(g, 1, 10_000, master_seed=7)
    w1 = f.block(0, 10_000).sum(axis=1)[:, 0]
    assert abs(w1.mean()) < 0.05
    assert abs(w1.var() - 1.0) < 0.05


def test_step_variance_scales_with_dt():
    g = paths.make_grid(2.0, 8)
    f = paths.generate_factors(g, 1, 4_000, master_seed=21)
    inc = f.block(0, 4_000)[:, 0, 0]
    assert abs(inc.var() - 0.25) < 0.03


def test_coarsened_sums_consecutive_increments():
    """A drawn chunk read on the grid coarsened by 4 sums each run of four
    drawn increments and stands on every fourth grid point."""
    g = paths.make_grid(1.0, 16)
    f = paths.generate_factors(g, 2, 4, master_seed=9)
    fine = f.block(0, 4)
    chunk = f.time_chunk(np.arange(4), 0, 16)
    dw = chunk.block(0, 4)
    c = paths.DrawnChunk(chunk, dw, 4)
    np.testing.assert_array_equal(c.block(0, 4), fine.reshape(4, 4, 4, 2).sum(axis=2))
    np.testing.assert_array_equal(paths.DrawnChunk(chunk, dw).block(1, 3), fine[1:3])
    np.testing.assert_allclose(c.times, g.times[::4], rtol=0, atol=0)
    assert c.first_step == 0
    with pytest.raises(InvalidArgumentError, match="cannot coarsen a 16-step chunk by 5"):
        paths.DrawnChunk(chunk, dw, 5)


def test_factor_validation():
    g = paths.make_grid(1.0, 4)
    with pytest.raises(InvalidArgumentError):
        paths.generate_factors(g, 0, 4, master_seed=1)
    with pytest.raises(InvalidArgumentError):
        paths.generate_factors(g, 1, 0, master_seed=1)
    with pytest.raises(InvalidArgumentError):
        paths.generate_factors(g, 1, 4, master_seed=-1)
    f = paths.generate_factors(g, 1, 4, master_seed=1)
    with pytest.raises(InvalidArgumentError):
        f.block(4, 5)
    with pytest.raises(InvalidArgumentError):
        f.block(2, 2)
    # a path index hashes as one 32-bit word; a source allocates nothing
    # until it draws, so the largest one costs nothing to build
    assert paths.generate_factors(g, 1, 2**32, master_seed=1).n_paths == 2**32
    with pytest.raises(InvalidArgumentError, match="2\\*\\*32 paths"):
        paths.FactorPaths(grid=g, m=1, n_paths=2**32 + 1, master_seed=1)


# ---------------------------------------------------------------------------
# the streams are numpy's own: path i draws from
# default_rng(SeedSequence((master_seed, i))), as the provenance says
# ---------------------------------------------------------------------------

def _numpy_paths(grid, m, master_seed, rows):
    """Each path in ``rows`` drawn on its own from numpy's generator."""
    scale = np.sqrt(grid.step_sizes)[:, None]
    return np.stack([
        np.random.default_rng(np.random.SeedSequence((master_seed, int(i))))
        .standard_normal((grid.n_steps, m)) * scale
        for i in rows])


_SEEDS = [0, 2**32 - 1, 2**33 + 5, 10**30]


@pytest.mark.parametrize("seed", _SEEDS)
def test_blocks_draw_numpys_streams(seed):
    g = paths.geometric_grid(2.0, 12, 1e-3)
    f = paths.generate_factors(g, 2, 9, master_seed=seed)
    np.testing.assert_array_equal(f.block(3, 9), _numpy_paths(g, 2, seed, range(3, 9)))


@pytest.mark.parametrize("seed", _SEEDS)
def test_time_chunks_draw_numpys_streams(seed):
    """Uneven chunks that drop rows on the way: each kept path goes on with
    numpy's stream for its index."""
    g = paths.make_grid(1.0, 30)
    f = paths.generate_factors(g, 3, 12, master_seed=seed)
    want = _numpy_paths(g, 3, seed, range(12))
    first = f.time_chunk(np.arange(2, 12), 0, 7)
    np.testing.assert_array_equal(np.concatenate([first.block(0, 4), first.block(4, 10)]),
                                  want[2:12, :7])
    second = first.time_chunk(np.array([9, 0, 5]), 7, 26)  # paths 11, 2, 7
    np.testing.assert_array_equal(second.block(0, 3), want[[11, 2, 7], 7:26])
    third = second.time_chunk(np.array([2]), 26, 30)
    np.testing.assert_array_equal(third.block(0, 1), want[[7], 26:])


@pytest.mark.parametrize("seed", _SEEDS)
def test_coarsened_blocks_draw_numpys_streams(seed):
    """A chunk after the first, drawn once and read on the grid coarsened by
    3: its steps are sums of numpy's streams, from the coarse grid's step 2."""
    g = paths.make_grid(1.0, 24)
    f = paths.generate_factors(g, 2, 7, master_seed=seed)
    want = _numpy_paths(g, 2, seed, range(1, 6))[:, 6:].reshape(5, 6, 3, 2).sum(axis=2)
    first = f.time_chunk(np.arange(7), 0, 6)
    first.block(0, 7)
    chunk = first.time_chunk(np.arange(7), 6, 24)
    c = paths.DrawnChunk(chunk, chunk.block(0, 7), 3)
    np.testing.assert_array_equal(c.block(1, 6), want)
    assert c.first_step == 2 and c.path_index(3) == 3


def test_seed_words_are_numpys():
    index = [0, 1, 2**32 - 1]
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30):
        want = [np.random.SeedSequence((seed, i)).generate_state(4, np.uint64) for i in index]
        got = paths._seed_words(seed, index)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# time-chunked draws
# ---------------------------------------------------------------------------

def _chunks(source, rows, ends):
    """Draw the paths ``rows`` of ``source`` chunk by chunk, each chunk ending
    at a step in ``ends``; each chunk is drawn in two slices of its rows."""
    out, chunk, keep, start = [], source, rows, 0
    for stop in ends:
        chunk = chunk.time_chunk(keep, start, stop)
        half = max(1, chunk.n_paths // 2)
        parts = [chunk.block(0, half)]
        if half < chunk.n_paths:
            parts.append(chunk.block(half, chunk.n_paths))
        out.append(np.concatenate(parts))
        np.testing.assert_array_equal(chunk.times, source.grid.times[start:stop + 1])
        keep, start = np.arange(chunk.n_paths), stop
    return np.concatenate(out, axis=1)


def test_time_chunks_join_to_the_whole_draw():
    """Chunks joined along the time axis equal ``block`` bit for bit: an odd
    path range, a last partial chunk, and a non-contiguous set of paths."""
    g = paths.make_grid(3.0, 70)
    f = paths.generate_factors(g, 3, 11, master_seed=41)
    whole = f.block(0, 11)
    np.testing.assert_array_equal(_chunks(f, np.arange(3, 10), [16, 32, 48, 64, 70]),
                                  whole[3:10])
    rows = np.array([9, 0, 4, 5])
    np.testing.assert_array_equal(_chunks(f, rows, [25, 50, 70]), whole[rows])
    np.testing.assert_array_equal(_chunks(f, np.array([10]), [70]), whole[10:])


def test_time_chunks_drop_rows_and_keep_the_streams():
    """A chunk cut from a chunk keeps a subset of its rows, and each kept
    path goes on with its own stream."""
    g = paths.make_grid(1.0, 40)
    f = paths.generate_factors(g, 2, 6, master_seed=8)
    whole = f.block(0, 6)
    first = f.time_chunk(np.arange(6), 0, 16)
    np.testing.assert_array_equal(first.block(0, 6), whole[:, :16])
    second = first.time_chunk(np.array([1, 4, 5]), 16, 40)
    assert second.n_paths == 3
    np.testing.assert_array_equal(second.block(0, 3), whole[[1, 4, 5], 16:])


def test_time_chunks_drawn_out_of_order_raise():
    """A path's steps are drawn once each and in order, or the draw raises."""
    g = paths.make_grid(1.0, 20)
    f = paths.generate_factors(g, 1, 4, master_seed=3)
    with pytest.raises(InvalidArgumentError, match="stands at step 0"):
        f.time_chunk(np.arange(4), 10, 20).block(0, 4)  # skips steps 0..9
    first = f.time_chunk(np.arange(4), 0, 10)
    second = first.time_chunk(np.arange(4), 10, 20)
    with pytest.raises(InvalidArgumentError, match="stands at step 0"):
        second.block(0, 4)  # before the chunk it continues
    first.block(0, 4)
    with pytest.raises(InvalidArgumentError, match="stands at step 10"):
        first.block(1, 2)  # twice
    second.block(0, 4)


def test_time_chunk_validation():
    g = paths.make_grid(1.0, 16)
    f = paths.generate_factors(g, 2, 4, master_seed=9)
    for rows in (np.array([], int), np.array([4]), np.array([-1])):
        with pytest.raises(InvalidArgumentError, match="rows"):
            f.time_chunk(rows, 0, 8)
    for start, stop in ((0, 0), (4, 2), (0, 17), (-1, 4)):
        with pytest.raises(InvalidArgumentError, match="step range"):
            f.time_chunk(np.arange(4), start, stop)
