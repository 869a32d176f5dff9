"""The vectorized seeding reproduces numpy's Generator bit for bit.

The determinism contract names ``Generator(PCG64(SeedSequence(master_seed,
spawn_key=(stream, r)))).random(cols)`` as replication r's draws; numpy's own
generator is the reference here for ``_kernels.uniform_tiles``, its tiles
joined in order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacroute._kernels import TILE_COLS, uniform_tiles

from conftest import joined_uniforms


def numpy_rows(master_seed, stream, replications, cols, start=0):
    rows = [
        np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(stream, r)))
        ).random(cols)
        for r in range(start, start + replications)
    ]
    return np.array(rows).reshape(replications, cols)


@given(
    master_seed=st.integers(0, 2**200 - 1),
    stream=st.sampled_from([0, 1, 2, 2**33 + 1]),
    replications=st.integers(1, 8),
    cols=st.integers(1, 130),
    near_top=st.booleans(),
    back=st.integers(0, 64),
)
@settings(max_examples=150, deadline=None)
def test_matches_numpy_generator(master_seed, stream, replications, cols, near_top, back):
    # near_top puts the last replication index within 64 of 2**32 - 1
    start = 2**32 - replications - back if near_top else back
    got = joined_uniforms(master_seed, stream, replications, cols, start=start)
    assert got.shape == (replications, cols)
    # full tiles, then the rest
    widths = [len(t) for t in uniform_tiles(master_seed, stream, replications, cols,
                                            start=start)]
    assert widths == [min(TILE_COLS, cols - first) for first in range(0, cols, TILE_COLS)]
    assert np.array_equal(got, numpy_rows(master_seed, stream, replications, cols, start))


@pytest.mark.parametrize(
    "master_seed, stream",
    [
        (2**40 + 5, 1),  # two run-entropy words
        (0, 0),  # zero is a single zero word
        (0, 2**33 + 1),  # two stream words
        (2**128 + 3, 2),  # run entropy longer than the 4-word pool
        (20250810, 0),  # the configs' master seed
    ],
)
def test_fixed_cases(master_seed, stream):
    got = joined_uniforms(master_seed, stream, 37, 101)
    assert np.array_equal(got, numpy_rows(master_seed, stream, 37, 101))


def test_columns_are_a_prefix_of_longer_rows():
    # random(n) is the first n draws of random(n + 1): test draws do not
    # change the calibration draws
    wide = joined_uniforms(7, 1, 50, 101)
    assert np.array_equal(joined_uniforms(7, 1, 50, 100), wide[:, :100])


def test_start_offsets_rows():
    whole = joined_uniforms(11, 2, 30, 5)
    assert np.array_equal(joined_uniforms(11, 2, 10, 5, start=20), whole[20:])


def test_replication_index_is_one_uint32_word():
    joined_uniforms(1, 0, 1, 1, start=2**32 - 1)
    with pytest.raises(ValueError):
        joined_uniforms(1, 0, 2, 1, start=2**32 - 1)
    with pytest.raises(ValueError):
        joined_uniforms(1, 0, 1, 1, start=2**32)


@pytest.mark.parametrize("master_seed, stream, start", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)],
                         ids=["seed", "stream", "start"])
def test_negative_seed_stream_or_start_refused(master_seed, stream, start):
    with pytest.raises(ValueError, match="must be >= 0"):
        joined_uniforms(master_seed, stream, 1, 1, start=start)
