"""The vectorized seeding reproduces numpy's Generator bit for bit.

The determinism contract names ``Generator(PCG64(SeedSequence(master_seed,
spawn_key=(stream, r)))).random(cols)`` as replication r's draws; numpy's own
generator is the reference here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacroute.simulate import _replication_uniforms


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
    got = _replication_uniforms(master_seed, stream, replications, cols, start=start)
    assert got.shape == (replications, cols)
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
    got = _replication_uniforms(master_seed, stream, 37, 101)
    assert np.array_equal(got, numpy_rows(master_seed, stream, 37, 101))


def test_columns_are_a_prefix_of_longer_rows():
    # random(n) is the first n draws of random(n + 1): test draws do not
    # change the calibration draws
    wide = _replication_uniforms(7, 1, 50, 101)
    assert np.array_equal(_replication_uniforms(7, 1, 50, 100), wide[:, :100])


def test_start_offsets_rows():
    whole = _replication_uniforms(11, 2, 30, 5)
    assert np.array_equal(_replication_uniforms(11, 2, 10, 5, start=20), whole[20:])


def test_replication_index_is_one_uint32_word():
    _replication_uniforms(1, 0, 1, 1, start=2**32 - 1)
    with pytest.raises(ValueError):
        _replication_uniforms(1, 0, 2, 1, start=2**32 - 1)
    with pytest.raises(ValueError):
        _replication_uniforms(1, 0, 1, 1, start=2**32)
