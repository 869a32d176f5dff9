"""The vectorized seeding reproduces numpy's Generator bit for bit.

The determinism contract names ``Generator(PCG64(SeedSequence(master_seed,
spawn_key=(stream, r)))).random(cols)`` as replication r's draws; numpy's own
generator is the reference here for ``_kernels.uniform_tiles``, its tiles'
segments put back in their columns, and for the jump that takes each set to
its test column and each segment to its first state. Python ints are the
reference for the 128-bit multiply-add under both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacroute._kernels import (
    _PCG_MULT,
    TILE_COLS,
    _halves,
    _jump,
    _lcg_power,
    _mul_add,
    _pcg_states,
    _uniforms,
    uniform_tiles,
)

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
    segments=st.one_of(st.just(1), st.integers(2, 140)),
)
@settings(max_examples=150, deadline=None)
def test_matches_numpy_generator(master_seed, stream, replications, cols, near_top, back,
                                 segments):
    # near_top puts the last replication index within 64 of 2**32 - 1
    start = 2**32 - replications - back if near_top else back
    got = joined_uniforms(master_seed, stream, replications, cols, start=start,
                          segments=segments)
    assert got.shape == (replications, cols)
    # every column drawn once, at most TILE_COLS a tile
    state = _pcg_states(master_seed, stream, replications, start)
    shapes = [t.shape for t in uniform_tiles(state, cols, segments)]
    assert max(rows for rows, _ in shapes) <= TILE_COLS
    assert sum(rows * lanes for rows, lanes in shapes) == replications * cols
    if segments == 1:  # full tiles, then the rest
        widths = [rows for rows, _ in shapes]
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
    # random(n) is the first n draws of random(n + 1): how many columns a
    # lane draws does not change the ones it shares with a longer draw
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


@given(
    master_seed=st.integers(0, 2**200 - 1),
    stream=st.sampled_from([0, 1, 2, 2**33 + 1]),
    cols=st.integers(1, 2 * TILE_COLS + 2),
    near_top=st.booleans(),
    back=st.integers(0, 64),
)
@settings(max_examples=60, deadline=None)
def test_jump_reaches_the_last_column_from_every_state(master_seed, stream, cols, near_top, back):
    # a state k draws in, for every k up to cols - 1 and so on both sides of
    # each tile edge, jumps cols - k steps to column cols - 1: k = 0 is a
    # jump from the seeded state, as to a segment's first column
    replications = 3
    start = 2**32 - replications - back if near_top else back
    want = numpy_rows(master_seed, stream, replications, cols, start)[:, cols - 1]
    hi, lo, inc_hi, inc_lo = _pcg_states(master_seed, stream, replications, start)
    for k in range(cols):
        assert np.array_equal(_uniforms(*_jump(hi, lo, inc_hi, inc_lo, cols - k)), want), k
        hi, lo = _mul_add(hi, lo, _PCG_MULT, inc_hi, inc_lo)


@given(seed=st.integers(0, 2**128 - 1),
       steps=st.one_of(st.integers(0, 3 * TILE_COLS), st.integers(0, 2**128 - 1)))
@settings(max_examples=100, deadline=None)
def test_lcg_power_matches_numpy_advance(seed, steps):
    bit_gen = np.random.PCG64(seed)
    before = bit_gen.state["state"]
    a, c = _lcg_power(steps)
    bit_gen.advance(steps)
    assert bit_gen.state["state"]["state"] == (before["state"] * a + before["inc"] * c) % 2**128


# 128-bit words whose low or high 64-bit word is all ones or zero, where a
# carry runs through every partial sum
CARRY_EDGES = [0, 1, 2**32 - 1, 2**64 - 1, 2**64, 2**96 - 1, 2**128 - 2**64, 2**128 - 1]
U128 = st.one_of(st.integers(0, 2**128 - 1), st.sampled_from(CARRY_EDGES))


def _words(values):
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & (2**64 - 1) for v in values], dtype=np.uint64))


@given(xs=st.lists(st.tuples(U128, U128), min_size=1, max_size=8), mult=U128)
@settings(max_examples=300, deadline=None)
def test_mul_add_is_multiply_add_mod_2_128(xs, mult):
    # _jump passes multipliers other than PCG64's, so every 128-bit one
    # must give (x * mult + add) mod 2**128
    hi, lo = _words([x for x, _ in xs])
    add_hi, add_lo = _words([a for _, a in xs])
    got_hi, got_lo = _mul_add(hi, lo, _halves(mult), add_hi, add_lo)
    got = [int(h) << 64 | int(v) for h, v in zip(got_hi, got_lo)]
    assert got == [(x * mult + a) % 2**128 for x, a in xs]
