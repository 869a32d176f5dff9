"""The hot replication kernels, vectorized in numpy.

``occupancy_counts`` takes a chunk of replications from seeds to occupancy
counts (calibration points per cell): ``uniform_tiles`` draws their uniforms
TILE_COLS columns at a time into one reused buffer, and each tile is counted
below every cell-mass CDF edge while it is in cache, so no chunk ever holds
all its uniforms. ``stop_positions`` applies the fixed-sequence stopping rule
to counts, as a running sum of the counts over the cells in position order;
``tau_indices`` is that rule on a fixed grid. ``cell_indices`` maps single
uniforms to cells, for test inputs and samplers. Each works on a block of
replications at once and depends on nothing but its inputs.

Replication ``r`` of stream ``s`` is specified as
``Generator(PCG64(SeedSequence(master_seed, spawn_key=(s, r)))).random(cols)``.
``uniform_tiles`` is the one source of draws and recomputes exactly those
bits across replications: the ``SeedSequence`` pool mixing (O'Neill's
seed_seq design, as numpy implements it) in uint32 words, once per chunk
(``_pcg_states``), then the 128-bit PCG64 LCG with XSL-RR output (O'Neill
2014) in pairs of uint64 words, one column at a time. ``tests/test_seeding.py``
pins its tiles, joined, to numpy bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TILE_COLS", "active_backend", "cell_indices", "occupancy_counts",
           "stop_positions", "tau_indices", "uniform_tiles"]

# SeedSequence (numpy.random.bit_generator): pool size and hash constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF

# PCG64 128-bit multiplier as uint64 halves, and the low half's 32-bit limbs
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & (2**64 - 1))
_MULT_LO0 = np.uint64(_PCG_MULT & _MASK32)
_MULT_LO1 = np.uint64((_PCG_MULT >> 32) & _MASK32)
_DOUBLE_UNIT = 2.0**-53

# columns drawn and counted together: one (TILE_COLS, replications) buffer
TILE_COLS = 16


def active_backend() -> str:
    """Name of the kernel implementation, for environment records."""
    return "numpy"


def _uint32_words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int; 0 is one zero word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence ``hashmix``; with ``mult=_MULT_B``, one ``generate_state``
    output word. Returns (mixed word, next hash constant). ``value`` is a
    Python int below 2**32 or a uint32 array, whose products wrap mod 2**32
    by themselves."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence ``mix`` of two words, each a Python int or uint32 array."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _pool_before_last_word(master_seed: int, stream: int) -> tuple[list[int], int]:
    """The SeedSequence pool and hash constant once every entropy word but the
    replication's has been mixed in.

    The entropy is the run words zero-padded to the pool size (a spawn key is
    present), then the stream's words, then the replication's one word, so the
    replication word is always the last of the "remaining entropy" words.
    """
    run = _uint32_words(master_seed)
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _uint32_words(stream)
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[i_dst] = _mix(pool[i_dst], mixed)
    return pool, hash_const


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One 128-bit LCG step, state*mult + inc mod 2**128, on uint64 halves."""
    lo0 = lo & _MASK32
    lo1 = lo >> 32
    p00 = lo0 * _MULT_LO0
    p01 = lo0 * _MULT_LO1
    p10 = lo1 * _MULT_LO0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    mulhi = lo1 * _MULT_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_hi = hi * _MULT_LO + lo * _MULT_HI + mulhi + inc_hi
    new_lo = lo * _MULT_LO + inc_lo
    new_hi += new_lo < inc_lo  # carry out of the low half
    return new_hi, new_lo


def _pcg_states(master_seed: int, stream: int, replications: int, start: int):
    """PCG64 states ``(hi, lo, inc_hi, inc_lo)``, uint64 arrays over
    replications ``start .. start+replications-1`` of stream ``stream``, as
    ``PCG64(SeedSequence(master_seed, spawn_key=(stream, r)))`` leaves them,
    ready for the first draw. Replication indices are one uint32 spawn-key
    word, so they must stay below 2**32."""
    if master_seed < 0 or stream < 0 or start < 0:
        raise ValueError("master_seed, stream and start must be >= 0")
    if start + replications > 2**32:
        raise ValueError(
            f"replication indices up to {start + replications - 1} exceed "
            "one uint32 spawn-key word"
        )
    pool, hash_const = _pool_before_last_word(master_seed, stream)
    r = np.arange(start, start + replications, dtype=np.uint32)
    # mix the replication's word into each pool word
    vec_pool = []
    for word in pool:
        mixed, hash_const = _hashmix(r, hash_const)
        vec_pool.append(_mix(word, mixed))
    # generate_state(4, uint64): 8 uint32 words cycling over the pool
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        word, hash_const = _hashmix(vec_pool[i % _POOL_SIZE], hash_const, _MULT_B)
        words.append(word.astype(np.uint64))
    s0, s1, s2, s3 = (words[2 * i] | (words[2 * i + 1] << 32) for i in range(4))
    # PCG64 seeding: state 0, step, add initstate (s0:s1), step;
    # inc = (s2:s3) << 1 | 1
    inc_hi = (s2 << 1) | (s3 >> 63)
    inc_lo = (s3 << 1) | 1
    lo = inc_lo + s1
    hi = inc_hi + s0 + (lo < s1)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def uniform_tiles(
    master_seed: int, stream: int, replications: int, cols: int, *, start: int = 0
):
    """Yield the uniforms of replications ``start .. start+replications-1``
    of stream ``stream`` in tiles of up to TILE_COLS columns.

    Each tile is a (columns, replications) view of one reused buffer, valid
    until the next tile is drawn. Joined in order, the tiles' column ``j`` of
    replication ``start+i`` is ``Generator(PCG64(SeedSequence(master_seed,
    spawn_key=(stream, start+i)))).random(cols)[j]`` bit for bit.
    """
    hi, lo, inc_hi, inc_lo = _pcg_states(master_seed, stream, replications, start)
    buf = np.empty((min(TILE_COLS, cols), replications))
    for first in range(0, cols, TILE_COLS):
        tile = buf[:cols - first]
        for row in tile:
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            # XSL-RR: rotate hi^lo right by the state's top 6 bits
            x = hi ^ lo
            rot = hi >> 58
            x = (x >> rot) | (x << ((-rot) & 63))
            np.multiply(x >> 11, _DOUBLE_UNIT, out=row)
        yield tile


def cell_indices(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Cell index of each uniform: the number of cell-mass CDF entries <= u,
    capped at the last cell (the CDF's last entry may round below 1)."""
    return np.searchsorted(cdf[:-1], u, side="right")


def occupancy_counts(
    master_seed: int, stream: int, replications: int, cols: int, cdf: np.ndarray, *,
    start: int = 0, test_draw: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Occupancy counts (replications, cells) of ``uniform_tiles``' columns,
    and with ``test_draw`` the ``cell_indices`` of each replication's last
    column, its test input, which the counts then leave out (else None).

    Cell ``c`` holds the uniforms below edge ``cdf[c]`` but not below
    ``cdf[c-1]``. The last cell takes everything at or above the last interior
    edge, so a uniform past a last CDF entry below 1 lands there too. Each
    tile is counted below every interior edge while it is in cache, one pass
    per edge, which beats a search per uniform and a histogram on worlds of
    a few dozen cells. The working set is one tile and the counts, whatever
    ``cols``.
    """
    edges = cdf[:-1].tolist()
    counts = np.zeros((len(cdf), replications), dtype=np.intp)
    test_cells, drawn = None, 0
    for tile in uniform_tiles(master_seed, stream, replications, cols, start=start):
        drawn += len(tile)
        if test_draw and drawn == cols:  # the test column ends the last tile
            test_cells = cell_indices(cdf, tile[-1])
            tile = tile[:-1]
        below_prev = 0  # the tile's uniforms below the previous edge
        for c, edge in enumerate(edges):
            below = np.count_nonzero(tile < edge, axis=0)
            counts[c] += below - below_prev
            below_prev = below
        counts[-1] += len(tile) - below_prev
    return counts.T, test_cells


def stop_positions(
    counts: np.ndarray, position: np.ndarray, b_star: int, n_positions: int
) -> np.ndarray:
    """Per set of ``counts`` (sets, cells): the first position whose running
    count of bad samples exceeds ``b_star``, the largest count that still
    rejects, or ``n_positions`` if none does. ``position[c]`` is the first
    position at which cell ``c``'s samples count as bad (n_positions = never).
    """
    order = np.argsort(position)
    running = counts[:, order]  # summed in place: the first k + 1 cells by position
    over = np.cumsum(running, axis=1, out=running) > b_star
    stop = np.where(over.any(axis=1), position[order][over.argmax(axis=1)], n_positions)
    return stop if b_star >= 0 else np.zeros_like(stop)  # no count is <= b* < 0


def tau_indices(
    counts: np.ndarray, first_k: np.ndarray, b_star: int, n_grid: int
) -> np.ndarray:
    """Selected grid index per set of ``counts`` (-1: none accepted): the
    fixed-grid ``stop_positions``, named apart so benchmark traces time it.
    ``first_k[c]`` is the first grid index at which cell ``c``'s samples count
    as exceedances (n_grid = never)."""
    return stop_positions(counts, first_k, b_star, n_grid) - 1
