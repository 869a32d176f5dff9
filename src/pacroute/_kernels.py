"""The hot replication kernels, vectorized in numpy.

``occupancy_counts`` takes a chunk of replications from seeds to occupancy
counts (calibration points per cell): ``uniform_tiles`` draws their uniforms
TILE_COLS columns at a time into one reused buffer, and each tile is counted
while it is in cache, so no chunk ever holds all its uniforms. A chunk of
few sets cuts each set's columns into segments drawn side by side, so every
numpy call spans up to CHUNK lanes whatever the set count. A caller's settle
rule lets it stop drawing the sets whose result is already fixed.
``stop_positions`` applies the fixed-sequence stopping rule to counts, as a
running sum of the counts over the cells in position order; ``tau_indices``
is that rule on a fixed grid. ``cell_indices`` maps uniforms (test inputs,
the sampler) and points of [0, 1] to cells. Each works on a block of values
at once and depends on nothing but its inputs.

Replication ``r`` of stream ``s`` is specified as
``Generator(PCG64(SeedSequence(master_seed, spawn_key=(s, r)))).random(cols)``.
``uniform_tiles`` is the one source of draws and recomputes exactly those
bits across replications: the ``SeedSequence`` pool mixing (O'Neill's
seed_seq design, as numpy implements it) in uint32 words, once per chunk
(``_pcg_states``), then the 128-bit PCG64 LCG with XSL-RR output (O'Neill
2014) in pairs of uint64 words, one column at a time. A segment's first
state and each set's test column are reached by jumping ahead, k LCG steps
as one multiply-add (Brown 1994). ``tests/test_seeding.py`` pins the tiles,
the multiply-add and the jump to numpy or to Python ints bit for bit, and
``tests/test_kernels.py`` pins the counts to numpy's own generator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CHUNK", "TILE_COLS", "active_backend", "cell_indices", "occupancy_counts",
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

# the PCG64 multiplier
_PCG_MULT_INT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 2.0**-53

# lanes stepped together: a chunk's replications, or a few replications'
# segments of columns; bounds the working memory
CHUNK = 8192

# columns drawn and counted together: one (TILE_COLS, lanes) buffer; at most
# 255, so that a lane's count in a tile fits in a byte
TILE_COLS = 16

# interior cell edges from which a tile is counted by a search per uniform,
# not by one pass per edge
SEARCH_EDGES = 64


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


def _halves(m: int) -> tuple:
    """A 128-bit multiplier as ``_mul_add`` takes it: its high and low uint64
    words, then the low word's two 32-bit limbs."""
    return tuple(np.uint64(v) for v in (m >> 64, m & (2**64 - 1), m & _MASK32,
                                        m >> 32 & _MASK32))


_PCG_MULT = _halves(_PCG_MULT_INT)


def _mul_add(hi, lo, mult: tuple, add_hi, add_lo):
    """x*mult + add mod 2**128 on uint64 halves, ``mult`` from ``_halves``; with
    the PCG64 multiplier and a state's increment, one LCG step. The high half
    is hi*m_lo + lo*m_hi + the high word of lo*m_lo, that word by the
    textbook chain of 32-bit products whose partial sums cannot overflow."""
    m_hi, m_lo, m_lo0, m_lo1 = mult
    lo0 = lo & _MASK32
    lo1 = lo >> 32
    t = lo0 * m_lo0
    t >>= 32
    cross = lo1 * m_lo0
    t += cross  # at most (2**32 - 1)**2 + 2**32 - 1 < 2**64
    w = t & _MASK32
    np.multiply(lo0, m_lo1, out=lo0)
    w += lo0  # likewise
    mulhi = lo1 * m_lo1
    t >>= 32
    mulhi += t
    w >>= 32
    mulhi += w
    new_hi = hi * m_lo
    np.multiply(lo, m_hi, out=cross)
    new_hi += cross
    new_hi += mulhi
    new_hi += add_hi
    new_lo = lo * m_lo
    new_lo += add_lo
    new_hi += new_lo < add_lo  # carry out of the low half
    return new_hi, new_lo


def _lcg_power(steps: int) -> tuple[int, int]:
    """``(a, c)`` such that ``steps`` PCG64 LCG steps take state s with
    increment i to s*a + i*c mod 2**128 (Brown 1994, arbitrary strides):
    a = M**steps and c = 1 + M + ... + M**(steps-1), which is
    (M**steps - 1)/(M - 1) with M**steps taken mod (M - 1)*2**128."""
    m = _PCG_MULT_INT
    return pow(m, steps, 2**128), (pow(m, steps, (m - 1) << 128) - 1) // (m - 1)


def _uniforms(hi, lo, out=None):
    """The doubles PCG64 outputs from states (hi, lo): XSL-RR (rotate hi^lo
    right by the state's top 6 bits), then the top 53 bits. A shift by 64
    gives 0 in numpy, so rotating by 0 keeps x."""
    x = hi ^ lo
    rot = hi >> 58
    right = x >> rot
    np.subtract(64, rot, out=rot)
    x <<= rot
    x |= right
    x >>= 11
    return np.multiply(x, _DOUBLE_UNIT, out=out)


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
    return (*_mul_add(hi, lo, _PCG_MULT, inc_hi, inc_lo), inc_hi, inc_lo)


def _segment_starts(hi, lo, inc_hi, inc_lo, seg_cols: int, segments: int):
    """The states ``(hi, lo, inc_hi, inc_lo)`` of ``segments`` segments of
    ``seg_cols`` columns per set: lane ``k * sets + i`` is set ``i``'s state
    ``k * seg_cols`` LCG steps on. Each ``_jump`` doubles the lanes, so
    ``segments`` segments take about log2(segments) jumps."""
    sets = len(hi)
    while len(hi) < segments * sets:
        k = len(hi) // sets
        far = min(k, segments - k) * sets  # the lanes this jump adds
        inc = np.tile(inc_hi, k)[:far], np.tile(inc_lo, k)[:far]
        far_hi, far_lo = _jump(hi[:far], lo[:far], *inc, k * seg_cols)
        hi, lo = np.concatenate((hi, far_hi)), np.concatenate((lo, far_lo))
    return hi, lo, np.tile(inc_hi, segments), np.tile(inc_lo, segments)


def uniform_tiles(state: tuple, cols: int, segments: int = 1):
    """Yield the uniforms that PCG64 states ``state`` (from ``_pcg_states``,
    one set each) draw, ``cols`` per set, in tiles.

    Each set's columns are cut into segments of ``seg_cols = ceil(cols /
    segments)`` columns, the last one shorter, and all segments are drawn
    together, each from its first state (``_segment_starts``). A tile is a
    (rows, lanes) view of one reused buffer, valid until the next tile is
    drawn: lane ``k * sets + i`` holds the next ``rows`` columns of set
    ``i``'s segment ``k``. The last segment ends first, and its lanes leave
    the end of the tiles. Put back in order, set ``i``'s column ``j`` is
    ``Generator(PCG64(SeedSequence(master_seed, spawn_key=(stream,
    start+i)))).random(cols)[j]`` bit for bit.

    ``send(keep)`` after a tile, a boolean mask over the tile's sets, drops
    the sets it does not keep from the later tiles.
    """
    if not cols:
        return
    seg_cols = -(-cols // segments)
    segments = -(-cols // seg_cols)
    last = cols - (segments - 1) * seg_cols  # columns in the last segment
    hi, lo, inc_hi, inc_lo = _segment_starts(*state, seg_cols, segments)
    sets = len(state[0])
    buf = np.empty(min(TILE_COLS, seg_cols) * len(hi))
    first = 0  # columns drawn of each segment still drawn
    while first < seg_cols:
        active = segments if first < last else segments - 1
        rows = min(TILE_COLS, (last if first < last else seg_cols) - first)
        lanes = active * sets
        hi, lo, inc_hi, inc_lo = hi[:lanes], lo[:lanes], inc_hi[:lanes], inc_lo[:lanes]
        tile = buf[:rows * lanes].reshape(rows, lanes)
        for row in tile:
            hi, lo = _mul_add(hi, lo, _PCG_MULT, inc_hi, inc_lo)
            _uniforms(hi, lo, out=row)
        first += rows
        keep = yield tile
        if keep is not None:  # a send: drop the sets it does not keep
            lanes_kept = np.tile(keep, active)
            hi, lo, inc_hi, inc_lo = (a[lanes_kept] for a in (hi, lo, inc_hi, inc_lo))
            sets = np.count_nonzero(keep)
            yield  # what the send returns


def _jump(hi, lo, inc_hi, inc_lo, steps: int):
    """The states (hi, lo) ``steps`` LCG steps on: s*a + inc*c, by ``_lcg_power``."""
    a, c = _lcg_power(steps)
    return _mul_add(hi, lo, _halves(a), *_mul_add(inc_hi, inc_lo, _halves(c), 0, 0))


def cell_indices(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Cell index of each value: the number of ``edges`` but the last <= u.
    Uniforms go through the cell-mass CDF (the last cell takes any past a last
    entry that rounds below 1), points through the cells' right edges."""
    return np.searchsorted(edges[:-1], u, side="right")


def occupancy_counts(
    master_seed: int, stream: int, replications: int, cols: int, cdf: np.ndarray, *,
    start: int = 0, test_draw: bool = False, settled=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Occupancy counts (replications, cells) of the replications' ``cols``
    columns, and with ``test_draw`` the ``cell_indices`` of each
    replication's last column, its test input, which the counts then leave
    out (else None).

    Cell ``c`` holds the uniforms below edge ``cdf[c]`` but not below
    ``cdf[c-1]``. The last cell takes everything at or above the last interior
    edge, so a uniform past a last CDF entry below 1 lands there too. The test
    column is ``_jump``ed to. ``uniform_tiles`` draws the calibration columns
    in ``CHUNK // replications`` segments per set (at least 1, at most one
    per column), so a tile spans at most CHUNK lanes, and more than CHUNK / 2
    whenever the columns allow, however few sets there are. Below
    SEARCH_EDGES interior edges a tile is counted below every edge, one pass
    per edge, summed in bytes over each lane's rows (at most TILE_COLS) and
    then over each set's segments; from there on a search per uniform and
    one histogram per tile are faster. The working set is one tile and the
    counts, whatever ``cols``.

    ``settled(counts)``, if given, marks the sets, of (cells, sets) counts
    over the columns drawn so far, whose result no later draw can change; a
    set it marks must stay marked as its counts grow, so that any subset of a
    set's columns that settles it settles it for good. Once it marks at least
    half of the sets still drawn, after a tile, those keep the counts they
    have and are drawn no more.
    """
    state = _pcg_states(master_seed, stream, replications, start)
    # the test column is cols LCG steps on from the seeded states
    test_cells = cell_indices(cdf, _uniforms(*_jump(*state, cols))) if test_draw else None
    n = cols - test_draw
    edges = cdf[:-1].tolist()
    counts = np.zeros((len(cdf), replications), dtype=np.intp)
    live, ids, drawn = counts, np.arange(replications), 0  # the sets still drawn
    tiles = uniform_tiles(state, n, min(n, CHUNK // replications) or 1)
    for tile in tiles:
        rows, lanes = tile.shape
        segments = lanes // len(ids)  # the segments still drawn
        drawn += rows * segments
        if len(edges) < SEARCH_EDGES:
            below = np.empty(len(ids), dtype=np.intp)  # each set's draws below an edge
            for c, edge in enumerate(edges):
                hits = np.less(tile, edge).view(np.uint8)
                per_lane = np.add.reduce(hits, axis=0, dtype=np.uint8)
                np.add.reduce(per_lane.reshape(segments, -1), axis=0, out=below)
                live[c] += below  # cell c: below edge c, less below edge c - 1
                live[c + 1] -= below
            live[-1] += rows * segments
        else:  # a search per uniform, then one histogram of (cell, set) pairs
            pairs = cell_indices(cdf, tile) * len(ids) + np.arange(lanes) % len(ids)
            live += np.bincount(pairs.ravel(), minlength=live.size).reshape(live.shape)
        if settled is None or drawn == n:
            continue
        done = settled(live)
        dropped = np.count_nonzero(done)
        if not dropped or 2 * dropped < len(ids):
            continue
        if live is not counts:
            counts[:, ids[done]] = live[:, done]
        tiles.send(~done)
        live, ids = live[:, ~done], ids[~done]
        if not len(ids):
            break
    if live is not counts:
        counts[:, ids] = live
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
