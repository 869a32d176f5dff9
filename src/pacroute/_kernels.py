"""The hot replication kernels, vectorized in numpy.

``occupancy_counts`` takes a chunk of replications from seeds to occupancy
counts (calibration points per cell). A set's counts are Multinomial(n, cell
masses), drawn as a chain of conditional binomials (Devroye 1986): cell
``c`` takes N_c ~ Binomial(n - N_<c, m_c / (m_c + ... + m_last)), by
inverting uniform ``c`` through that binomial's CDF, and the last cell takes
what is left. So a set draws one uniform per cell but the last, whatever
``n``. The count is the number of entries of the CDF row that are <= the
uniform. Rows come from one routine (``_cdf``); a world's rows for every
remaining count 0..n are kept as a table per cell, the first cell included,
with a guide table over the uniform (Chen & Asau 1974) to start each search,
when the tables fit in TABLE_BYTES; a count the table cannot hold, or a cell
without a table, is searched in its own row (``_row_counts``).
``stop_positions`` applies the fixed-sequence stopping rule to counts, as a
running sum of the counts over the cells in position order; ``tau_indices``
is that rule on a fixed grid. ``cell_indices`` maps points of [0, 1] to
cells. Each works on a block of values at once and depends on nothing but
its inputs.

Replication ``r`` of stream ``s`` draws
``Generator(PCG64(SeedSequence(master_seed, spawn_key=(s, r)))).random(cols)``,
``cols = cells - 1``. ``uniform_columns`` recomputes exactly those bits
across replications: the ``SeedSequence`` pool mixing (O'Neill's seed_seq
design, as numpy implements it) in uint32 words, once per chunk
(``_pcg_states``), then the 128-bit PCG64 LCG with XSL-RR output (O'Neill
2014) in pairs of uint64 words, one column at a time. A chunk of few sets
on many cells cuts each set's columns into segments drawn side by side, each
segment's first state reached by jumping ahead, k LCG steps as one
multiply-add (Brown 1994), so that each numpy call spans up to CHUNK lanes.
``tests/test_seeding.py`` pins the columns, the multiply-add and the jump to
numpy or to Python ints bit for bit, and ``tests/test_kernels.py`` pins the
counts to a scalar chain over numpy's own generator.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["CHUNK", "active_backend", "cell_indices", "chain_counts", "occupancy_counts",
           "stop_positions", "tau_indices", "uniform_columns"]

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

# a CDF row sums the binomial terms within its window: a tail past the window
# on either side holds at most exp(-WINDOW_LOG) (Bernstein's inequality)
WINDOW_LOG = 40.0

# a cell's table keeps the columns of its rows up to the count that Binomial(n,
# p) exceeds with probability about TABLE_TAIL; a larger count is searched in
# its row. At 2^-20 the tables of a 1000-cell world at n = 100 take 7.0 MiB,
# 8.9 MiB at 2^-30
TABLE_TAIL = 2.0**-20

# the most entries of CDF rows ``_row_counts`` computes in one call
ROW_BLOCK = 2**18

# the most bytes one world's cell tables may take together
TABLE_BYTES = 8 * 2**20


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


# mixed by hand, though numpy's SeedSequence(master_seed, spawn_key=(stream,)).pool is this
# pool and INIT_A * MULT_A**(4 * entropy words) mod 2**32 this constant: `import pacroute.cli`
# loads no numpy.random, whose first use costs 8.5 ms (2 vCPUs) in every audit and demo
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


def uniform_columns(state: tuple, cols: int) -> np.ndarray:
    """The (cols, sets) uniforms that PCG64 states ``state`` (from
    ``_pcg_states``, one set each) draw: row ``j`` holds column ``j`` of
    every set, ``Generator(PCG64(SeedSequence(master_seed, spawn_key=(stream,
    start+i)))).random(cols)[j]`` for set ``i``, bit for bit.

    A chunk of fewer than CHUNK sets cuts each set's columns into
    ``CHUNK // sets`` segments (at most one per column) of ``seg_cols`` columns,
    drawn whole side by side from their first states (``_segment_starts``) so
    that every step spans up to CHUNK lanes, then cut at ``cols``."""
    sets = len(state[0])
    segments = max(1, min(cols, CHUNK // sets))
    seg_cols = -(-cols // segments)
    segments = -(-cols // seg_cols) if cols else 1
    hi, lo, inc_hi, inc_lo = _segment_starts(*state, seg_cols, segments)
    out = np.empty((seg_cols, segments, sets))  # [j, k]: column k * seg_cols + j
    for j in range(seg_cols):
        hi, lo = _mul_add(hi, lo, _PCG_MULT, inc_hi, inc_lo)
        _uniforms(hi, lo, out=out[j].reshape(-1))
    return out.transpose(1, 0, 2).reshape(-1, sets)[:cols]


def _jump(hi, lo, inc_hi, inc_lo, steps: int):
    """The states (hi, lo) ``steps`` LCG steps on: s*a + inc*c, by ``_lcg_power``."""
    a, c = _lcg_power(steps)
    return _mul_add(hi, lo, _halves(a), *_mul_add(inc_hi, inc_lo, _halves(c), 0, 0))


def cell_indices(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cell index of each point of [0, 1]: the number of cell right ``edges``
    but the last <= x, so the last cell takes x = 1."""
    return np.searchsorted(edges[:-1], x, side="right")


_LOG_FACTORIALS = np.zeros(1)  # log(i!) for i = 0, 1, ...; grown on demand


def _log_factorials(n: int) -> np.ndarray:
    """log(i!) by ``math.lgamma`` for i = 0..n at least, kept for later calls."""
    global _LOG_FACTORIALS
    if len(_LOG_FACTORIALS) <= n:
        _LOG_FACTORIALS = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    return _LOG_FACTORIALS


def _window(r, p):
    """``(lo, hi)``: the counts of Binomial(r, p) whose terms a CDF row sums.
    Each tail past them holds at most exp(-WINDOW_LOG) by Bernstein's
    inequality, P(|X - rp| >= s) <= exp(-s²/(2(rp(1-p) + s/3))) on each side."""
    s = WINDOW_LOG / 3.0 + np.sqrt(WINDOW_LOG**2 / 9.0 + 2.0 * WINDOW_LOG * r * p * (1.0 - p))
    return (np.maximum(np.floor(r * p - s), 0.0).astype(np.intp),
            np.minimum(np.ceil(r * p + s), r).astype(np.intp))


def _cdf(r: np.ndarray, k: np.ndarray, p) -> np.ndarray:
    """P(Binomial(r, p) <= k), 0 < p < 1, for int arrays ``r`` (rows, 1) and
    ``k`` (1, cols) and ``p`` of shape (rows, 1), ``k`` a run of counts that
    starts at or below each row's window: 0 below the window, the running sum
    of its log-space terms in it, and 1 from min(hi + 1, r) on. A row's
    entries do not depend on the columns or rows asked for with it, so a
    table and a lone row agree bit for bit."""
    lo, hi = _window(r, p)
    lf = _log_factorials(int(r.max()))
    j = np.clip(k, lo, hi)  # terms outside the window are computed at its edge, then dropped
    terms = np.exp(lf[r] - lf[j] - lf[r - j] + (j * np.log(p) + (r - j) * np.log1p(-p)))
    cdf = np.cumsum(np.where((k >= lo) & (k <= hi), terms, 0.0), axis=1)
    return np.where(k < np.minimum(hi + 1, r), cdf, 1.0)


def _row_counts(r: np.ndarray, u: np.ndarray, p: float) -> np.ndarray:
    """The count each uniform ``u`` draws from its own row ``r``: the entries
    of that row <= u. Each distinct row is computed once, over its window,
    up to ROW_BLOCK entries a call."""
    rows, at = np.unique(r, return_inverse=True)
    order = np.argsort(at, kind="stable")
    ends = np.searchsorted(at[order], np.arange(len(rows) + 1))
    lo, hi = _window(rows, p)
    top = np.maximum(np.minimum(hi + 1, rows), lo)  # each row's entries below 1 end here
    per_call = max(1, ROW_BLOCK // int((top - lo).max() + 1))
    out = np.empty(len(r), dtype=np.intp)
    for first in range(0, len(rows), per_call):
        block = slice(first, first + per_call)
        k = np.arange(lo[block].min(), top[block].max())
        cdf = _cdf(rows[block, None], k[None], np.full((len(rows[block]), 1), p))
        for i, row in enumerate(cdf, first):
            sets = order[ends[i]:ends[i + 1]]
            out[sets] = lo[block].min() + np.searchsorted(row, u[sets], side="right")
    return out


def _cdf_table(n: int, p: float, width: int):
    """``(table, guide, width, buckets)`` of one cell for remaining counts
    0..n, both flattened by rows. ``table[r, k]`` is P(Binomial(r, p) <= k)
    for k < ``width``, then 2.0, which ends each search. ``guide[r, b]``
    counts row ``r``'s entries <= b / buckets, ``buckets`` a power of 2 at
    least ``width``: the count a uniform of bucket ``b`` draws at least."""
    r = np.arange(n + 1)[:, None]
    table = np.full((n + 1, width + 1), 2.0)
    table[:, :width] = _cdf(r, np.arange(width)[None], np.full(r.shape, p))
    buckets = 1 << (width - 1).bit_length()
    # each entry's first bucket; a running sum may round past 1
    first = np.minimum(np.ceil(table[:, :width] * buckets), buckets).astype(np.intp)
    per_bucket = np.bincount((r * (buckets + 1) + first).ravel(),
                             minlength=(n + 1) * (buckets + 1))
    guide = np.cumsum(per_bucket.reshape(n + 1, buckets + 1), axis=1)[:, :buckets]
    return table.ravel(), guide.astype(np.uint8 if width < 256 else np.uint16).ravel(), width, buckets


@lru_cache(maxsize=8)
def _chain(n: int, masses: tuple, tables: bool = True) -> list:
    """``(p, table)`` for each cell but the last: the probability that one of
    the points left falls in the cell, m_c / (m_c + ... + m_last) (0 when
    nothing is left), and the cell's ``_cdf_table``, or None where p is 0 or
    1, the world's tables would pass TABLE_BYTES or ``tables`` is false. A
    table keeps the counts up to the first whose entry in row ``n`` is at
    least 1 - TABLE_TAIL."""
    m = np.asarray(masses, dtype=float)
    rest = np.cumsum(m[::-1])[::-1]  # the mass of each cell and the cells after it
    probs = np.divide(m, rest, out=np.zeros_like(m), where=rest > 0.0)[:-1].tolist()
    budget, links = TABLE_BYTES if tables else 0, []
    for p in probs:
        table = None
        if 0.0 < p < 1.0 and (n + 1) * 17 <= budget:  # the least a table takes
            lo, hi = _window(n, p)  # row n from its window's start
            row = _cdf(np.array([[n]]), np.arange(lo, hi + 1)[None], np.array([[p]]))
            width = int(lo + np.count_nonzero(row < 1.0 - TABLE_TAIL)) + 1
            buckets = 1 << (width - 1).bit_length()
            budget -= (n + 1) * ((width + 1) * 8 + buckets * (1 if width < 256 else 2))
            if budget >= 0:
                table = _cdf_table(n, p, width)
        links.append((p, table))
    return links


def chain_counts(n: int, masses, u: np.ndarray, tables: bool = True) -> np.ndarray:
    """The (cells, sets) occupancy counts of ``n`` points over cells of
    ``masses`` that the (cells - 1, sets) uniforms ``u`` draw: cell ``c``
    takes the number of entries of its CDF row for the points left that are
    <= ``u[c]``, and the last cell takes what is left. Each count is searched
    in its cell's table, or in its own row where there is none; ``tables``
    false builds none, for callers whose few sets would not repay a table's
    n + 1 rows."""
    sets = u.shape[1]
    counts = np.empty((len(masses), sets), dtype=np.intp)
    left = np.full(sets, n, dtype=np.intp)
    for c, (p, table) in enumerate(_chain(n, tuple(masses), tables)):
        uc = u[c]
        if p == 0.0 or p == 1.0:
            k = left.copy() if p else np.zeros(sets, dtype=np.intp)
        elif table is None:
            k = _row_counts(left, uc, p)
        else:
            flat, guide, width, buckets = table
            row = left * (width + 1)
            at = row + guide.take(left * buckets + (uc * buckets).astype(np.intp))
            at += flat.take(at) <= uc  # the next entry, often in the uniform's bucket
            step = np.nonzero(flat.take(at) <= uc)[0]
            while step.size:  # two or more entries of the bucket below the uniform
                at[step] += 1
                step = step[flat.take(at[step]) <= uc[step]]
            k = at - row
            if k.max() == width:  # a count the table cannot hold
                past = np.nonzero(k == width)[0]
                k[past] = _row_counts(left[past], uc[past], p)
        counts[c] = k
        left -= k
    counts[-1] = left
    return counts


def occupancy_counts(
    master_seed: int, stream: int, replications: int, cols: int, n: int, masses, *,
    start: int = 0,
) -> np.ndarray:
    """Occupancy counts (replications, cells) of ``n`` points over cells of
    ``masses``: replication ``start + i`` draws its ``cols = cells - 1``
    uniforms (``uniform_columns``) and ``chain_counts`` inverts them. The
    working set is the chunk's (cols, replications) uniforms and counts,
    whatever ``n``."""
    if cols != len(masses) - 1:
        raise ValueError(f"a set draws one uniform per cell but the last: {len(masses) - 1}, "
                         f"not {cols}")
    u = uniform_columns(_pcg_states(master_seed, stream, replications, start), cols)
    return chain_counts(n, masses, u).T


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
