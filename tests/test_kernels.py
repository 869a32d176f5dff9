import itertools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacroute
from pacroute import _kernels, calibrate
from pacroute._kernels import (cell_indices, chain_counts, occupancy_counts, stop_positions,
                               tau_indices)

from conftest import (child_env, joined_uniforms, make_distinct_scores, make_five_cell,
                      make_masses_short_of_one, make_three_cell, make_tied_scores, make_w1)
from oracles import chain_counts_scalar, exact_tail_row, generator_counts, stop_position_scan


def test_numpy_kernel_hand_case():
    # 2 cells, cell 1 counts from grid index 0; reject while count <= 1
    first_k = np.array([2, 0], dtype=np.int64)
    counts = np.array(
        [
            [3, 0],  # no counting samples: both grid points rejected
            [2, 1],  # one counting sample: still rejected
            [1, 2],  # two counting samples: stop immediately
        ]
    )
    out = tau_indices(counts, first_k, 1, 2)
    assert list(out) == [1, 1, -1]


@st.composite
def walk_counts(draw):
    """(counts, position, b_star, n_positions): up to 6 sets over up to 8
    cells, positions with ties and n_positions ("never"), b_star in -1..n."""
    cells, n_positions = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    n = draw(st.integers(0, 12))
    position = draw(st.lists(st.integers(0, n_positions), min_size=cells, max_size=cells))
    counts = draw(st.lists(st.lists(st.integers(0, n), min_size=cells, max_size=cells),
                           min_size=1, max_size=6))
    return np.array(counts), np.array(position), draw(st.integers(-1, n)), n_positions


@settings(max_examples=300, deadline=None)
@given(walk_counts())
def test_stop_positions_match_per_set_scan(case):
    counts, position, b_star, n_positions = case
    expected = [stop_position_scan(row, position.tolist(), b_star, n_positions)
                for row in counts.tolist()]
    assert stop_positions(counts, position, b_star, n_positions).tolist() == expected


WORLDS = {"2_cells": make_w1, "16_cells": lambda: make_distinct_scores(16),
          "zero_mass_cell": make_five_cell, "tied_scores": make_tied_scores,
          "short_of_one": make_masses_short_of_one}

SETS = [1, 8, 64, 300, _kernels.CHUNK - 1, _kernels.CHUNK]


@pytest.fixture
def fresh_tables():
    """Clear the cached chains before and after a test that moves the table
    settings, so no chain built under one setting serves another."""
    _kernels._chain.cache_clear()
    yield
    _kernels._chain.cache_clear()


def _counts(w, n, sets, master_seed=5, stream=1, start=9):
    return occupancy_counts(master_seed, stream, sets, w.n_cells - 1, n, w.masses, start=start)


@given(sets=st.sampled_from(SETS), n=st.sampled_from([1, 2, 5, 100, 1000]),
       back=st.integers(0, 64), near_top=st.booleans(),
       master_seed=st.integers(0, 2**64), stream=st.sampled_from([0, 1, 2]),
       world=st.sampled_from(sorted(WORLDS)))
@settings(max_examples=40, deadline=None)
def test_occupancy_counts_match_numpy_generator(sets, n, back, near_top, master_seed, stream,
                                                world):
    # the chain over numpy's own Generator, one set at a time, each count
    # searched in its own row: the same counts, bit for bit, whatever the
    # chunk size, its segments or the tables; near_top puts the last
    # replication index within 64 of 2**32 - 1
    w = WORLDS[world]()
    start = 2**32 - sets - back if near_top else back
    counts = _counts(w, n, sets, master_seed, stream, start)
    assert counts.shape == (sets, w.n_cells) and (counts.sum(axis=1) == n).all()
    check = np.random.default_rng(master_seed).choice(sets, min(sets, 40), replace=False)
    for i in check.tolist():  # the reference is slow: a sample of the sets
        want = generator_counts(w, n, 1, master_seed, stream, start + i)[0]
        assert counts[i].tolist() == want.tolist(), i


def test_a_cell_of_zero_mass_takes_no_point():
    w = make_five_cell()  # cell 1 has mass 0
    counts = _counts(w, 100, 2000)
    assert not counts[:, 1].any()
    assert (counts[:, [0, 2, 3, 4]] > 0).all()


# calibration sizes, each beside its two neighbours
NS = [15, 16, 17, 95, 96, 97]


# test_draw: the reference draws one column past the cells - 1 that a set
# counts, as sample_calibration goes on to draw its points' positions, so a
# set's counts are checked not to depend on the columns after them
@pytest.mark.parametrize("extra", [0, 1], ids=["calibration", "test_draw"])
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("make_world", [make_w1, lambda: make_distinct_scores(16)],
                         ids=["2_cells", "16_cells"])
def test_occupancy_counts_match_per_column_histogram(make_world, n, extra):
    # column c of a set's uniforms gives cell c's count, as the scalar chain
    # inverts it; and the counts are the histogram over cells of the points
    # that sample_calibration places from the same seed
    w = make_world()
    cols = w.n_cells - 1
    counts = _counts(w, n, 37)
    u = joined_uniforms(5, 1, 37, cols + extra, start=9)
    assert counts.tolist() == [chain_counts_scalar(n, w.masses, row[:cols]) for row in u]
    for i, want in enumerate(counts):
        d = pacroute.sample_calibration(w, n, np.random.SeedSequence(5, spawn_key=(1, 9 + i)))
        assert np.bincount(cell_indices(w.rights, d.xs), minlength=w.n_cells).tolist() \
            == want.tolist(), i


def _dyadic_world(weights):
    """Cells of equal width and mass ``weights`` / their sum, a power of 2,
    so that the masses of any cells sum exactly."""
    total = sum(weights)
    assert total & (total - 1) == 0
    edges = np.linspace(0.0, 1.0, len(weights) + 1)
    return pacroute.CellWorld(
        cells=tuple(pacroute.Cell(float(edges[i]), float(edges[i + 1]), k / total, 0, i % 2,
                                  i / len(weights)) for i, k in enumerate(weights)),
        alphabet_size=2,
    )


WEIGHTS = [9, 3, 14, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 25, 17]  # 128


@pytest.mark.parametrize("search", [False, True], ids=["edge_passes", "search"])
@pytest.mark.parametrize("at_least", [1, 3, 9])
@pytest.mark.parametrize("n", NS)
def test_dropped_sets_keep_partial_counts_and_test_cells(monkeypatch, fresh_tables, n,
                                                         at_least, search):
    # uniform c belongs to cell c, so a set's counts of its first at_least
    # cells do not depend on the cells after them: merged into one cell,
    # those take the rest. The middle 100 of 300 sets, drawn on their own
    # in other segments, keep their counts: in chunks of 300, 900 or CHUNK
    # lanes a set's columns are drawn in 1 to 15 segments. search: no
    # tables, every count searched in its own row
    if search:
        monkeypatch.setattr(_kernels, "TABLE_BYTES", 0)
    w = _dyadic_world(WEIGHTS)
    merged = _dyadic_world(WEIGHTS[:at_least] + [sum(WEIGHTS[at_least:])])
    for lanes in (300, 900, _kernels.CHUNK):
        monkeypatch.setattr(_kernels, "CHUNK", lanes)
        full = occupancy_counts(4, 2, 300, w.n_cells - 1, n, w.masses, start=11)[100:200]
        kept = occupancy_counts(4, 2, 100, at_least, n, merged.masses, start=111)
        assert np.array_equal(kept[:, :at_least], full[:, :at_least]), lanes
        assert np.array_equal(kept[:, -1], full[:, at_least:].sum(axis=1)), lanes


def _table(n, p):
    """The ``_cdf_table`` row entries of a cell with probability p."""
    width = int(np.count_nonzero(_kernels._cdf(np.array([[n]]), np.arange(n + 1)[None],
                                               np.array([[p]])) < 1 - _kernels.TABLE_TAIL)) + 1
    flat, _, width, _ = _kernels._cdf_table(n, p, width)
    return flat.reshape(n + 1, width + 1)[:, :width]


def _edge_uniforms(cdf_of):
    """``(w, n, u, left)``: (2, sets) uniforms of a three-cell world at n = 40
    whose second row lies on (``cdf_of`` moves it off) entries of the second
    cell's table, in the row of the ``left`` points the first cell leaves."""
    w = make_masses_short_of_one() if cdf_of is None else make_three_cell()
    n = 40
    # cell 0's uniforms: one between each pair of its row's entries, so that
    # cell 0 takes each count j it can and leaves n - j to cell 1
    row0 = _kernels._cdf(np.array([[n]]), np.arange(n + 1)[None], np.array([[w.masses[0]]]))[0]
    below = np.concatenate(([0.0], row0[:-1]))
    takes = np.flatnonzero(below < row0)
    first = np.repeat((below[takes] + row0[takes]) / 2, 7)
    left = n - np.repeat(takes, 7)
    p = w.masses[1] / w.masses[1:].sum()
    u = (cdf_of or (lambda row: row))(_table(n, p)[left, np.arange(len(left)) % 7])
    return w, n, np.stack([first, np.clip(u, 0.0, np.nextafter(1.0, 0.0))]), left


def _first_cell_edge_uniforms(cdf_of):
    """``(w, n, u)``: (2, sets) uniforms of a three-cell world at n = 40 whose
    first row lies on (``cdf_of`` moves it off) the entries of row n of the
    first cell's table, and whose second row runs over (0, 1)."""
    w, n = make_three_cell(), 40
    first = np.clip(cdf_of(_table(n, w.masses[0])[n]), 0.0, np.nextafter(1.0, 0.0))
    return w, n, np.stack([first, (np.arange(len(first)) + 0.5) / len(first)])


@pytest.mark.parametrize("cell, cdf_of", [
    (1, lambda row: row),
    (1, lambda row: np.nextafter(row, 0.0)),
    (1, lambda row: np.nextafter(row, 1.0)),
    (1, None),
    (0, lambda row: row),
    (0, lambda row: np.nextafter(row, 0.0)),
    (0, lambda row: np.nextafter(row, 1.0)),
], ids=["on_draws", "ulp_below_draws", "ulp_above_draws", "short_of_one",
        "first_cell_on_draws", "first_cell_ulp_below_draws", "first_cell_ulp_above_draws"])
def test_occupancy_counts_at_exact_edges(cell, cdf_of):
    # a uniform on a CDF entry counts that entry (<=); one ulp below it does
    # not. The uniforms of ``cell`` are its table's entries themselves, so
    # the table's guided search is checked on its own edges: the second
    # cell's in the rows the first leaves, the first cell's in row n
    if cell:
        w, n, u, left = _edge_uniforms(cdf_of)
        assert np.array_equal(chain_counts(n, w.masses, u)[0], n - left)
    else:
        w, n, u = _first_cell_edge_uniforms(cdf_of)
    assert _kernels._chain(n, tuple(w.masses))[cell][1] is not None
    want = [chain_counts_scalar(n, w.masses, col) for col in u.T]
    assert chain_counts(n, w.masses, u).T.tolist() == want


@pytest.mark.parametrize("cdf_of", [
    lambda row: row,
    lambda row: np.nextafter(row, 0.0),
    None,
], ids=["on_draws", "ulp_below_draws", "short_of_one"])
def test_search_counting_matches_edge_passes(monkeypatch, fresh_tables, cdf_of):
    # the table's guided search passes the entries <= each uniform one edge
    # at a time; with no table each count is searched in its own row. On
    # uniforms on and one ulp below the table's entries both count alike
    w, n, u, _ = _edge_uniforms(cdf_of)
    assert _kernels._chain(n, tuple(w.masses))[1][1] is not None
    want = chain_counts(n, w.masses, u)
    monkeypatch.setattr(_kernels, "TABLE_BYTES", 0)
    _kernels._chain.cache_clear()
    assert _kernels._chain(n, tuple(w.masses))[1][1] is None
    assert np.array_equal(chain_counts(n, w.masses, u), want)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("world", ["2_cells", "zero_mass_cell", "tied_scores"])
def test_count_frequencies_match_the_multinomial_pmf(world, n):
    # every count vector at small n, against its exact probability: Pearson's
    # chi-square over the outcomes stays below its 0.999 quantile
    w, sets = WORLDS[world](), 40000
    counts = np.concatenate([_counts(w, n, 8192, 3, 0, s)[:min(8192, sets - s)]
                             for s in range(0, sets, 8192)])
    m = w.masses / w.masses.sum()
    seen = {}
    for row in map(tuple, counts.tolist()):
        seen[row] = seen.get(row, 0) + 1
    outcomes = [c for c in itertools.product(range(n + 1), repeat=w.n_cells) if sum(c) == n]
    probs = [math.factorial(n) * math.prod(q**k / math.factorial(k) for q, k in zip(m, c))
             for c in outcomes]
    assert set(seen) <= {c for c, q in zip(outcomes, probs) if q > 0}
    live = [(c, q) for c, q in zip(outcomes, probs) if q > 0]
    chi2 = sum((seen.get(c, 0) - sets * q)**2 / (sets * q) for c, q in live)
    dof = len(live) - 1
    assert chi2 < dof + 3.1 * math.sqrt(2 * dof) + 10


@pytest.mark.parametrize("n, make_world", [(10**4, lambda: make_distinct_scores(16)),
                                           (100, lambda: make_distinct_scores(300))],
                         ids=["n_10000_16_cells", "n_100_300_cells"])
def test_counts_pass_a_chi_square_bound_at_large_n_and_many_cells(n, make_world):
    # the cell totals over R sets are Multinomial(R n, masses); and each
    # cell's counts are Binomial(n, m_c), so their spread is n m_c (1 - m_c)
    w = make_world()
    sets = 4096
    counts = _counts(w, n, sets, 11, 0, 0)
    m = w.masses / w.masses.sum()
    total = counts.sum(axis=0)
    chi2 = ((total - sets * n * m)**2 / (sets * n * m)).sum()
    dof = w.n_cells - 1
    assert chi2 < dof + 4 * math.sqrt(2 * dof)
    var = counts.var(axis=0) / (n * m * (1 - m))
    assert abs(var.mean() - 1.0) < 4 * math.sqrt(2.0 / sets / w.n_cells) + 0.02


@pytest.mark.parametrize("n", [1, 2, 7, 40, 100, 300])
@pytest.mark.parametrize("p", [1e-3, 0.05, 0.2, 0.5, 0.9, 1 - 1e-6])
def test_cdf_rows_match_the_exact_tail(n, p):
    # rows of a table, against the exact rational tail
    rows = _kernels._cdf(np.arange(n + 1)[:, None], np.arange(n + 1)[None],
                         np.full((n + 1, 1), p))
    for r in sorted({0, 1, n // 3, n - 1, n}):  # the exact tails are slow
        want = exact_tail_row(r, p) + [1.0] * (n - r)
        assert np.allclose(rows[r], want, rtol=0.0, atol=1e-12), r


@pytest.mark.parametrize("world", ["2_cells", "16_cells", "zero_mass_cell"])
def test_table_search_and_row_search_give_equal_counts(world, monkeypatch, fresh_tables):
    # with no table every count is searched in its own row, as at large n
    w = WORLDS[world]()
    want = _counts(w, 100, 3000)
    monkeypatch.setattr(_kernels, "TABLE_BYTES", 0)
    _kernels._chain.cache_clear()
    assert all(table is None for _, table in _kernels._chain(100, tuple(w.masses)))
    assert np.array_equal(_counts(w, 100, 3000), want)


def test_sample_calibration_builds_no_table(monkeypatch, fresh_tables):
    # one set searches each count in its own row: building a world's tables,
    # n + 1 rows each, would cost it many times its draw
    def no_table(*args):
        raise AssertionError("a table was built for one set")
    monkeypatch.setattr(_kernels, "_cdf_table", no_table)
    d = pacroute.sample_calibration(make_distinct_scores(16), 1000, 3)
    assert len(d.xs) == 1000


def test_counts_past_the_table_are_searched_in_their_row(monkeypatch, fresh_tables):
    # narrow tables that end at each cell's median: about half the counts
    # are read past them, in their rows
    w = make_distinct_scores(16)
    want = generator_counts(w, 100, 50, 5, 1, 9)
    monkeypatch.setattr(_kernels, "TABLE_TAIL", 0.5)
    assert np.array_equal(_counts(w, 100, 50), want)


def test_tables_stay_within_their_bytes(monkeypatch, fresh_tables):
    # a world's tables together take at most TABLE_BYTES; the cells past it
    # go without, and their counts are searched in their rows
    w = make_distinct_scores(300)
    want = generator_counts(w, 100, 20, 5, 1, 9)
    monkeypatch.setattr(_kernels, "TABLE_BYTES", 2**20)
    tables = [table for _, table in _kernels._chain(100, tuple(w.masses))]
    assert sum(t[0].nbytes + t[1].nbytes for t in tables if t) <= 2**20
    assert tables[1] is not None and tables[-1] is None
    assert np.array_equal(_counts(w, 100, 20), want)


def test_few_sets_at_max_n_hold_little_memory():
    # 8 sets at n = 10**6 on 16 cells: one row per set and cell, no table
    w = make_distinct_scores(16)
    _kernels._log_factorials(10**6)  # kept for the run: 8 MB, before the count
    tracemalloc.start()
    try:
        occupancy_counts(3, 0, 8, 15, 10**6, w.masses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_few_sets_at_max_n_take_a_chunk_of_lanes(monkeypatch):
    # 8 sets on 2049 cells draw their 2048 columns in 1024 segments of 2,
    # side by side: each PCG64 step spans CHUNK lanes, whatever n
    w = make_distinct_scores(2049)
    lanes, uniforms = [], _kernels._uniforms
    monkeypatch.setattr(_kernels, "_uniforms",
                        lambda hi, lo, out=None: (lanes.append(len(hi)), uniforms(hi, lo, out))[1])
    counts = occupancy_counts(3, 0, 8, 2048, 10**6, w.masses)
    assert lanes == [_kernels.CHUNK] * 2
    assert np.array_equal(counts[:2], generator_counts(w, 10**6, 2, 3, 0))


@pytest.mark.parametrize("sets", [1, 8])
def test_byte_counts_hold_a_full_tile_of_every_segment(monkeypatch, sets):
    # in chunks of 4 * sets lanes each set's 15 columns are cut into
    # segments of 4, 4, 4 and 3, drawn side by side; every column of every
    # segment, the shorter last one too, is numpy's. At n = 10**4 each
    # count is far past a byte, so a count cut to one would show
    w = make_distinct_scores(16)
    monkeypatch.setattr(_kernels, "CHUNK", 4 * sets)
    counts = occupancy_counts(6, 0, sets, 15, 10**4, w.masses)
    assert counts.min() > 255
    assert np.array_equal(counts, generator_counts(w, 10**4, sets, 6, 0))


@pytest.mark.parametrize("grid", [(0.5, 0.95), None], ids=["fixed", "auto"])
@pytest.mark.parametrize("sets, n", [(8, 40000), (300, 1000), (_kernels.CHUNK, 100)])
def test_settled_sets_select_as_if_fully_drawn(sets, n, grid):
    # a set's occupancy counts settle its threshold: the walk over a chunk's
    # counts selects for each set what select_threshold selects on the set's
    # points as sample_calibration draws them. On the tied-score world the
    # bad mass at or below 0.5 is 0.05, and alpha puts its test 3 standard
    # errors above that, so the sets split between two thresholds
    w, loss = make_tied_scores(), pacroute.LossSpec(kind="zero_one", epsilon=0.0)
    pac = pacroute.PacConfig(epsilon=0.0, alpha=0.06 + 3 * math.sqrt(0.0475 / n),
                             delta_split=0.01, threshold_grid=grid)
    counts = occupancy_counts(3, 0, sets, w.n_cells - 1, n, w.masses)
    taus = calibrate._select(pac, calibrate._walk(w, loss, pac, n, "calibrated"), counts)
    assert len(np.unique(taus)) >= 2
    for tau in np.unique(taus).tolist():  # up to 12 sets of each threshold
        for i in np.flatnonzero(taus == tau)[:12].tolist():
            d = pacroute.sample_calibration(w, n, np.random.SeedSequence(3, spawn_key=(0, i)))
            assert calibrate.select_threshold(d, w, loss, pac).tau_hat == tau, i


def test_cols_must_be_one_per_cell_but_the_last():
    with pytest.raises(ValueError, match="one uniform per cell but the last"):
        occupancy_counts(3, 0, 8, 2, 100, make_w1().masses)


def test_numpy_fallback_runs_without_numba():
    # import the package in a subprocess with numba blocked
    code = (
        "import sys; sys.modules['numba'] = None\n"
        "import pacroute\n"
        "import numpy as np\n"
        "w = pacroute.load_world('configs/w1.json')\n"
        "loss = pacroute.LossSpec(kind='zero_one', epsilon=0.0)\n"
        "pac = pacroute.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05,"
        " threshold_grid=(0.5, 0.95))\n"
        "est, se = pacroute.mc_joint_risk(w, loss, pac, 50, 3, 20)\n"
        "print(pacroute.__file__)\n"
        "print(est, se)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parents[1]),
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # the child must have imported the copy under test, not an installed one
    child_file = proc.stdout.splitlines()[0]
    assert Path(child_file).resolve() == Path(pacroute.__file__).resolve()

