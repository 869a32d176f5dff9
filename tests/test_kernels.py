import subprocess
import sys
import tracemalloc
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacroute
from pacroute import _kernels, calibrate, simulate
from pacroute._kernels import (
    TILE_COLS,
    cell_indices,
    occupancy_counts,
    stop_positions,
    tau_indices,
)

from conftest import child_env, joined_uniforms, make_distinct_scores, make_w1
from oracles import stop_position_scan
from test_seeding import numpy_rows


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


# n at, one below and one past a tile edge
TILE_EDGE_NS = [k * TILE_COLS + d for k in (1, 6) for d in (-1, 0, 1)]


def _per_column_histogram(cdf, master_seed, stream, replications, n, start, cols=None):
    """Counts of the first ``n`` of ``cols`` (default ``n``) columns, drawn in one segment."""
    u = joined_uniforms(master_seed, stream, replications, cols or n, start=start)
    return np.array([np.bincount(cell_indices(cdf, row[:n]), minlength=len(cdf)) for row in u])


# test_draw: the reference draws a column past the n counted, so the counts
# of a set's first n columns are checked not to depend on what follows them
@pytest.mark.parametrize("extra", [0, 1], ids=["calibration", "test_draw"])
@pytest.mark.parametrize("n", TILE_EDGE_NS)
@pytest.mark.parametrize("make_world", [make_w1, lambda: make_distinct_scores(16)],
                         ids=["2_cells", "16_cells"])
def test_occupancy_counts_match_per_column_histogram(make_world, n, extra):
    cdf = make_world().mass_cdf
    counts = occupancy_counts(5, 1, 37, n, cdf, start=9)
    assert counts.shape == (37, len(cdf))
    assert np.array_equal(counts, _per_column_histogram(cdf, 5, 1, 37, n, 9, n + extra))


def _histograms(cells, n_cells):
    """(sets, n_cells) counts of each row of per-column cell indices."""
    offsets = np.arange(len(cells))[:, None] * n_cells
    return np.bincount((cells + offsets).ravel(),
                       minlength=len(cells) * n_cells).reshape(len(cells), n_cells)


def _numpy_counts(cdf, master_seed, stream, sets, cols, start):
    """Counts of numpy's own generator, one replication at a time: the
    determinism contract, counted by ``cell_indices``."""
    u = numpy_rows(master_seed, stream, sets, cols, start)
    return _histograms(cell_indices(cdf, u), len(cdf))


SETS = [1, 8, 64, 300, _kernels.CHUNK - 1, _kernels.CHUNK]


@st.composite
def count_cases(draw):
    """(sets, n, start): ``n`` one below, at or one past ``seg_cols`` columns
    in each of a chunk's segments, and ``seg_cols`` on both sides of a tile
    edge."""
    sets = draw(st.sampled_from(SETS))
    seg_cols = draw(st.sampled_from([1, 2, TILE_COLS - 1, TILE_COLS, TILE_COLS + 1,
                                     2 * TILE_COLS + 1]))
    n = max(0, seg_cols * (_kernels.CHUNK // sets) + draw(st.integers(-1, 1)))
    back = draw(st.integers(0, 64))
    start = 2**32 - sets - back if draw(st.booleans()) else back
    return sets, n, start


@given(case=count_cases(), search=st.booleans(),
       master_seed=st.integers(0, 2**64), stream=st.sampled_from([0, 1, 2]),
       make_world=st.sampled_from([make_w1, lambda: make_distinct_scores(16)]))
@settings(max_examples=40, deadline=None)
def test_occupancy_counts_match_numpy_generator(case, search, master_seed, stream, make_world):
    sets, n, start = case
    cdf = make_world().mass_cdf
    with mock.patch.object(_kernels, "SEARCH_EDGES", 0 if search else _kernels.SEARCH_EDGES):
        counts = occupancy_counts(master_seed, stream, sets, n, cdf, start=start)
    assert np.array_equal(counts, _numpy_counts(cdf, master_seed, stream, sets, n, start))


@pytest.mark.parametrize("sets", [1, 8])
def test_byte_counts_hold_a_full_tile_of_every_segment(sets):
    # one tile draws TILE_COLS columns in each of CHUNK // sets segments:
    # thousands of draws per set and cell, though each lane's count in the
    # tile fits in a byte. Totals alone would not show a count that wrapped
    cdf = make_w1().mass_cdf
    n = TILE_COLS * (_kernels.CHUNK // sets)
    counts = occupancy_counts(6, 0, sets, n, cdf)
    want = _numpy_counts(cdf, 6, 0, sets, n, 0)
    assert counts.min() > 255
    assert np.array_equal(counts, want)


def test_few_sets_at_max_n_take_a_chunk_of_lanes():
    # 8 sets at n = 10**6 draw in 1024 segments each, CHUNK lanes a tile
    tracemalloc.start()
    try:
        occupancy_counts(3, 0, 8, 10**6, make_distinct_scores(16).mass_cdf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _edges_on_draws(u):
    # 15 interior edges taken from the block's own draws, so uniforms sit
    # exactly on them; one is taken twice, a tied edge (an empty cell)
    picks = np.random.default_rng(0).choice(u.ravel(), 14, replace=False)
    return np.append(np.sort(np.append(picks, picks[0])), 1.0)


@pytest.mark.parametrize("cdf_of", [
    _edges_on_draws,
    lambda u: np.append(np.nextafter(_edges_on_draws(u)[:-1], 0.0), 1.0),
    lambda u: np.append(np.nextafter(_edges_on_draws(u)[:-1], 1.0), 1.0),
    lambda u: np.linspace(0.25, 0.5, 3),  # short of 1: the rest lands in the last cell
], ids=["on_draws", "ulp_below_draws", "ulp_above_draws", "short_of_one"])
def test_occupancy_counts_at_exact_edges(cdf_of):
    n = 2 * TILE_COLS + 3
    cdf = cdf_of(joined_uniforms(8, 0, 64, n))
    counts = occupancy_counts(8, 0, 64, n, cdf)
    assert np.array_equal(counts, _per_column_histogram(cdf, 8, 0, 64, n, 0))


@pytest.mark.parametrize("cdf_of", [
    _edges_on_draws,
    lambda u: np.append(np.nextafter(_edges_on_draws(u)[:-1], 0.0), 1.0),
    lambda u: np.linspace(0.25, 0.5, 3),
], ids=["on_draws", "ulp_below_draws", "short_of_one"])
def test_search_counting_matches_edge_passes(monkeypatch, cdf_of):
    # worlds of SEARCH_EDGES interior edges or more are counted by a search
    # per uniform; forced here on few cells, it must count alike
    n = 2 * TILE_COLS + 3
    cdf = cdf_of(joined_uniforms(8, 0, 64, n))
    want = occupancy_counts(8, 0, 64, n, cdf)
    monkeypatch.setattr(_kernels, "SEARCH_EDGES", 0)
    assert np.array_equal(occupancy_counts(8, 0, 64, n, cdf), want)


def _tile_ends(n, sets):
    """(seg_cols, ends): ``occupancy_counts`` draws each set's ``n``
    columns in segments of ``seg_cols`` columns, and after each
    tile every segment still drawn has drawn its first ``ends[i]``; the last
    segment is the shortest and ends first, on a tile edge of its own."""
    segments = max(1, min(n, _kernels.CHUNK // sets))
    seg_cols = -(-n // segments)
    last = n - (-(-n // seg_cols) - 1) * seg_cols
    ends = []
    while not ends or ends[-1] < seg_cols:
        end = ends[-1] if ends else 0
        ends.append(end + min(TILE_COLS, (last if end < last else seg_cols) - end))
    return seg_cols, ends


def _dropping_reference(cdf, u, n, at_least):
    """Counts of sets drawn tile by tile in segments of columns,
    where after each tile but the last the sets with ``at_least`` points in
    the last cell are dropped, keeping their counts over the columns drawn so
    far, once they are at least half of those left."""
    cells = cell_indices(cdf, u)
    seg_cols, ends = _tile_ends(n, len(u))
    live = np.ones(len(u), dtype=bool)
    counts = _histograms(cells, len(cdf))
    for end in ends[:-1]:
        partial = _histograms(cells[:, np.arange(n) % seg_cols < end], len(cdf))
        done = live & (partial[:, -1] >= at_least)
        if done.any() and 2 * done.sum() >= live.sum():
            counts[done] = partial[done]
            live &= ~done
    return counts


@pytest.mark.parametrize("search", [False, True], ids=["edge_passes", "search"])
@pytest.mark.parametrize("at_least", [1, 3, 9])
@pytest.mark.parametrize("n", TILE_EDGE_NS)
def test_dropped_sets_keep_partial_counts_and_test_cells(monkeypatch, n, at_least, search):
    # a settle rule that stays true as counts grow: points in the last cell.
    # 300 sets in lanes of 300 draw one segment each, so a set's columns so
    # far are a prefix; in 900 or CHUNK lanes, 3 or 27 segments each
    if search:
        monkeypatch.setattr(_kernels, "SEARCH_EDGES", 0)
    cdf = make_w1().mass_cdf
    u = joined_uniforms(4, 2, 300, n, start=11)
    for lanes in (300, 900, _kernels.CHUNK):
        monkeypatch.setattr(_kernels, "CHUNK", lanes)
        counts = occupancy_counts(4, 2, 300, n, cdf, start=11,
                                  settled=lambda c: c[-1] >= at_least)
        assert np.array_equal(counts, _dropping_reference(cdf, u, n, at_least)), lanes


@pytest.mark.parametrize("grid", [(0.5, 0.95), None], ids=["fixed", "auto"])
@pytest.mark.parametrize("sets, n", [(8, 40000), (300, 1000), (_kernels.CHUNK, 100)])
def test_settled_sets_select_as_if_fully_drawn(sets, n, grid):
    # a set the settle rule drops keeps counts over part of its columns,
    # whichever its segments drew, and selects the threshold all of them select.
    # On w1 at alpha 0.1 a set settles once its bad count passes b*, about
    # n / 10, and the bad cell takes 0.2 of the draws
    w, loss = make_w1(), pacroute.LossSpec(kind="zero_one", epsilon=0.0)
    pac = pacroute.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=grid)
    walk = calibrate._walk(w, loss, pac, n, "calibrated")
    settled = simulate._settle_rule(w, walk, grid is None)
    counts = occupancy_counts(3, 0, sets, n, w.mass_cdf, settled=settled)
    full = occupancy_counts(3, 0, sets, n, w.mass_cdf)
    assert (counts.sum(axis=1) < n).mean() >= 0.5  # most sets stopped early
    assert np.array_equal(calibrate._select(pac, walk, counts),
                          calibrate._select(pac, walk, full))


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

