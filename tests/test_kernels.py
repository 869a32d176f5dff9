import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacroute
from pacroute._kernels import (
    TILE_COLS,
    cell_indices,
    occupancy_counts,
    stop_positions,
    tau_indices,
)

from conftest import child_env, joined_uniforms, make_distinct_scores, make_w1
from oracles import stop_position_scan


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


# n at, one below and one past a tile edge: with a test draw, column n then
# ends a tile, starts a new one, or sits second in one
TILE_EDGE_NS = [k * TILE_COLS + d for k in (1, 6) for d in (-1, 0, 1)]


def _per_column_histogram(cdf, master_seed, stream, replications, n, test_draw, start):
    u = joined_uniforms(master_seed, stream, replications, n + test_draw, start=start)
    counts = [np.bincount(cell_indices(cdf, row[:n]), minlength=len(cdf)) for row in u]
    return np.array(counts), cell_indices(cdf, u[:, n]) if test_draw else None


@pytest.mark.parametrize("test_draw", [False, True], ids=["calibration", "test_draw"])
@pytest.mark.parametrize("n", TILE_EDGE_NS)
@pytest.mark.parametrize("make_world", [make_w1, lambda: make_distinct_scores(16)],
                         ids=["2_cells", "16_cells"])
def test_occupancy_counts_match_per_column_histogram(make_world, n, test_draw):
    cdf = make_world().mass_cdf
    counts, test_cells = occupancy_counts(5, 1, 37, n + test_draw, cdf, start=9,
                                          test_draw=test_draw)
    want_counts, want_cells = _per_column_histogram(cdf, 5, 1, 37, n, test_draw, 9)
    assert counts.shape == (37, len(cdf))
    assert np.array_equal(counts, want_counts)
    if test_draw:
        assert np.array_equal(test_cells, want_cells)
    else:
        assert test_cells is None


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
    cdf = cdf_of(joined_uniforms(8, 0, 64, n + 1))
    counts, test_cells = occupancy_counts(8, 0, 64, n + 1, cdf, test_draw=True)
    want_counts, want_cells = _per_column_histogram(cdf, 8, 0, 64, n, True, 0)
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(test_cells, want_cells)


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

