import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pacroute
from pacroute._kernels import cell_counts, cell_indices, stop_positions, tau_indices

from conftest import child_env
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


@st.composite
def cdf_and_uniforms(draw):
    """A cell-mass CDF of 1..64 cells (zero masses give tied edges; the last
    entry may fall short of 1) and an (n, sets) block of uniforms, some of
    them exactly on an edge or one ulp either side of it."""
    masses = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64)
                  .filter(lambda ms: sum(ms) > 0))
    cdf = np.cumsum(masses) / sum(masses) * draw(st.sampled_from([1.0, 0.999, 0.5]))
    n, sets = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
    edges = edges[edges < 1.0]
    uniform = st.floats(0.0, 1.0, exclude_max=True)
    u = draw(st.lists(st.one_of(uniform, st.sampled_from(edges.tolist())),
                      min_size=n * sets, max_size=n * sets))
    return cdf, np.array(u).reshape(n, sets)


@settings(max_examples=200, deadline=None)
@given(cdf_and_uniforms())
def test_cell_counts_match_per_column_histogram(case):
    cdf, u = case
    counts = cell_counts(cdf, u)
    expected = [np.bincount(cell_indices(cdf, col), minlength=len(cdf)) for col in u.T]
    assert counts.shape == (u.shape[1], len(cdf))
    assert np.array_equal(counts, expected)


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

