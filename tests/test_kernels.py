import subprocess
import sys
from pathlib import Path

import numpy as np

import pacroute
from pacroute._kernels import tau_indices

from conftest import child_env


def _random_inputs(rng, replications):
    n_cells = int(rng.integers(2, 9))
    n = int(rng.integers(1, 40))
    n_grid = int(rng.integers(1, 7))
    masses = rng.random(n_cells)
    masses /= masses.sum()
    cdf = np.cumsum(masses)
    u = rng.random((replications, n))
    first_k = rng.integers(0, n_grid + 1, n_cells).astype(np.int64)
    b_star = int(rng.integers(-1, n + 1))
    return u, cdf, first_k, b_star, n_grid


def test_numpy_kernel_hand_case():
    # 2 cells, cell 1 counts from grid index 0; reject while count <= 1
    cdf = np.array([0.5, 1.0])
    first_k = np.array([2, 0], dtype=np.int64)
    u = np.array(
        [
            [0.1, 0.2, 0.3],  # no counting samples: both grid points rejected
            [0.6, 0.2, 0.3],  # one counting sample: still rejected
            [0.6, 0.7, 0.3],  # two counting samples: stop immediately
        ]
    )
    out = tau_indices(u, cdf, first_k, 1, 2)
    assert list(out) == [1, 1, -1]


def test_worker_count_does_not_change_output():
    rng = np.random.default_rng(99)
    u, cdf, first_k, b_star, n_grid = _random_inputs(rng, 257)
    ref = tau_indices(u, cdf, first_k, b_star, n_grid, workers=1)
    for workers in (2, 3, 8):
        out = tau_indices(u, cdf, first_k, b_star, n_grid, workers=workers)
        assert np.array_equal(ref, out)


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

