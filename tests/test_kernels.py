import subprocess
import sys
from pathlib import Path

import numpy as np

import pacroute
from pacroute._kernels import tau_indices

from conftest import child_env


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

