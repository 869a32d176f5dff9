import subprocess
import sys
from pathlib import Path

from conftest import child_env


def test_benchmark_selftest_passes():
    # runs every benchmark workload at tiny sizes, untraced and traced; it
    # also pins the layer seams, e.g. that `_kernels.tau_indices` runs once
    # per chunk on fixed-grid walks and never on auto-grid ones
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parents[1]),
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
