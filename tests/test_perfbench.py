import importlib
import runpy
import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]

# seams perfbench/spans.py still names but no module defines: each reads 0
KNOWN_DEAD = {
    ("pacroute.simulate", "make_perturbation"),
    ("pacroute.simulate", "select_threshold"),
    ("pacroute.calibrate", "empirical_exceedances"),
}


def test_benchmark_selftest_passes():
    # runs every benchmark workload at tiny sizes, untraced and traced; it
    # also pins the layer seams, e.g. that `_kernels.tau_indices` runs once
    # per chunk on fixed-grid walks and never on auto-grid ones
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_seams_resolve():
    # the tracer skips a seam it cannot find, so a renamed seam would read 0
    # unnoticed; run_path reads spans.py without writing bytecode beside it
    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
    missing = {(mod, attr) for mod, attr, *_ in spans["SEAMS"] + spans["COUNTED"]
               if not hasattr(importlib.import_module(mod), attr)}
    assert missing <= KNOWN_DEAD
