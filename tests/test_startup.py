"""What ``import pacroute`` does at start-up, each case in a fresh interpreter.

numpy's OpenBLAS is loaded with one thread, since pacroute makes no BLAS
call, unless the caller set a thread count or imported numpy first; either
way the environment is left as it was.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import child_env

# the variables OpenBLAS reads its thread count from when it loads
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "OPENBLAS_DEFAULT_NUM_THREADS")

# runs IMPORTS and prints the environment before and after them, the
# environment a child process then sees, and this process's thread count
PROBE = """\
import json, os, subprocess, sys
before = dict(os.environ)
{imports}
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
seen = subprocess.run([sys.executable, "-c", "import json, os; print(json.dumps(dict(os.environ)))"],
                      capture_output=True, text=True, check=True).stdout
print(json.dumps({{"before": before, "after": dict(os.environ), "child": json.loads(seen),
                  "tasks": tasks}}))
"""

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in /proc/self/task")


def _start(imports: str, **preset: str) -> dict:
    """PROBE's record, run with none of BLAS_THREADS set but ``preset``."""
    env = {k: v for k, v in child_env().items() if k not in BLAS_THREADS}
    proc = subprocess.run([sys.executable, "-c", PROBE.format(imports=imports)],
                          capture_output=True, text=True, env={**env, **preset})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_leaves_the_environment_as_it_was():
    record = _start("import pacroute.cli")
    assert record["after"] == record["before"]
    assert record["child"] == record["before"]


@needs_proc
def test_import_starts_no_blas_thread_pool():
    if _start("import numpy")["tasks"] == 1:
        pytest.skip("plain `import numpy` starts no OpenBLAS pool here (one CPU)")
    assert _start("import pacroute.cli")["tasks"] == 1


@needs_proc
@pytest.mark.parametrize("name", BLAS_THREADS)
def test_preset_blas_thread_count_is_kept_and_honoured(name):
    record = _start("import pacroute.cli", **{name: "2"})
    assert record["after"] == record["before"]
    assert record["after"][name] == "2"
    assert record["tasks"] == _start("import numpy", **{name: "2"})["tasks"]


@needs_proc
def test_numpy_imported_first_is_left_alone():
    record = _start("import numpy\nimport pacroute.cli")
    assert record["after"] == record["before"]
    assert record["tasks"] == _start("import numpy")["tasks"]
