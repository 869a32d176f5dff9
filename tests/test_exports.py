import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pacroute

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["pacroute"] + [f"pacroute.{m.name}" for m in pkgutil.iter_modules(pacroute.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_quickstart_runs():
    # the documented API cannot drift: run the block and check what its comments state
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Python quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=str(ROOT), env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["0.5", "0.2"]
