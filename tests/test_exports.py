import ast
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

# exports kept with no caller yet, each with the reason
NO_CALLER_YET = {"tv_single": "ROADMAP item 7: the `certify` command's exact TV"}


def _quickstart() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Python quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)


def _used_names(source: str) -> set[str]:
    """Names the code imports, or loads as a bare name or an attribute."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_export_has_a_caller():
    # an export that only tests reach is a second spelling of what runs; the
    # callers that count are the package's own modules (its re-exports in
    # __init__ aside), the benchmark and the README quickstart
    package = Path(pacroute.__file__).parent
    sources = [f.read_text(encoding="utf-8") for f in sorted(package.glob("*.py"))
               if f.name != "__init__.py"]
    sources += [f.read_text(encoding="utf-8") for f in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*map(_used_names, sources + [_quickstart()]))
    uncalled = [f"{name}.{n}" for name in MODULES
                for n in getattr(importlib.import_module(name), "__all__", ())
                if n not in used and n not in NO_CALLER_YET]
    assert uncalled == []


def test_readme_quickstart_runs():
    # the documented API cannot drift: run the block and check what its comments state
    proc = subprocess.run([sys.executable, "-c", _quickstart()], capture_output=True, text=True,
                          cwd=str(ROOT), env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["0.5", "0.2"]
