"""The package's lazy boundary: `import hallforge` loads the Ringel-Hall core
(errors, linalg, quivers, reps, hall) and nothing else, and every exported
name still resolves to the object its module defines.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = ("errors", "linalg", "quivers", "reps", "hall")
LAZY = ("algebra", "complexes", "scalars", "cache", "cli")


def _homes() -> dict[str, str]:
    """Each name __init__ exports -> the module it comes from, read from __init__'s
    eager imports and its lazy table."""
    tree = ast.parse((SRC / "hallforge" / "__init__.py").read_text())
    homes = {alias.asname or alias.name: node.module for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names}
    lazy = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_LAZY"])
    homes.update((name, module) for module, names in lazy.items() for name in names)
    return homes


def test_importing_the_package_loads_only_the_core():
    probe = f"""
import importlib, json, sys
import hallforge
loaded = sorted(m for m in sys.modules if m.startswith("hallforge."))
listed = set(hallforge.__all__) <= set(dir(hallforge))
modules = all(getattr(hallforge, m) is importlib.import_module("hallforge." + m)
              for m in ("algebra", "cache", "complexes", "scalars"))
homes = {_homes()!r}
differ = [name for name in hallforge.__all__ if name != "__version__"
          and getattr(hallforge, name)
          is not getattr(importlib.import_module("hallforge." + homes[name]), name)]
try:
    hallforge.no_such_name
    unknown = "resolved"
except AttributeError as e:
    unknown = str(e)
print(json.dumps([loaded, listed, modules, differ, unknown]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded, listed, modules, differ, unknown = json.loads(proc.stdout)
    assert loaded == sorted(f"hallforge.{m}" for m in CORE)
    assert listed and modules
    assert differ == []
    assert unknown == "module 'hallforge' has no attribute 'no_such_name'"


@pytest.mark.parametrize("module", CORE)
def test_the_core_imports_nothing_lazy(module):
    tree = ast.parse((SRC / "hallforge" / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 1:
                imported.add(base.split(".")[0])
                if not base:
                    imported.update(alias.name for alias in node.names)
            elif base.startswith("hallforge."):
                imported.add(base.split(".")[1])
            elif base == "hallforge":
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith("hallforge."))
    assert not imported & set(LAZY), f"{module} imports {sorted(imported & set(LAZY))}"
