"""The package's lazy boundary: `import hallforge` runs the Ringel-Hall core
(errors, linalg, quivers, reps, hall) and nothing else, and every exported
name still resolves to the object its module defines.  `import hallforge.cli`
adds the cache, and the derived layer (algebra, complexes, scalars) runs only
when a command that reads it does.
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


DERIVED = ("algebra", "complexes", "scalars")
# The modules __init__ registers unexecuted, its _LAZY table.
UNEXECUTED = DERIVED + ("cache",)

# Records the hallforge modules whose body has run, through the interpreter's
# "exec" audit event, which fires once per module body executed.
_RAN_HOOK = """
import json, sys
from pathlib import Path
ran = set()

def hook(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        path = Path(args[0].co_filename)
        if path.parent.name == "hallforge":
            ran.add(path.stem)

sys.addaudithook(hook)
"""


def _run_probe(probe: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("HALLFORGE_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", _RAN_HOOK + probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_ringel_hall_commands_run_no_derived_code():
    probe = f"""
import contextlib, io
import hallforge.cli as cli
derived = set({DERIVED!r})
steps = [["import", sorted(ran & derived)]]
for argv in (["classes", "--max-dim", "3"], ["hall", "--max-dim", "3"],
             ["green", "--max-dim", "2"], ["gamma", "--max-dim", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv[0], code, sorted(ran & derived)])
import hallforge
steps.append(["check_period", hallforge.check_period.__module__, sorted(ran & derived)])
print(json.dumps(steps))
"""
    assert _run_probe(probe) == [["import", []], ["classes", 0, []], ["hall", 0, []],
                                 ["green", 0, []], ["gamma", 0, []],
                                 ["check_period", "hallforge.quivers", []]]


@pytest.mark.parametrize("argv", [
    ["dha-mul", "--t", "1", "--lhs", "[k1@0]", "--rhs", "[k1@0]"],
    ["dha-assoc", "--t", "3", "--max-dim", "1"],
    ["relations", "--max-dim", "1"],
    ["crosscheck", "--t", "1", "--max-dim", "1"],
], ids=lambda argv: argv[0])
def test_derived_commands_load_their_layers_when_they_run(argv):
    probe = f"""
import contextlib, io
import hallforge.cli as cli
derived = set({DERIVED!r})
before = sorted(ran & derived)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main({argv!r})
report = json.loads(out.getvalue())
print(json.dumps([before, code, report["command"], sorted(ran & derived)]))
"""
    assert _run_probe(probe) == [[], 0, argv[0], sorted(DERIVED)]


def test_importing_the_package_loads_only_the_core():
    # The lazy modules are in sys.modules and bound on the package, but their
    # bodies have not run: each is still an importlib.util._LazyModule (type()
    # reads no attribute, so it does not trigger the load).
    probe = f"""
import importlib, importlib.util
import hallforge
ran_on_import = sorted(ran - {{"__init__"}})
loaded = sorted(m for m in sys.modules if m.startswith("hallforge."))
unexecuted = sorted(m for m in {UNEXECUTED!r}
                    if type(sys.modules["hallforge." + m]) is importlib.util._LazyModule
                    and getattr(hallforge, m) is sys.modules["hallforge." + m])
listed = set(hallforge.__all__) <= set(dir(hallforge))
modules = all(getattr(hallforge, m) is importlib.import_module("hallforge." + m)
              for m in {UNEXECUTED!r})
homes = {_homes()!r}
differ = [name for name in hallforge.__all__ if name != "__version__"
          and getattr(hallforge, name)
          is not getattr(importlib.import_module("hallforge." + homes[name]), name)]
try:
    hallforge.no_such_name
    unknown = "resolved"
except AttributeError as e:
    unknown = str(e)
print(json.dumps([ran_on_import, loaded, unexecuted, listed, modules, differ, unknown]))
"""
    ran_on_import, loaded, unexecuted, listed, modules, differ, unknown = _run_probe(probe)
    assert ran_on_import == sorted(CORE)
    assert loaded == sorted(f"hallforge.{m}" for m in CORE + UNEXECUTED)
    assert unexecuted == sorted(UNEXECUTED)
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
