"""Every name the benchmark's tracer wraps or imports must exist in hallforge.

perfbench/tracing.py is read from its file, not imported.  A refactor that
deletes or renames a traced function fails here instead of breaking
`perfbench/run.py --trace 1`.
"""
from __future__ import annotations

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    # Compiled from its source, so nothing is written next to it.
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _ in _load_tracing().LAYERS])
def test_traced_layer_resolves(module, path):
    # Tracer.install looks the last part up in its owner's own __dict__.
    owner = importlib.import_module(f"hallforge.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"hallforge.{module}.{path} is gone"


@pytest.mark.parametrize("module,attr", [
    ("reps", "_arrows_vertex_disjoint"),   # hall_number and ensure_enumerated hooks
    ("hall", "closed_subspace_tuples"),    # the wrapped generator
    ("cache", "cache_path"),               # the load_cache hook
])
def test_traced_helper_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"hallforge.{module}"), attr))


def test_importing_the_cli_imports_every_traced_module():
    # Tracer.install imports hallforge.cli, then wraps functions in the
    # hallforge modules already in sys.modules; a module the CLI imported
    # lazily would be missing there, and its callers would run unwrapped.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    modules = sorted({module for module, _, _ in _load_tracing().LAYERS})
    probe = ("import sys, hallforge.cli; "
             f"print(*[m for m in {modules!r} if 'hallforge.' + m not in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_state_the_hooks_read_exists():
    # The boundary hooks read engine state directly: ensure_enumerated's
    # reg._classes, aut_count's reg._aut, hall_number's reg._memos and
    # multiply_graded's DerivedHall._mul.  A renamed attribute would make a
    # hook raise, or silently count every call as a first call.
    from hallforge.algebra import DerivedHall
    from hallforge.quivers import line_quiver
    from hallforge.reps import ClassRegistry
    reg = ClassRegistry(line_quiver(2), 2)
    for attr in ("_classes", "_aut", "_memos"):
        assert isinstance(getattr(reg, attr), dict), attr
    assert isinstance(DerivedHall(reg, 1)._mul, dict)


def test_the_cache_hooks_call_their_functions_positionally(tmp_path, monkeypatch):
    # perfbench/tracing.py's load_cache hook reads args[1] as t and calls
    # cache_path(reg.quiver, reg.p, t); save_cache(reg, t) is called the same way.
    from hallforge.cache import CACHE_ENV_VAR, cache_path, load_cache, save_cache
    from hallforge.quivers import line_quiver
    from hallforge.reps import ClassRegistry
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    reg = ClassRegistry(line_quiver(2), 2)
    reg.classes((1, 1))
    path = save_cache(reg, 1)
    assert path == cache_path(reg.quiver, reg.p, 1) and path.parent == tmp_path
    assert load_cache(ClassRegistry(line_quiver(2), 2), 1) is True
