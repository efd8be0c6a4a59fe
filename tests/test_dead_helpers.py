"""Every module-level function or class in hallforge that the package does not
export in __all__ is read somewhere in src/ outside its own definition, and
every name it does export is read by the engine, the benchmark or the README.

A helper outside __all__, private or not, is no API: once the code that called
it goes, nothing does.  No linter runs on this tree, so a deletion could leave
such a helper behind; this check reads each module's AST and asks that the
helper's name appear as a Name or an Attribute in some other top-level
statement of src/.  An export is kept only while something outside the tests
reads it: src/ outside __init__.py, perfbench/ (the names it imports from
hallforge and the attribute paths its tracer wraps), or the README's Python
quick start; otherwise it is a second way in that only the tests take.
Within a class the same holds for each single-underscore method: it is no
API, so something in src/ outside the method itself must read it as an
attribute.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

from hallforge import __all__ as EXPORTED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hallforge"
# Exports no program reads: the README documents parse_scalar as the reader
# of printed scalars, and __version__ is metadata.
UNREAD_EXPORTS = ["__version__", "parse_scalar"]


def _unreferenced_helpers(trees: dict[str, ast.Module], exported) -> list[str]:
    statements = [(module, node) for module, tree in trees.items() for node in tree.body]
    refs = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
             if isinstance(n, (ast.Name, ast.Attribute))} for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name not in exported and not node.name.startswith("__")
                and not any(node.name in names for j, names in enumerate(refs) if j != i)):
            dead.append(f"{module}.{node.name}")
    return dead


def test_every_helper_outside_all_is_read():
    trees = {p.stem: ast.parse(p.read_text(), filename=p.name) for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_helpers(trees, EXPORTED) == []


def test_the_guard_sees_an_unread_helper():
    trees = {
        "a": ast.parse("def _used(): pass\n"
                       "def _recursive(n): return _recursive(n - 1)\n"
                       "class _Read: pass\n"
                       "class _Unread: pass\n"
                       "def public_unread(): pass\n"
                       "def public_read(): pass\n"
                       "def exported(): pass\n"
                       "def __getattr__(name): pass\n"
                       "handler = _used\n"),
        "b": ast.parse("import a\nprint(a._Read(), a.public_read())\n"),
    }
    assert _unreferenced_helpers(trees, {"exported"}) == [
        "a._recursive", "a._Unread", "a.public_unread"]


def _unread_private_methods(trees: dict[str, ast.Module]) -> list[str]:
    """module.Class.method for each single-underscore method of a class that
    no Attribute outside the method's own body names."""
    read = Counter(n.attr for tree in trees.values() for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute))
    dead = []
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name.startswith("_") and not node.name.startswith("__")
                        and read[node.name] == sum(isinstance(n, ast.Attribute)
                                                   and n.attr == node.name
                                                   for n in ast.walk(node))):
                    dead.append(f"{module}.{cls.name}.{node.name}")
    return dead


def test_every_private_method_is_read():
    trees = {p.stem: ast.parse(p.read_text(), filename=p.name) for p in sorted(SRC.glob("*.py"))}
    assert _unread_private_methods(trees) == []


def test_the_guard_sees_an_unread_private_method():
    trees = {
        "a": ast.parse("class C:\n"
                       "    def _used(self): return self._recursive(1)\n"
                       "    def _recursive(self, n): return self._recursive(n - 1)\n"
                       "    def _unread(self): pass\n"
                       "    def _loop(self): return self._loop()\n"
                       "    def __len__(self): return 0\n"
                       "    def public(self): pass\n"),
        "b": ast.parse("import a\nprint(a.C()._used())\n"),
    }
    assert _unread_private_methods(trees) == ["a.C._unread", "a.C._loop"]


def _reads(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded Names, Attributes and names imported
    from hallforge, each top-level statement apart from the name it defines."""
    out: set[str] = set()
    for node in tree.body:
        names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                 if isinstance(n, ast.Attribute)
                 or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        names.update(alias.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                     and (n.module or "").startswith("hallforge") for alias in n.names)
        out |= names - {getattr(node, "name", None)}
    return out


def _layer_reads(tree: ast.Module) -> set[str]:
    """Every component of the attribute paths in a tracer's LAYERS table."""
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    return {part for _, path, _ in layers for part in path.split(".")}


def _unread_exports(exported, read_by: list[set[str]]) -> list[str]:
    return sorted(set(exported).difference(*read_by))


def test_every_export_is_read_outside_the_tests():
    src = [_reads(ast.parse(p.read_text(), filename=p.name))
           for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    bench = [_reads(ast.parse(p.read_text(), filename=p.name))
             for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    layers = _layer_reads(ast.parse((ROOT / "perfbench" / "tracing.py").read_text()))
    readme = (ROOT / "README.md").read_text()
    quick_start = re.search(r"## Python quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    read_by = [*src, *bench, layers, _reads(ast.parse(quick_start))]
    assert _unread_exports(EXPORTED, read_by) == UNREAD_EXPORTS


def test_the_export_guard_sees_an_unread_export():
    engine = ast.parse("def used(): pass\n"
                       "def recursive(n): return recursive(n - 1)\n"
                       "def caller(): return used() + m.attr\n"
                       "unread_constant = 1\n")
    bench = ast.parse("from hallforge.x import imported\nLAYERS = (('x', 'Cls.method', 'x'),)\n")
    read_by = [_reads(engine), _reads(bench), _layer_reads(bench)]
    assert _unread_exports({"used", "recursive", "attr", "imported", "Cls", "unread_constant"},
                           read_by) == ["recursive", "unread_constant"]
