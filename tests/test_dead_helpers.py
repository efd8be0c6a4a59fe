"""Every module-level function or class in hallforge that the package does not
export in __all__ is read somewhere in src/ outside its own definition.

A helper outside __all__, private or not, is no API: once the code that called
it goes, nothing does.  No linter runs on this tree, so a deletion could leave
such a helper behind; this check reads each module's AST and asks that the
helper's name appear as a Name or an Attribute in some other top-level
statement of src/.
"""
from __future__ import annotations

import ast
from pathlib import Path

from hallforge import __all__ as EXPORTED

SRC = Path(__file__).resolve().parent.parent / "src" / "hallforge"


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
