"""Every name a hallforge module imports is used in that module, and
__init__ exports exactly the names it imports.

No linter runs on this tree, so a deletion could leave an import behind that
nothing reads.  __init__ imports names only to export them, so its imports
are checked against __all__ instead.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hallforge"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _unused_imports(tree) == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nprint(loads)\n")
    assert _unused_imports(tree) == ["os (line 1)", "dumps (line 2)"]


def test_all_is_exactly_what_init_imports():
    # __init__ writes each public name twice, in its imports and in __all__.
    tree = ast.parse((SRC / "__init__.py").read_text(), filename="__init__.py")
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"])
    assert len(exported) == len(set(exported))
    assert sorted(exported) == sorted(imported + ["__version__"])
