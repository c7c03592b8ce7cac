"""Dead-import guard: every name a module imports is referenced in it.

No linter ships with the toolchain, so this stdlib ``ast`` scan stands in
for pyflakes' unused-import rule.  ``volldp/__init__.py`` is exempt: its
imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_MODULES = [
    path
    for path in sorted((_ROOT / "src" / "volldp").glob("*.py"))
    if path.name != "__init__.py"
] + sorted((_ROOT / "tests").glob("*.py"))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """Nodes of ``scope`` outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    """Imported names never loaded in the scope of their import statement.

    A module-level import may be used anywhere in the module, an import
    inside a function only within that function.
    """
    tree = ast.parse(source)
    dead = set()
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, _SCOPES)]:
        imported = set()
        for node in _own_nodes(scope):
            if isinstance(node, ast.Import):
                imported.update(
                    alias.asname or alias.name.split(".")[0] for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        dead |= imported - used
    return sorted(dead)


def test_scan_finds_a_dead_import():
    source = (
        "import os\nimport sys.path\nfrom a import b as c, d\n"
        "def f():\n    import json\n    import re\n    return re, os\n"
        "def g():\n    return json, sys, d\n"
    )
    assert unused_imports(source) == ["c", "json"]


@pytest.mark.parametrize(
    "path", _MODULES, ids=[f"{p.parent.name}/{p.name}" for p in _MODULES]
)
def test_no_dead_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
