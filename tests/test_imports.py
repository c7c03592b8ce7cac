"""Dead-code guards: unused imports, unused parameters and unread fields.

No linter ships with the toolchain, so these stdlib ``ast`` scans stand in
for pyflakes' unused-import rule and for an unused-argument rule.  Every
name a module imports is referenced in it (``volldp/__init__.py`` is
exempt: its imports are the package's re-exports), and every parameter of
every function in ``src/volldp`` is read in its body, apart from the
receivers ``self`` and ``cls`` and the exemptions listed in ``_UNUSED_OK``.
Every field of a dataclass or ``NamedTuple`` in ``src/volldp`` is read
somewhere in ``src``, ``tests`` or ``bench``, apart from the exemptions
listed in ``_UNREAD_OK``, and so is every module-level function and class
of ``src/volldp`` outside ``__init__.py`` and every method and property of
its classes other than the dunders, apart from those listed in
``_UNREFERENCED_OK``.
"""

import ast
import collections
import fnmatch
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_MODULES = [
    path
    for path in sorted((_ROOT / "src" / "volldp").glob("*.py"))
    if path.name != "__init__.py"
] + sorted((_ROOT / "tests").glob("*.py"))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)

# Parameters a function takes without reading, by (module, qualified name);
# the name may end in '*'.  Each is fixed by a calling protocol.
_UNUSED_OK = {
    # abstract: every kernel family overrides it
    ("kernels.py", "VolterraKernel._raw"): {"t", "s"},
}

# Record fields nothing reads, by (module, class).
_UNREAD_OK = {}

# Module-level functions and classes, and methods ("Class.method"), nothing
# references, by (module, name), with the reason each stays.
_UNREFERENCED_OK = {}


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


def unused_parameters(source: str) -> list:
    """(qualified function name, parameter) for every parameter, other than
    ``self`` and ``cls``, that its function never loads.

    A parameter read only by a function nested inside counts as read.
    Lambdas are named ``<lambda>`` in their enclosing scope.
    """
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_SCOPES, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args,
                                          args.vararg, *args.kwonlyargs,
                                          args.kwarg) if a is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                loaded = {n.id for stmt in body for n in ast.walk(stmt)
                          if isinstance(n, ast.Name)}
                out.extend((name, p) for p in params
                           if p not in loaded and p not in ("self", "cls"))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def test_scan_finds_an_unused_parameter():
    source = (
        "def f(a, b, *args, c, **kw):\n    return a, kw\n"
        "class K:\n    def m(self, x):\n        def inner(y):\n"
        "            return x\n        return inner\n"
        "g = lambda u, v: u\n"
    )
    assert unused_parameters(source) == [
        ("f", "b"), ("f", "args"), ("f", "c"), ("K.m.inner", "y"),
        ("<lambda>", "v"),
    ]


def _exemption(module: str, name: str, param: str):
    """The key of ``_UNUSED_OK`` that allows ``param`` of ``name``, or None."""
    return next(
        (key for key, params in _UNUSED_OK.items()
         if key[0] == module and fnmatch.fnmatchcase(name, key[1])
         and param in params),
        None,
    )


_SRC = [path for path in _MODULES if path.parent.name == "volldp"]


@pytest.mark.parametrize("path", _SRC, ids=[p.name for p in _SRC])
def test_no_unused_parameters(path):
    found = unused_parameters(path.read_text(encoding="utf-8"))
    assert [(name, p) for name, p in found
            if _exemption(path.name, name, p) is None] == []


def test_unused_parameter_exemptions_are_all_needed():
    # an exemption that matches nothing has outlived its reason
    used = {
        _exemption(path.name, name, param)
        for path in _SRC
        for name, param in unused_parameters(path.read_text(encoding="utf-8"))
    }
    assert used - {None} == set(_UNUSED_OK)



def _callee(node) -> str | None:
    """The name a decorator, base or call refers to (``a.b(...)`` -> "b")."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def record_fields(source: str) -> list:
    """(class, field) for every field of a dataclass or ``NamedTuple``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                _callee(n) in ("dataclass", "NamedTuple")
                for n in node.decorator_list + node.bases):
            out.extend((node.name, stmt.target.id) for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign))
    return out


def field_reads(source: str) -> set:
    """Attribute names loaded in ``source``, and string constants given to
    ``getattr`` as the attribute."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and _callee(node) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def test_scan_finds_an_unread_field():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
        "    def f(self):\n        return self.x\n"
        "class B(NamedTuple):\n    u: int\n    v: int\n"
        "class C:\n    w: int\n"
        "b = B(1, v=2)\nb.u = 3\nprint(getattr(b, 'v'))\n"
    )
    assert record_fields(source) == [("A", "x"), ("A", "y"), ("B", "u"), ("B", "v")]
    assert field_reads(source) == {"x", "v"}


def test_every_record_field_is_read():
    readers = [path for folder in ("src/volldp", "tests", "bench")
               for path in (_ROOT / folder).glob("*.py")]
    reads = set().union(*(field_reads(p.read_text(encoding="utf-8")) for p in readers))
    unread = {(path.name, cls, name) for path in _SRC
              for cls, name in record_fields(path.read_text(encoding="utf-8"))
              if name not in reads}
    # equality: an exemption that matches nothing has outlived its reason
    assert unread == {(module, cls, name) for (module, cls), names
                      in _UNREAD_OK.items() for name in names}


def defined_names(source: str) -> list:
    """(name, node) for every function and class defined at module level,
    and ("Class.method", node) for every method and property of a class
    other than the dunders, which Python itself calls."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (*_SCOPES, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, _SCOPES)
                       and not (item.name.startswith("__")
                                and item.name.endswith("__")))
    return out


def references(tree) -> collections.Counter:
    """Names and attribute names loaded in ``tree``, and its string
    constants (a name given by string, as ``bench/tracer.py`` gives its
    targets), each with its count."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unreferenced(definitions: dict, readers: list) -> set:
    """(module, name) of every definition that nothing references outside
    its own body.

    ``definitions`` maps a module name to its source, ``readers`` lists the
    sources that may reference them (the defining modules among them).  A
    method counts as referenced by any load of its bare name, whatever the
    object it is loaded from.
    """
    total = sum((references(ast.parse(text)) for text in readers),
                collections.Counter())
    return {(module, name)
            for module, text in definitions.items()
            for name, node in defined_names(text)
            for bare in [name.rsplit(".", 1)[-1]]
            if total[bare] == references(node)[bare]}


def test_scan_finds_an_unreferenced_helper():
    source = (
        "def f(n):\n    return f(n - 1)\n"          # only calls itself
        "def g():\n    return 'h'\n"                # names h by string
        "def h():\n    pass\n"
        "class C:\n    def m(self) -> 'C':\n        return C()\n"
        "class D:\n    pass\n"
        "def k():\n    pass\n"
        "class E:\n"
        "    def __len__(self):\n        return 0\n"   # a dunder
        "    @property\n    def size(self):\n        return self.size\n"
        "    def used(self):\n        pass\n"
        "    def named(self):\n        pass\n"
        "    def own(self):\n        return self.own()\n"
    )
    other = (
        "import a\nprint(a.g, D, a.E().used)\n"
        "k = 1\n"                                    # k is stored, not loaded
        "getattr(x, 'named')\n"
    )
    assert unreferenced({"a.py": source}, [source, other]) == {
        ("a.py", "f"), ("a.py", "C"), ("a.py", "C.m"), ("a.py", "k"),
        ("a.py", "E.size"), ("a.py", "E.own")}


def test_every_helper_is_referenced():
    # this module is no reader: its exemption keys name the exempt helpers
    readers = [path.read_text(encoding="utf-8")
               for folder in ("src/volldp", "tests", "bench")
               for path in sorted((_ROOT / folder).glob("*.py"))
               if path != pathlib.Path(__file__).resolve()]
    found = unreferenced(
        {path.name: path.read_text(encoding="utf-8") for path in _SRC}, readers)
    # equality: an exemption that matches nothing has outlived its reason
    assert found == set(_UNREFERENCED_OK)
