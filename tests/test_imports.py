"""Dead-code guards: unused imports, unused parameters, unread fields and
unreached definitions.

No linter ships with the toolchain, so these stdlib ``ast`` scans stand in
for pyflakes' unused-import rule and for an unused-argument rule.  Every
name a module imports is referenced in it (``volldp/__init__.py`` is
exempt: its imports are the package's re-exports), no function of
``src/volldp`` imports a module that ``import volldp`` has loaded already,
since such an import defers nothing, and every parameter of
every function in ``src/volldp`` is read in its body, apart from the
receivers ``self`` and ``cls`` and the exemptions listed in ``_UNUSED_OK``.
Every field of a dataclass or ``NamedTuple`` in ``src/volldp`` is read
somewhere in ``src``, ``tests`` or ``bench``, apart from the exemptions
listed in ``_UNREAD_OK``.

The package holds only what its users reach: every module-level function
and class of ``src/volldp`` outside ``__init__.py``, and every method and
property of its classes other than the dunders, is reached by name from a
command (``cli.main``), from ``selftest.run_selftest`` or from ``bench/``,
apart from those listed in ``_UNREACHED_OK``.  A use from a test does not
count: code that only tests call is a test reference and lives in
``tests/reference.py``.  Every name ``volldp/__init__.py`` re-exports is
reached or exempt too.
"""
import ast
import collections
import fnmatch
import os
import pathlib
import subprocess
import sys

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


def deferred_imports(source: str, package: str, loaded) -> list:
    """(function, module) for every import inside a function of a module of
    ``package`` from a module that ``loaded`` already holds.

    ``from m import a`` counts as an import of ``m``.
    """
    out = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, _SCOPES):
            continue
        for node in _own_nodes(scope):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = package.rsplit(".", node.level - 1)[0] if node.level else ""
                names = [".".join(filter(None, (base, node.module)))]
            else:
                continue
            out.extend((scope.name, name) for name in names if name in loaded)
    return out


def test_scan_finds_a_deferred_import():
    source = (
        "import json\n"
        "def f():\n    import json, numpy.linalg\n    import zlib\n"
        "    def g():\n        from . import x\n        from .a import y\n"
        "        from .b import z\n"
    )
    loaded = {"json", "numpy.linalg", "pkg", "pkg.a"}
    assert sorted(deferred_imports(source, "pkg", loaded)) == [
        ("f", "json"), ("f", "numpy.linalg"), ("g", "pkg"), ("g", "pkg.a")]


def test_no_import_defers_nothing():
    # the modules one fresh interpreter holds after the package import
    src = str(_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, volldp; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = set(done.stdout.split())
    assert [(path.name, *found) for path in _SRC
            for found in deferred_imports(path.read_text(encoding="utf-8"),
                                          "volldp", loaded)] == []


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(tree) -> list:
    """(name, node) for every function and class defined at module level,
    and ("Class.method", node) for every method and property of a class
    other than the dunders, which Python itself calls."""
    out = []
    for node in tree.body:
        if isinstance(node, (*_SCOPES, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, _SCOPES) and not _is_dunder(item.name))
    return out


def references(tree) -> set:
    """Names and attribute names loaded in ``tree``, and its string
    constants (a name given by string, as ``bench/tracer.py`` gives its
    targets)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreached(modules: dict, roots, readers: list) -> set:
    """(module, name) of every definition of ``modules`` that a walk by name
    from the definitions ``roots`` and the sources ``readers`` never reaches.

    ``modules`` maps a module name to its source.  Their module-level
    statements that define nothing run on import, so they are read too;
    an import is no use.  A definition is reached by a load of its bare
    name in anything read, whatever the object it is loaded from, and is
    then read itself: a function whole, a class apart from its methods
    other than the dunders, which are reached by their own names.
    """
    defs = collections.defaultdict(list)  # bare name -> (module, name, node)
    pending = [ast.parse(text) for text in readers]
    for module, text in modules.items():
        tree = ast.parse(text)
        for name, node in defined_names(tree):
            defs[name.rsplit(".", 1)[-1]].append((module, name, node))
        pending.extend(node for node in tree.body
                       if not isinstance(node, (*_SCOPES, ast.ClassDef)))
    missed = {entry[:2] for entries in defs.values() for entry in entries}

    def read(module, name, node):
        missed.discard((module, name))
        if isinstance(node, ast.ClassDef):
            pending.extend((*node.decorator_list, *node.bases, *node.keywords))
            pending.extend(item for item in node.body
                           if not isinstance(item, _SCOPES) or _is_dunder(item.name))
        else:
            pending.append(node)

    for entries in defs.values():
        for entry in entries:
            if entry[:2] in roots:
                read(*entry)
    while pending:
        for bare in references(pending.pop()):
            for entry in defs.pop(bare, ()):
                read(*entry)
    return missed


def test_scan_finds_an_unreached_helper():
    source = (
        "import os\n"
        "def main():\n    return run(C())\n"             # the root
        "def run(c):\n    return c.used()\n"
        "class C:\n"
        "    def __init__(self):\n        helper()\n"    # a dunder, read with C
        "    def used(self):\n        pass\n"
        "    def own(self):\n        return self.own()\n"
        "def helper():\n    pass\n"
        "def dead():\n    return gone()\n"               # unreached, so gone too
        "def gone():\n    pass\n"
        "def named():\n    pass\n"
        "def tabled():\n    pass\n"
        "TABLE = [tabled]\n"                              # runs on import
        "def stored():\n    pass\n"
    )
    bench = "from a import stored\nstored = 1\nTARGETS = ('named',)\n"
    assert unreached({"a.py": source}, [("a.py", "main")], [bench]) == {
        ("a.py", "C.own"), ("a.py", "dead"), ("a.py", "gone"), ("a.py", "stored")}


# Where a user enters the package: the console script and the selftest
# battery.  The benchmark (bench/) enters it too, by its imports and the
# tracer's target names, so its sources are read whole.
_ROOTS = (("cli.py", "main"), ("selftest.py", "run_selftest"))

# Definitions of src/volldp that nothing above reaches, by (module, name),
# with the reason each stays.
_UNREACHED_OK = {
    ("model.py", "validate_coefficients"):
        "the paper's hypotheses on the coefficients; ROADMAP item 11 wires "
        "it into the commands",
    ("model.py", "AssumptionCheck"): "one check of validate_coefficients",
    ("model.py", "ValidationReport"): "what validate_coefficients returns",
    ("model.py", "ValidationReport.all_passed"):
        "the verdict of validate_coefficients",
}


def _unreached_in_src() -> set:
    return unreached(
        {path.name: path.read_text(encoding="utf-8") for path in _SRC}, _ROOTS,
        [path.read_text(encoding="utf-8")
         for path in sorted((_ROOT / "bench").glob("*.py"))])


def test_every_definition_is_reached():
    # equality: an exemption that matches nothing has outlived its reason
    assert _unreached_in_src() == set(_UNREACHED_OK)


def reexports(source: str) -> set:
    """(module, name) of every name a package's ``__init__.py`` imports
    from one of its modules."""
    return {(f"{node.module}.py", alias.name) for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_scan_finds_an_unreached_reexport():
    source = ("def main():\n    return kept()\n"
              "def kept():\n    pass\ndef dead():\n    pass\n")
    init = "import sys\nfrom .a import kept, dead as alias\nfrom os import path\n"
    exported = reexports(init)
    assert exported == {("a.py", "kept"), ("a.py", "dead")}
    assert exported & unreached({"a.py": source}, [("a.py", "main")], []) == {
        ("a.py", "dead")}


def test_every_reexport_is_reached():
    # a name only tests use is not part of the package's API; equality: an
    # exempt re-export that is reached has outlived its exemption
    exported = reexports(
        (_ROOT / "src" / "volldp" / "__init__.py").read_text(encoding="utf-8"))
    assert exported & _unreached_in_src() == exported & set(_UNREACHED_OK)
