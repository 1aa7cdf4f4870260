"""Static checks of the package sources: no module imports a name it
never uses, and no private top-level function, class or constant goes
unread by the whole package.

An import kept on purpose (a re-export, a name rebound from outside)
carries `# noqa` on the statement's first line or on the name's own line.
"""

import ast
from pathlib import Path

import amp_sheet

PACKAGE = Path(amp_sheet.__file__).resolve().parent


def unused_imports(source):
    """(line, name) of every name an import binds but the module never
    reads, skipping `from __future__` and lines marked `# noqa`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                marked = ("# noqa" in lines[node.lineno - 1]
                          or "# noqa" in lines[alias.lineno - 1])
                if not marked and alias.name != "*":
                    bound.append((alias.lineno, (alias.asname or alias.name).split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_scan_flags_an_unused_name():
    src = ("from .operators import (\n    Lifting,\n    Trajectory,\n)\n"
           "import numpy as np\nimport os.path\nfrom . import x  # noqa: F401\n"
           "t = Trajectory\n")
    assert unused_imports(src) == [(2, "Lifting"), (5, "np"), (6, "os")]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) >= 7
    assert {name: hits for name, hits in found.items() if hits} == {}


def private_definitions(source):
    """(line, name) of every private (single leading underscore) function,
    class or constant that the module defines at top level."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(node.lineno, n) for n in names
                  if n.startswith("_") and not n.startswith("__")]
    return found


def names_read(source):
    """Every name the module reads: loaded names, attribute names (a
    `module._name` read), and names it imports from elsewhere."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources):
    """{module: [(line, name)]} of the private top-level definitions that
    no module of `sources` ({module: source}) reads."""
    read = set().union(*map(names_read, sources.values()))
    found = {name: [(line, n) for line, n in private_definitions(src) if n not in read]
             for name, src in sources.items()}
    return {name: hits for name, hits in found.items() if hits}


def test_scan_flags_an_unread_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n_SEEN: int = 0\n__all__ = []\n"
                 "def _dead():\n    return _LIMIT\n"
                 "class _Used:\n    pass\n"
                 "def public():\n    return _Used\n"),
        "b.py": "from .a import _SEEN\nimport a\nx = a._missing\n",
    }
    assert unread_private_names(sources) == {"a.py": [(4, "_dead")]}


def test_every_private_definition_is_read():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == {}
