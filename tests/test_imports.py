"""Static check of the package sources: no module imports a name it never uses.

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
