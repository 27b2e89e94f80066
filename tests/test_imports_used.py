"""Every name a library module imports is used in that module.

Walks the syntax tree of every module in src/lensknots except
`__init__.py`, whose imports are the package's re-exports, and rejects an
imported name (the bound name, so `a` in `import a.b` and `y` in
`from x import z as y`) that no `Name` node of the module reads.
`from __future__` imports are compiler directives and are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lensknots"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert {"families.py", "surgery.py", "snf.py"} <= {m.name for m in MODULES}


def test_unused_import_is_caught():
    tree = ast.parse("import math\nfrom x import y as z, w\nprint(w)\n")
    assert unused_imports(tree) == [(1, "math"), (2, "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [f"{path.name}:{line} {name}" for line, name in unused_imports(tree)]
    assert hits == []
