"""The library computes with integers only.

Walks the syntax tree of every module in src/lensknots and rejects float
and complex literals, the names and attributes `inf` and `nan` (as in
`math.inf`), the name `float` (so `float("inf")` as well), true division
`/`, and any import of the `fractions` module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lensknots"
MODULES = sorted(SRC.glob("*.py"))


def float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, f"float literal {node.value!r}"
        elif isinstance(node, ast.Attribute) and node.attr in ("inf", "nan"):
            yield node, f"attribute .{node.attr}"
        elif isinstance(node, ast.Name) and node.id in ("float", "inf", "nan"):
            yield node, f"name {node.id}"
        elif isinstance(node, ast.alias) and node.name in ("inf", "nan", "fractions"):
            yield node, f"import of {node.name}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            yield node, "import from fractions"


@pytest.mark.parametrize("code", ["from fractions import Fraction",
                                  "import fractions", "import fractions as fr"])
def test_fractions_imports_caught(code):
    assert list(float_uses(ast.parse(code)))


def test_modules_found():
    assert {"families.py", "surgery.py", "snf.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [f"{path.name}:{getattr(node, 'lineno', '?')} {what}"
            for node, what in float_uses(tree)]
    assert hits == []
