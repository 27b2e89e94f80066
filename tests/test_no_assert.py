"""The library behaves the same under `python -O`.

`python -O` changes a program in three ways: it strips `assert`
statements, it sets `__debug__` to False (dropping `if __debug__:`
blocks), and it sets `sys.flags.optimize`.  This walks the syntax tree of
every module in src/lensknots and rejects all three: any `assert`
statement, the name or attribute `__debug__`, any `.flags` attribute (so
`sys.flags` under any alias) and `from sys import flags`.

The standard modules the library uses (argparse, json, dataclasses, enum,
re, traceback, concurrent.futures) read no `__debug__` either.  So a
plain-mode test that sees exactly `ValueError`, or exit code 2, shows the
`-O` behaviour as well, and the validation tests run in-process.
`test_verify_under_python_O` in test_cli.py keeps one real `-O` run.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lensknots"
MODULES = sorted(SRC.glob("*.py"))


def debug_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node, "assert statement"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node, "name __debug__"
        elif isinstance(node, ast.Attribute) and node.attr in ("__debug__", "flags"):
            yield node, f"attribute .{node.attr}"
        elif (isinstance(node, ast.ImportFrom) and node.module == "sys"
              and any(alias.name == "flags" for alias in node.names)):
            yield node, "import of sys.flags"


@pytest.mark.parametrize("code", [
    "assert x",
    "assert x, 'message'",
    "if __debug__: check()",
    "y = builtins.__debug__",
    "import sys; level = sys.flags.optimize",
    "import sys as s; level = s.flags.optimize",
    "from sys import flags",
])
def test_debug_dependence_caught(code):
    assert list(debug_uses(ast.parse(code)))


def test_plain_validation_passes():
    code = "if x < 0: raise ValueError('x must be >= 0')\ndebug = flags = 1"
    assert list(debug_uses(ast.parse(code))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_debug_dependence(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [f"{path.name}:{node.lineno} {what}" for node, what in debug_uses(tree)]
    assert hits == []
