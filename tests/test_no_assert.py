"""The library behaves the same under `python -O`.

`python -O` changes a program in three ways: it strips `assert`
statements, it sets `__debug__` to False (dropping `if __debug__:`
blocks), and it sets `sys.flags.optimize`.  This walks the syntax tree of
every module in src/lensknots and rejects all three: any `assert`
statement, the name or attribute `__debug__`, any `.flags` attribute (so
`sys.flags` under any alias) and `from sys import flags`.

So the library's own code takes the same path under `-O`, and a
plain-mode test that sees exactly `ValueError`, or exit code 2, from a
rule of the library shows that rule's `-O` behaviour; the validation
tests run in-process.  That does not hold for the standard modules the
library uses.  They read no `__debug__`, but they do hold `assert`
statements, which `-O` strips: on Python 3.11.7, `argparse` 4 (two check
its usage wrapping), `dataclasses` 1, `traceback` 1,
`concurrent.futures.process` 3, and `re`'s parser and compiler 9.  A
plain run cannot show what those modules do without them, so CI runs the
whole suite under `python -O` on every Python it tests, and
`test_verify_under_python_O` in test_cli.py keeps one real `-O` run of
the CLI.
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
