"""tools/code_lines.py, the counter behind the code-size and public-surface
figures, on modules whose every line and name is accounted for."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


class Shape:
    """Class docstring."""

    # a comment-only line
    def area(self):
        """Function docstring,
        also over two lines."""
        side = len(os.sep)
        """A string expression, not a docstring,
        over two lines."""
        return side * side
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    """Docstrings, blank lines and comment-only lines are skipped; a line
    with a trailing comment counts, and so does each line of a string that
    is not a docstring: import, class, def, side, the two string lines and
    return."""
    path = tmp_path / "shape.py"
    path.write_text(SOURCE)
    assert load_tool().code_lines(path) == 7


SURFACE = '''import os
from math import gcd as G

K = 1
_P = 2
A: int = 3
X, Y = 4, 5


def f():
    inner = 6


async def g():
    pass


def _h():
    pass


class C:
    M = 7

    def method(self):
        pass


class _D:
    pass


if os.sep:
    def k():
        pass
'''


def test_counts_public_top_level_names(tmp_path):
    """Functions and classes without a leading underscore, and the names
    a plain or annotated module-level assignment binds; a tuple target,
    an import, a class body, a function body and an `if` block add
    nothing."""
    path = tmp_path / "surface.py"
    path.write_text(SURFACE)
    assert load_tool().public_names(path) == (["f", "g", "C"], ["K", "A"])
