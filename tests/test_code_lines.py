"""tools/code_lines.py, the counter behind the code-size figures, on a
module whose every line is accounted for."""

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
