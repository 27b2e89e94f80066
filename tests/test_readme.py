"""README.md against the code.

Its `>>>` examples run as doctests, and it names every library name that
the acceptance battery imports, so the module map covers what the
battery relies on.
"""

import ast
import doctest
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
ACCEPTANCE = TESTS / "test_acceptance.py"


def python_examples(text):
    """The text inside each ```python block that holds a `>>>` prompt.
    Only the inside is parsed: a closing fence right after an expected
    output would otherwise be read as part of that output."""
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    return [block for block in blocks if ">>>" in block]


def run_examples(text):
    """doctest's (failed, attempted) over the README's examples."""
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(python_examples(text)):
        runner.run(parser.get_doctest(block, {}, f"README.md[{i}]", str(README), 0))
    return runner.summarize(verbose=False)


def acceptance_names():
    """The names test_acceptance.py imports from lensknots modules."""
    tree = ast.parse(ACCEPTANCE.read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "lensknots"
            for alias in node.names}


def test_readme_examples_run():
    failed, attempted = run_examples(README.read_text())
    assert failed == 0 and attempted >= 1, (failed, attempted)


def test_readme_names_what_the_acceptance_battery_imports():
    text = README.read_text()
    missing = sorted(name for name in acceptance_names()
                     if not re.search(rf"\b{re.escape(name)}\b", text))
    assert missing == []
