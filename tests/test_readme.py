"""README.md against the code.

Its `>>>` examples run as doctests, and the module map of its Library
overview is the public surface: it names every public top-level
function, class and constant of src/lensknots, and every name it gives
exists.
"""

import doctest
import importlib
import re
from pathlib import Path

from test_imports_used import MODULES, parse, public_defs

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


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


def module_map(text):
    """{module: names} of the Library overview's bullets.  A bullet opens
    with the code span `lensknots.<module>`, and each later code span in
    it begins with a name of that module, dotted for a member of a class,
    as `Slope.make` or `run(argv)`; a span that begins otherwise is kept
    whole, so it names nothing that exists."""
    section = text.split("\n## Library overview\n", 1)[1].split("\n## ", 1)[0]
    out = {}
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", section, re.M):
        head, *spans = re.findall(r"`([^`]+)`", bullet)
        names = [re.match(r"[A-Za-z_][\w.]*|.*", span).group() for span in spans]
        out[head.removeprefix("lensknots.")] = names
    return out


def resolves(module, dotted):
    """Whether each step of a dotted public name exists."""
    obj = module
    for part in dotted.split("."):
        if part.startswith("_") or not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_examples_run():
    failed, attempted = run_examples(README.read_text())
    assert failed == 0 and attempted >= 1, (failed, attempted)


def test_module_map_parses():
    text = ("# t\n\n## Library overview\n\n- `lensknots.a` - `f(x)`, `C.m` and\n"
            "  `K`; not `x^2` or `±1`.\n- `lensknots.b` - `g`.\n\n"
            "## Next\n\n- `lensknots.c`\n")
    assert module_map(text) == {"a": ["f", "C.m", "K", "x", "±1"], "b": ["g"]}


def test_readme_map_is_the_public_surface():
    names = module_map(README.read_text())
    unnamed, missing = [], []
    for path in MODULES:
        public = [name for name in public_defs(parse(path)) if "." not in name]
        named = names.pop(path.stem, [])
        unnamed += [f"{path.stem}.{name}" for name in public
                    if name not in {n.split(".")[0] for n in named}]
        if named:
            module = importlib.import_module(f"lensknots.{path.stem}")
            missing += [f"{path.stem}.{n}" for n in named if not resolves(module, n)]
    assert unnamed == [] and missing == [] and names == {}
