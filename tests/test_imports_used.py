"""Every name a library module imports is used, and every public name has a
reader outside the tests.

Imports: walks the syntax tree of every module in src/lensknots, and
rejects an imported name (the bound name, so `a` in `import a.b` and `y`
in `from x import z as y`) that no `Name` node of the module reads.
`from __future__` imports are compiler directives and are skipped.
`__init__.py` re-exports nothing, so it is walked like the rest and any
import added to it fails here.

Public names: every public top-level function, class and constant (a
module-level assignment) of those modules, and every public method of a
public class, must be read by a library module, by `perfbench/*.py` or by
`tests/test_acceptance.py`.  A read is a `Name` node in load context (so
a constant's own assignment does not count), an `Attribute` node, or a
component of a dotted string such as "fatgraph.ArcSystemConfig.slot_info",
since the benchmark's tracer patches some methods by name.  A name that
only its own unit test reaches is dead code and should go with its test;
there is no exception list.
The check matches names, not definitions: a method is taken as read when
any attribute of that name is read, so `VerificationReport.to_dict`
passes on the strength of `FamilyInstance.to_dict` in `cli`, and a
benchmark metric name such as "fatgraph.parity_check.calls" counts as a
read of `parity_check`.

Error messages: each `raise ValueError(<message>)` of those modules whose
message is a string or an f-string is keyed by its constant text, with
every substitution read as `{}`.  Two raise sites with one key state one
input rule twice; the rule belongs in one helper that both call.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lensknots"
MODULES = sorted(SRC.glob("*.py"))
READERS = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


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


def public_defs(tree):
    """Qualified names of the public top-level functions, classes and
    constants, and of the public methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(t.id for t in targets
                       if isinstance(t, ast.Name) and not t.id.startswith("_"))
        if isinstance(node, defs) and not node.name.startswith("_"):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out.extend(f"{node.name}.{m.name}" for m in node.body
                           if isinstance(m, defs) and not m.name.startswith("_"))
    return out


def names_read(tree):
    """Names read as a loaded `Name`, an `Attribute` or a dotted string
    component."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(c for c in node.value.split(".") if c.isidentifier())
    return out


def value_error_templates(tree):
    """(template, line) of each `raise ValueError(<str or f-string>)`, in
    line order."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "ValueError" and node.exc.args):
            continue
        msg = node.exc.args[0]
        if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
            out.append((msg.value, node.lineno))
        elif isinstance(msg, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}"
                           for v in msg.values)
            out.append((text, node.lineno))
    return sorted(out, key=lambda site: site[1])


def duplicated_templates(sources):
    """{template: [site, ...]} for each template raised at two or more of
    the sites of the (name, tree) pairs."""
    sites = {}
    for name, tree in sources:
        for text, line in value_error_templates(tree):
            sites.setdefault(text, []).append(f"{name}:{line}")
    return {text: where for text, where in sites.items() if len(where) > 1}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def read_by_readers():
    return set().union(*(names_read(parse(path)) for path in READERS))


def test_modules_found():
    assert {"families.py", "surgery.py", "snf.py"} <= {m.name for m in MODULES}
    assert {"run.py", "tracer.py", "test_acceptance.py"} <= {r.name for r in READERS}


def test_unused_import_is_caught():
    tree = ast.parse("import math\nfrom x import y as z, w\nprint(w)\n")
    assert unused_imports(tree) == [(1, "math"), (2, "z")]


def test_unread_public_name_is_caught():
    tree = ast.parse("def f(): pass\ndef _g(): pass\nK = 1\n_P = 2\nA: int = 3\n"
                     "class C:\n    def m(self): pass\n    def __str__(self): pass\n")
    assert public_defs(tree) == ["f", "K", "A", "C", "C.m"]
    reads = names_read(ast.parse("f()\nx.m\n'mod.C.other'\n'not a name'\nK = 2\n"))
    assert {"f", "x", "m", "mod", "C", "other"} == reads


def test_duplicated_message_is_caught():
    a = ast.parse('def f(x):\n    raise ValueError(f"bad {x!r}: no")\n'
                  'def g(y):\n    raise ValueError(f"bad {y}: no")\n'
                  '    raise ValueError("bad")\n    raise TypeError("bad")\n')
    b = ast.parse('raise ValueError("bad")\nraise ValueError(message)\n'
                  'raise ValueError(f"bad {1}: yes")\n')
    assert value_error_templates(b) == [("bad", 1), ("bad {}: yes", 3)]
    assert duplicated_templates([("a", a), ("b", b)]) == {
        "bad {}: no": ["a:2", "a:4"], "bad": ["a:5", "b:1"]}


def test_each_value_error_message_written_once():
    assert duplicated_templates((p.name, parse(p)) for p in MODULES) == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_used(path):
    tree = parse(path)
    hits = [f"{path.name}:{line} {name}" for line, name in unused_imports(tree)]
    assert hits == []


def test_every_public_name_read():
    read = read_by_readers()
    unread = [f"{path.stem}.{name}" for path in MODULES
              for name in public_defs(parse(path))
              if name.split(".")[-1] not in read]
    assert unread == []

