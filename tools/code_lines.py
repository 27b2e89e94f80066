"""Count the code lines and the public surface of the lensknots package,
per module and in total.

A code line is a physical line that holds some token other than a comment,
and that is not part of a docstring: blank lines, comment-only lines and
the lines of module, class and function docstrings are skipped.  A token
spanning several lines, such as a multi-line string, counts each of them.

The public surface is what a module defines at its top level without a
leading underscore: its functions and classes, and its constants, the
names that a module-level assignment binds.  Methods, imported names and
names bound inside a block such as an `if` are not counted.

    python3 tools/code_lines.py

Standard library only.
"""

import ast
import io
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    source = path.read_bytes()
    skipped = docstring_lines(ast.parse(source, filename=str(path)))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skipped)


def public_names(path):
    """(public top-level functions and classes, public constants) of a
    module."""
    defs, consts = [], []
    for node in ast.parse(path.read_bytes(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            consts += [t.id for t in targets if isinstance(t, ast.Name)]
    return ([n for n in defs if not n.startswith("_")],
            [n for n in consts if not n.startswith("_")])


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lensknots"


def main():
    rows = {path.name: (code_lines(path), *map(len, public_names(path)))
            for path in sorted(PACKAGE.glob("*.py"))}
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    width = max(map(len, rows))
    print(f"{'module':<{width}}  {'code':>5}  {'defs':>5}  {'consts':>6}")
    for name, (code, defs, consts) in rows.items():
        print(f"{name:<{width}}  {code:>5}  {defs:>5}  {consts:>6}")


if __name__ == "__main__":
    main()
