"""Count the code lines of the lensknots package, per module and in total.

A code line is a physical line that holds some token other than a comment,
and that is not part of a docstring: blank lines, comment-only lines and
the lines of module, class and function docstrings are skipped.  A token
spanning several lines, such as a multi-line string, counts each of them.

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


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lensknots"


def main():
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
