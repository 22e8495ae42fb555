"""Count the code lines of src/invofactor: the physical lines that hold a
token other than a comment or pure layout, outside every docstring.

Run from the repository root:

    python tests/code_lines.py [DIR]

It prints one count per module and the total.  A line counts when some
token other than COMMENT, NL, NEWLINE, INDENT, DEDENT, ENCODING or
ENDMARKER starts, ends or runs across it, so each line of a multi-line
string or call counts.  Every line of a module, class or function
docstring is skipped.  Stdlib only; pytest does not collect this file,
as its name does not start with test_.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source):
    """The number of code lines of the Python source text `source`."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "invofactor"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem:12} {n:5}")
    print(f"{'total':12} {total:5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
