"""The library is stdlib-only: every absolute import in src/invofactor names
a standard-library module.  Third-party packages that happen to be installed
would let an accidental import pass every other test."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "invofactor"


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    outside = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, outside
