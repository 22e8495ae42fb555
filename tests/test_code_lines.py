"""tests/code_lines.py, the code-line counter, on a synthetic module."""

import code_lines

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """A function docstring."""
    return os.path.join(
        x,
        "y",
    )


class C:
    """A class docstring
    over two lines."""

    s = """a multi-line string
    that is not a docstring"""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # counted: import, def, return ... join(, x,, "y",, ), class, and both
    # lines of the string assigned to s
    assert code_lines.code_lines(SOURCE) == 9


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.split("\n")
    assert [line.split() for line in out if line] == [["a", "9"], ["b", "1"], ["total", "10"]]
