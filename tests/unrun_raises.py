"""A pytest plugin that fails the run when some `raise` statement of
src/invofactor ran in no test.

It is not a test module (its name does not start with test_), so pytest
loads it only when asked, with the tests directory on the path:

    PYTHONPATH=src:tests python -m pytest -q --continue-on-collection-errors -p unrun_raises

From configuration to the end of the session it line-traces the package's
code with sys.settrace, and with threading.settrace in threads started
later.  At the end it parses every module of the package and takes each
`raise` statement with its span of lines.  A statement counts as run when
any line of its span ran, since one spread over several lines may report
only one of them.  The one exemption is `raise SystemExit(main())`: the
entry points run only under `python -m`, in child processes, which are
not traced.  Run it on the whole suite; on a subset it names every raise
the subset missed.  Tracing makes the run several times slower.
"""

import ast
import os
import pathlib
import sys
import threading

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "invofactor"
EXEMPT = {"raise SystemExit(main())"}

_ran = {}  # real path of a package module -> the line numbers that ran
_unrun = []  # "path:line: statement" of each raise that no test ran


def _line_tracer(add):
    def on_line(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return on_line

    return on_line


def _tracer():
    prefix = str(PACKAGE) + os.sep
    local = {}  # co_filename -> its line tracer, None outside the package

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return local[name]
        except KeyError:
            pass
        path = os.path.realpath(name)
        on_line = _line_tracer(_ran.setdefault(path, set()).add) if path.startswith(prefix) else None
        local[name] = on_line
        return on_line

    return trace


def unrun_raises(ran):
    """Each raise statement of the package, but the exempt ones, none of
    whose lines is in ran[path], as "path:line: statement"."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise):
                continue
            text = ast.unparse(node)
            span = range(node.lineno, node.end_lineno + 1)
            if text not in EXEMPT and lines.isdisjoint(span):
                out.append((path.name, node.lineno, text))
    return [f"src/invofactor/{name}:{line}: {text}" for name, line, text in sorted(out)]


def pytest_configure(config):
    trace = _tracer()
    threading.settrace(trace)
    sys.settrace(trace)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    _unrun[:] = unrun_raises(_ran)
    if _unrun and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if not _unrun:
        terminalreporter.write_line("unrun_raises: every raise statement in src/invofactor ran")
        return
    terminalreporter.section(f"{len(_unrun)} raise statements in src/invofactor ran in no test", red=True)
    for line in _unrun:
        terminalreporter.write_line(line)
