"""Line trace of the srcloc package over a test run: a pytest plugin.

Load it explicitly; its name keeps pytest from collecting it:

    PYTHONPATH=src python -m pytest -q -p tests.line_trace

It records every line of ``src/srcloc`` that runs inside a function
(module and class bodies, which run at import, are left out), and
separately the lines that run while ``cli.main`` is on the stack.  At
the end of the run it prints, per module, the lines that ran only
outside ``cli.main``: code that no command reaches, only the tests that
call into the package directly.  A line that never ran at all is not
listed.

Limitations: forked pool workers are not traced (the trace is switched
off in them), nor are subprocesses or threads, so code that only they
run counts as not run.  Tracing makes the run about a third slower.
"""

from __future__ import annotations

import inspect
import os
import sys
from itertools import groupby

import srcloc
from srcloc import cli

_PACKAGE = os.path.dirname(os.path.abspath(srcloc.__file__)) + os.sep
_MAIN = cli.main.__code__

_inside: set = set()  # (file, line) run while cli.main is on the stack
_outside: set = set()  # (file, line) run with no cli.main on the stack
_depth = 0  # cli.main frames on the stack
_traced: dict = {}  # code object -> whether it is a package function, whose lines are recorded


def _line(frame, event, arg):
    global _depth
    if event == "line":
        (_inside if _depth else _outside).add((frame.f_code.co_filename, frame.f_lineno))
    elif event == "return" and frame.f_code is _MAIN:
        _depth -= 1
    return _line


def _call(frame, event, arg):
    global _depth
    code = frame.f_code
    traced = _traced.get(code)
    if traced is None:
        traced = _traced[code] = code.co_filename.startswith(_PACKAGE) and bool(code.co_flags & inspect.CO_OPTIMIZED)
    if not traced:
        return None
    if code is _MAIN:
        _depth += 1
    return _line


def pytest_sessionstart(session):
    os.register_at_fork(after_in_child=lambda: sys.settrace(None))
    sys.settrace(_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)


def _ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs, e.g. ``12, 40-42``."""
    runs = []
    for _, run in groupby(enumerate(sorted(lines)), key=lambda il: il[1] - il[0]):
        run = [line for _, line in run]
        runs.append(str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}")
    return ", ".join(runs)


def pytest_terminal_summary(terminalreporter):
    only_outside = _outside - _inside
    tr = terminalreporter
    tr.write_sep("=", "srcloc line trace")
    tr.write_line(
        f"{len(_inside | _outside)} lines ran inside functions, {len(_inside)} of them under cli.main; "
        f"{len(only_outside)} ran only outside cli.main:"
    )
    for path, lines in groupby(sorted(only_outside), key=lambda fl: fl[0]):
        tr.write_line(f"  {os.path.relpath(path, _PACKAGE)}: {_ranges(line for _, line in lines)}")
