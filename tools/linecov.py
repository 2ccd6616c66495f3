"""The lines of ``src/`` that no test runs.

    python3 tools/linecov.py [PYTEST_ARG...]

Runs pytest in this process, by default on ``tests/`` as tier-1 runs it,
under a ``sys.settrace`` line recorder, then prints each executable line of
``src/constellation`` that never ran, as ``path:line: text``, and a total.
A line is executable when a statement starts on it; docstrings, ``global``
and ``nonlocal`` are not. Hypothesis resets the tracer around its tests, so
the recorder arms itself again before each test's setup, call and teardown.
Code run in a subprocess is not seen: ``cli.py`` and ``__main__.py`` lines
that only the subprocess tests reach are listed.

The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "constellation"
PREFIX = str(PACKAGE) + os.sep

ran: Set[Tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    """The global tracer: only the package's frames are traced line by line."""
    return _line if frame.f_code.co_filename.startswith(PREFIX) else None


def arm() -> None:
    sys.settrace(_call)
    threading.settrace(_call)


class Recorder:
    """Re-arms the tracer at each phase of each test."""

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        arm()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        arm()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(self, item):
        arm()
        yield


def executable(path: Path) -> Dict[int, range]:
    """Each line of ``path`` that a statement starts on, with the lines of
    the statement's header (all of a simple statement): any of them runs
    when it does."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        found[node.lineno] = range(node.lineno, max(body[0].lineno, node.lineno + 1) if body else node.end_lineno + 1)
    return found


def unrun() -> Iterator[Tuple[str, int, str]]:
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for line, header in sorted(executable(path).items()):
            if not any((str(path), other) in ran for other in header):
                yield str(path.relative_to(ROOT)), line, lines[line - 1].strip()


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    arm()
    code = pytest.main(argv or ["-q", "--continue-on-collection-errors", "tests"], plugins=[Recorder()])
    sys.settrace(None)
    threading.settrace(None)
    total = sum(len(executable(path)) for path in PACKAGE.rglob("*.py"))
    missed = list(unrun())
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} of {total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
