"""Statement-deletion mutants of one module.

    python3 tools/mutants.py [--since REV] constellation.engine tests/test_engine.py [TEST...]

Copies the repository into a temporary directory, so the working tree is
never touched. There, each statement in a function body of MODULE (a
dotted name under ``src/``), at any depth, is replaced by ``pass`` on its
own, and pytest runs the given test files against that copy. A mutant
survives when every test still passes. Each survivor is printed as
``module:line: text``, then the total. A docstring, ``...`` or ``pass``
is not mutated: ``pass`` in its place changes nothing. A mutant whose tests run
longer than ten times the unmutated run counts as killed. With ``--since
REV`` only the statements whose lines meet a hunk of ``git diff -U0 REV --
MODULE`` are mutated (a hunk that only deletes lines meets none), so a
change can quote the survivors on the lines it touched.

The exit code is 0 when the run completes, whatever survives, and 2 when
the tests fail on the unmutated copy.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")


def statements(tree: ast.Module) -> List[ast.stmt]:
    """Every statement inside a function body, in source order."""
    found = {
        statement
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in node.body
        for statement in ast.walk(inner)
        if isinstance(statement, ast.stmt)
    }
    return sorted(found, key=lambda s: (s.lineno, s.col_offset))


def mutable(statement: ast.stmt) -> bool:
    """False for ``pass`` and a bare constant (a docstring, ``...``)."""
    constant = isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
    return not (constant or isinstance(statement, ast.Pass))


def replaced(source: str, statement: ast.stmt) -> str:
    """``source`` with ``statement``'s text, decorators included, made ``pass``."""
    lines = source.splitlines(keepends=True)
    decorators = getattr(statement, "decorator_list", ())
    first, start = min([(statement.lineno, statement.col_offset)] + [(d.lineno, d.col_offset - 1) for d in decorators])
    head = lines[first - 1][:start]
    tail = lines[statement.end_lineno - 1][statement.end_col_offset:]
    return "".join(lines[: first - 1]) + head + "pass" + tail + "".join(lines[statement.end_lineno :])


def changed_lines(relative: Path, rev: str) -> Set[int]:
    """The working tree's lines of ``relative`` in a hunk of its diff from ``rev``."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", str(relative)], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout
    lines: Set[int] = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, re.MULTILINE):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def run_tests(copy: Path, tests: List[str], timeout: float) -> Tuple[bool, float]:
    """Whether every test passed in ``copy``, and the run's elapsed seconds."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    started = time.monotonic()
    try:
        done = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, timeout
    return done.returncode == 0, time.monotonic() - started


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="dotted module name under src/, e.g. constellation.engine")
    parser.add_argument("tests", nargs="+", help="test files or node ids, relative to the repository root")
    parser.add_argument("--since", metavar="REV", help="mutate only the statements on lines changed since REV")
    args = parser.parse_args(argv)
    relative = Path("src", *args.module.split(".")).with_suffix(".py")
    source = (ROOT / relative).read_text(encoding="utf-8")
    mutants = [s for s in statements(ast.parse(source)) if mutable(s)]
    if args.since is not None:
        changed = changed_lines(relative, args.since)
        mutants = [s for s in mutants if changed.intersection(range(s.lineno, s.end_lineno + 1))]
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        target = copy / relative
        passed, seconds = run_tests(copy, args.tests, timeout=3600.0)
        if not passed:
            print(f"the tests fail on the unmutated copy: {' '.join(args.tests)}", file=sys.stderr)
            return 2
        survivors = 0
        for statement in mutants:
            target.write_text(replaced(source, statement), encoding="utf-8")
            if run_tests(copy, args.tests, timeout=10 * seconds + 10)[0]:
                survivors += 1
                text = " ".join(ast.get_source_segment(source, statement).split())
                print(f"{args.module}:{statement.lineno}: {text}", flush=True)
        print(f"{survivors} of {len(mutants)} mutants survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
