"""Line coverage of the package under the unit tests, with the standard
library only: the executable lines of each module that no test ran.

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

It runs ``pytest tests`` (plus any arguments given) in this process under
``sys.settrace`` and ``threading.settrace``, and records the lines run by
frames whose code lies in ``src/p2pbackup``; frames elsewhere are not traced
line by line.  A module's executable lines are the line numbers of its code
objects, nested ones included, as ``co_lines()`` lists them.  For each module
it prints the lines that never ran, then exits with pytest's status.

Tests that run the package in a subprocess are not traced: the CLI and
perfbench smoke runs and the demos.  A line that only they reach is listed
as not run.  Tracing about doubles the suite's wall time.

Not collected by pytest: the file name has no test_ prefix.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "p2pbackup"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from path."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def trace_tests(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest on tests/ with args under the tracer; its exit status and
    the lines run, by module path."""
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its lines run, or None outside the package

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_name:
            by_name[filename] = set() if Path(filename).resolve().parent == PACKAGE else None
        lines = by_name[filename]
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # a call or a generator's resumption

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main([str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    hits: dict[Path, set[int]] = {}
    for filename, lines in by_name.items():
        if lines is not None:
            hits.setdefault(Path(filename).resolve(), set()).update(lines)
    return int(status), hits


def spans(lines) -> str:
    """Line numbers as sorted runs: 3, 7-9, 12."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    status, hits = trace_tests(argv)
    total = missed = 0
    print("\nexecutable lines of src/p2pbackup that no test ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unrun = lines - hits.get(path.resolve(), set())
        total, missed = total + len(lines), missed + len(unrun)
        print(f"  {path.name}: {len(unrun)} of {len(lines)}" + (f": {spans(unrun)}" if unrun else ""))
    print(f"  all: {total - missed} of {total} lines run")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
