#!/usr/bin/env python3
"""List the lines of src/finheyt that a pytest run never executes.

Usage: python scripts/never_run.py [pytest arguments]   (from the repository root)

Traces only frames whose code lies in src/finheyt, with sys.settrace and
threading.settrace, and runs pytest.main on the arguments in this process.  A
line counts when some code object compiled from src/finheyt/*.py holds it
(co_lines) and no traced frame reached it.  Prints those lines in file and line
order, with a count per file, and exits with pytest's exit code.  Standard
library only; the tracing makes the suite about three times slower.  A cheap
first pass before a mutation run: a mutant on a line listed here cannot be
killed.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "finheyt"


def code_lines(path: Path) -> set[int]:
    """Every line that a code object compiled from path executes."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    hit: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(f"{PACKAGE}{os.sep}")
            if inside[name]:
                hit[name] = set()
        return local if inside[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    reached: dict[Path, set[int]] = {}
    for name, lines in hit.items():
        reached.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(code_lines(path) - reached.get(path, set()))
        total += len(missed)
        source = path.read_text().splitlines()
        rel = path.relative_to(SRC.parent)
        print(f"{rel}: {len(missed)} never run")
        for line in missed:
            print(f"  {rel}:{line}: {source[line - 1].strip()}")
    print(f"{total} lines never run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
