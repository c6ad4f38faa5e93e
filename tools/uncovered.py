"""List the src/abpkit lines that the tier-1 suite never executes.

Run from anywhere as ``python tools/uncovered.py [pytest args]``; it runs
pytest on ``tests/`` (or the given args) in this process under
``sys.settrace`` and prints each unexecuted line, then the count.  A line
counts as executable if it is in the line table of a function (not of a
module or class body, which run at import), other than the function's first
line: so ``def``, ``class``, decorator, import and docstring lines are
skipped.  The trace slows the suite about threefold.
"""

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "abpkit"


def executable(code, lines=None) -> set:
    """Body lines of every function code object nested in ``code``."""
    lines = set() if lines is None else lines
    if code.co_flags & inspect.CO_NEWLOCALS:
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line != code.co_firstlineno)
    for const in code.co_consts:
        if inspect.iscode(const):
            executable(const, lines)
    return lines


def main(args) -> int:
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    sys.path.insert(0, str(SRC.parent))
    import pytest
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    missed = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable(compile("\n".join(text), name, "exec")) - seen[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} src/abpkit lines never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
