"""Lines of `src/equicast` that a pytest run never executes.

    python3 tools/linecov.py [pytest args ...]

Runs pytest in this process with a `sys.settrace` hook that records the line
events of frames whose code lies under src/equicast, then prints every
executable line that never ran, as `file:line`, and a total.  A module's
executable lines are those its compiled code objects list through
`co_lines()`.  Code that runs only in a subprocess is not seen.  The exit
status is pytest's.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "equicast"


def executable_lines(path: Path) -> set[int]:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    ran: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}  # co_filename -> whether it lies under SRC

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(f"{SRC}{os.sep}")
        if not inside[name]:
            return None
        ran.setdefault(name, set()).add(frame.f_code.co_firstlineno)
        return on_line

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    seen: dict[str, set[int]] = {}
    for name, lines in ran.items():
        seen.setdefault(os.path.realpath(name), set()).update(lines)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - seen.get(str(path), set()))
        total, missed = total + len(lines), missed + len(unrun)
        for line in unrun:
            print(f"{path.relative_to(SRC.parent.parent)}:{line}")
    print(f"{missed} of {total} executable lines in {SRC.relative_to(SRC.parent.parent)} not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
