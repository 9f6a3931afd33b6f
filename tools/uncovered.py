"""List the statements of src/hyperconn that a pytest run never executes.

Usage (from the repository root):

    python3 tools/uncovered.py [PYTEST ARGS]

Runs pytest in this process (on ``tests`` when no argument is given) under
a line collector installed with ``sys.settrace`` and ``threading.settrace``
and limited to the files of src/hyperconn. Afterwards it prints, module by
module, each statement (found with ``ast``) none of whose own lines ran,
and exits with pytest's status. A statement's own lines are its lines less
those of the statements nested in it, counted only where the compiled
module has code, so docstrings, ``global`` and ``else:`` lines never show.

Only this process is seen: tests that run the CLI in a subprocess (through
``helpers.run_cli``) or in a process pool cover nothing here, so a line
that only such tests reach is listed too. Tracing slows the suite several
times over.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperconn"


def _collector(hits: set):
    """A global trace function recording (file, line) inside PACKAGE only."""
    prefix = str(PACKAGE) + os.sep
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in wanted:
            wanted[filename] = os.path.realpath(filename).startswith(prefix)
        return local if wanted[filename] else None

    return start


def _code_lines(code) -> set[int]:
    """Every line that has bytecode in a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def never_ran(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each statement in path none of whose own
    executable lines is in ran."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    missed = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(first, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        own &= executable
        if own and not own & ran:
            missed.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(missed)


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    hits: set = set()
    tracer = _collector(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for filename, line in hits:
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    total = modules = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = never_ran(path, ran.get(os.path.realpath(path), set()))
        if missed:
            modules += 1
            total += len(missed)
            print(path.relative_to(ROOT))
            for line, statement in missed:
                print(f"  {line}: {statement}")
    print(f"{total} statements never ran in {modules} modules "
          "(code reached only from subprocesses is not seen)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
