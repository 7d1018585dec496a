"""Fail when the tier-1 tests leave a statement of ``src/ppsmc`` unexecuted.

Runs pytest in this process under a ``sys.settrace`` line tracer that traces
only frames whose code is in ``src/ppsmc``, then lists every statement none of
whose lines ran.  A statement is an ``ast`` statement that compiles to some
bytecode (a docstring does not); a compound one counts by its header, the
lines before its body.  ``ALLOWED`` names the statements tier-1 cannot run.

    python tests/statements.py [pytest arguments]

Exits with pytest's code if a test fails, else 1 if a statement outside
``ALLOWED`` did not run, else 0.  Tracing makes the suite about three times
slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ppsmc"

# (file under src/ppsmc, statement text): the bodies of abstract methods, and
# the __main__ guard's call, which only ``python -m ppsmc.cli`` in a
# subprocess runs
ALLOWED = {
    ("models.py", "raise NotImplementedError"),
    ("cli.py", "sys.exit(main())"),
}


def trace_lines() -> dict[str, set[int]]:
    """Start tracing this thread and every thread started later; returns the
    executed line numbers of each traced file, filled in as the tracer runs."""
    hits: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its hits, None if not traced

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = hits.setdefault(str(path), set()) if SRC in path.parents else None
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    return hits


def code_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it that carry bytecode."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def unexecuted(path: Path, executed: set[int]) -> list[str]:
    """``file:line: text`` of every statement of ``path`` that did not run and is not allowed."""
    source = path.read_text()
    live = code_lines(compile(source, str(path), "exec"))
    missed = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        own = live.intersection(range(first, last + 1))
        text = ast.get_source_segment(source, node)
        if own and not own & executed and (path.name, text) not in ALLOWED:
            missed.append((node.lineno, f"{path.relative_to(ROOT)}:{node.lineno}: "
                                        f"{text.splitlines()[0].strip()}"))
    return [line for _, line in sorted(missed)]


def main(argv: list[str]) -> int:
    hits = trace_lines()
    code = pytest.main(["--rootdir", str(ROOT), str(ROOT / "tests"), *argv])
    sys.settrace(None)
    threading.settrace(None)
    if code != 0:
        return int(code)
    missed = [line for path in sorted(SRC.rglob("*.py"))
              for line in unexecuted(path, hits.get(str(path.resolve()), set()))]
    for line in missed:
        print(line)
    print(f"{len(missed)} statements of src/ppsmc not executed by the tests")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
