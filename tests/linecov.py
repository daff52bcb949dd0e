"""Line coverage of the function bodies in src/cac, measured with the
standard library alone (`sys.settrace`), over a pytest run in this
process.  Run it from the root of the repository:

    PYTHONPATH=src python -m tests.linecov            # all of tests/
    PYTHONPATH=src python -m tests.linecov tests/test_typing.py -k whnf

Arguments are handed to pytest.  The line tracer is armed again around
every test, because a RecursionError switches tracing off.  Only lines
inside function bodies count: module and class bodies run on import,
before any test, and docstrings hold no code.  Tests that run cac in a
subprocess are invisible to the probe.

It prints, per module, the lines reached out of the lines that hold
code, and the unreached lines as ranges: first those outside ALLOWLIST,
then those inside it.  It exits with pytest's status when a test
fails, else with 1 when a line outside ALLOWLIST is unreached, else
with 0.  pytest does not collect this file: its name does not start
with `test_`.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import types
from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

import pytest

import cac

PACKAGE = os.path.dirname(cac.__file__) + os.sep

_AFTER_OVERFLOW = ("tests reach it, but only after a RecursionError, which "
                   "switches the line tracer off (test_deep_*)")
# (module, how the statement or handler starts, why its lines may stay
# unreached): every statement or `except` handler of the module whose
# first line starts so is allowlisted, with all of its lines
ALLOWLIST = [
    ("cli.py", "def _too_deep(", _AFTER_OVERFLOW),
    ("cli.py", "except RecursionError:", _AFTER_OVERFLOW),
    ("syntax.py", 'raise ElabError("internal"',
     "defensive: the parser builds no other node"),
    ("syntax.py", 'raise ElabError("bad-env"',
     "termination guard of the dependency sort, which places a variable "
     "in every round: a derived type mentions only variables whose first "
     "lhs occurrence comes earlier in prefix order"),
    ("typing.py", 'raise TypingError("internal"',
     "defensive: every term class has a rule"),
]


def _codes(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def _body_lines(tree: ast.Module) -> Set[int]:
    """The lines of every function body, less its docstring."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            for stmt in body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def executable_lines(path: str) -> Set[int]:
    """Lines of function bodies in `path` that hold an instruction."""
    source = pathlib.Path(path).read_text(encoding="utf-8")
    code = compile(source, path, "exec")
    held = {line for c in _codes(code) for _, _, line in c.co_lines()
            if line is not None}
    return held & _body_lines(ast.parse(source))


def allowlisted_lines(path: str) -> Set[int]:
    """The lines of `path` that ALLOWLIST covers."""
    name = os.path.basename(path)
    starts = tuple(start for module, start, _ in ALLOWLIST if module == name)
    if not starts:
        return set()
    source = pathlib.Path(path).read_text(encoding="utf-8")
    text = source.splitlines()
    lines: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.stmt, ast.ExceptHandler))
                and text[node.lineno - 1].strip().startswith(starts)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


class LineProbe:
    """A pytest plugin that records the lines of src/cac each test runs."""

    def __init__(self):
        self.hit: Dict[str, Set[int]] = defaultdict(set)

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hit[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def _ranges(lines: List[int]) -> str:
    out, start, prev = [], None, None
    for n in lines + [None]:
        if start is not None and (n is None or n != prev + 1):
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = None
        if start is None:
            start = n
        prev = n
    return ", ".join(out)


def report(hit: Dict[str, Set[int]]) -> Tuple[str, int]:
    """The printed report, and the count of unreached lines outside the
    allowlist."""
    rows, reached, total, outside = [], 0, 0, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        lines = executable_lines(path)
        hit_here = lines & hit.get(path, set())
        allowed = sorted((lines - hit_here) & allowlisted_lines(path))
        missed = sorted(lines - hit_here - set(allowed))
        reached += len(hit_here)
        total += len(lines)
        outside += len(missed)
        rows.append(f"{name}: {len(hit_here)}/{len(lines)}"
                    + (f"  unreached: {_ranges(missed)}" if missed else "")
                    + (f"  allowlisted: {_ranges(allowed)}" if allowed
                       else ""))
    share = 100.0 * reached / total if total else 100.0
    rows.append(f"total: {reached}/{total} function-body lines "
                f"({share:.1f}%); {outside} unreached outside the "
                "allowlist")
    return "\n".join(rows), outside


def main(argv: List[str]) -> int:
    probe = LineProbe()
    status = pytest.main(argv or ["-q", "tests"], plugins=[probe])
    text, outside = report(probe.hit)
    print(text)
    return int(status) or int(outside > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
