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
code, and the unreached lines as ranges.  pytest does not collect this
file: its name does not start with `test_`.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import types
from collections import defaultdict
from typing import Dict, Iterator, List, Set

import pytest

import cac

PACKAGE = os.path.dirname(cac.__file__) + os.sep


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


def report(hit: Dict[str, Set[int]]) -> str:
    rows, reached, total = [], 0, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        lines = executable_lines(path)
        missed = sorted(lines - hit.get(path, set()))
        reached += len(lines) - len(missed)
        total += len(lines)
        rows.append(f"{name}: {len(lines) - len(missed)}/{len(lines)}"
                    + (f"  unreached: {_ranges(missed)}" if missed else ""))
    share = 100.0 * reached / total if total else 100.0
    rows.append(f"total: {reached}/{total} function-body lines "
                f"({share:.1f}%)")
    return "\n".join(rows)


def main(argv: List[str]) -> int:
    probe = LineProbe()
    status = pytest.main(argv or ["-q", "tests"], plugins=[probe])
    print(report(probe.hit))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
