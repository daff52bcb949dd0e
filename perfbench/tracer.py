"""Call tracer for the traced run.  It hooks the interpreter's trace
function from outside cac and changes no source under src/.

Every Python frame whose code lives in the cac package is a call: it is
counted under `<module>.<qualified name>`, whichever name the caller used
to reach it (names rebound by `from ... import` included).  A span is
opened for each call that crosses from one cac module into another, and
for each call into SPANNED.  A trace hook adds one frame at most, where a
wrapper per function would double the depth of every recursion and so
move the point at which deep terms overflow.

Spans are merged by call path: a node stands for every span with the same
name under the same parent span in the same job, and holds their count,
first start, last end and summed duration.  Holding each span apart would
cost about two million records per pass on `overlap` and `join`.  Self
time is a node's duration minus its children's, summed per function and
per module.  Nodes stay in memory until `dump`.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

# Functions whose own self time is reported, so they get a span even
# when called from their own module.
SPANNED = frozenset({
    "rewriting.normalize", "rewriting.joinable", "rewriting.critical_pairs",
    "signature.Precedence.gt",
})
# Functions whose outermost calls are scored by whether they return a
# result (a match or a unifier) rather than None.
SCORED = frozenset({"rewriting.match_first_order", "rewriting.unify"})
FUEL_FUNCS = frozenset({"rewriting.normalize", "rewriting.joinable"})
LEX = "syntax.lex"

_SPAN, _SCORE, _LEX = 1, 2, 4


class Node:
    """All spans of one name under one parent span."""

    __slots__ = ("index", "key", "module", "parent", "job", "count",
                 "start", "end", "total", "children")

    def __init__(self, index: int, key: str, module: str,
                 parent: Optional["Node"], job: int):
        self.index = index
        self.key = key
        self.module = module
        self.parent = parent
        self.job = job
        self.count = 0
        self.start = None
        self.end = 0.0
        self.total = 0.0
        self.children: Dict[str, "Node"] = {}


class Tracer:
    """Counts and spans for one pass: `with tracer.job(i): ...` around
    each job."""

    def __init__(self, package_dir: str, fuel_error: type):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.fuel_error = fuel_error
        self.calls: Dict[str, int] = defaultdict(int)
        self.outer: Dict[str, int] = defaultdict(int)
        self.hits: Dict[str, int] = defaultdict(int)
        self.tokens = 0
        self.fuel_exhausted = 0
        self.nodes: List[Node] = []
        self._codes: Dict[object, Optional[tuple]] = {}
        self._stack: List[list] = []   # [node, start time, frame]
        self._last_fuel = None

    # -- control ----------------------------------------------------------

    def job(self, i: int) -> "Tracer":
        root = self._node(f"job{i}", "bench", None, i)
        self._stack[:] = [[root, perf_counter(), None]]
        return self

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        # A RecursionError inside the hook unsets it, and a job that
        # overflowed can leave spans open: close them at the job's end.
        sys.settrace(None)
        now = perf_counter()
        while len(self._stack) > 1:
            self._close(self._stack.pop(), now)
        self._close(self._stack.pop(), now)
        return False

    # -- the hook ---------------------------------------------------------

    def _classify(self, code) -> Optional[tuple]:
        path = code.co_filename
        info = None
        if path.startswith(self.package_dir) and path.endswith(".py"):
            module = path[len(self.package_dir):-3].replace(os.sep, ".")
            key = f"{module}.{code.co_qualname}"
            flags = ((_SPAN if key in SPANNED else 0)
                     | (_SCORE if key in SCORED else 0)
                     | (_LEX if key == LEX else 0))
            info = (key, module, flags, bool(code.co_flags
                                             & inspect.CO_GENERATOR))
        self._codes[code] = info
        return info

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            info = self._codes[code]
        except KeyError:
            info = self._classify(code)
        if info is None:
            return None
        key, module, flags, generator = info
        # a generator frame reports a call on every resume; its first
        # entry is the `RESUME 0` instruction
        if not generator or code.co_code[frame.f_lasti + 1] == 0:
            self.calls[key] += 1
        scored = (flags & _SCORE and frame.f_back is not None
                  and frame.f_back.f_code is not code)
        if scored:
            self.outer[key] += 1
        top = self._stack[-1][0]
        if not flags & _SPAN and top.module == module:
            if scored or flags & _LEX:
                frame.f_trace_lines = False
                return self._value
            return None
        node = top.children.get(key)
        if node is None:
            node = top.children[key] = self._node(key, module, top, top.job)
        self._stack.append([node, perf_counter(), frame])
        frame.f_trace_lines = False
        return self._local

    def _local(self, frame, event, arg):
        if event == "return":
            entry = self._stack[-1]
            if entry[2] is frame:
                self._close(self._stack.pop(), perf_counter())
                self._value(frame, event, arg)
        elif event == "exception" and isinstance(arg[1], self.fuel_error):
            key = self._codes[frame.f_code][0]
            if key in FUEL_FUNCS and arg[1] is not self._last_fuel:
                self._last_fuel = arg[1]
                self.fuel_exhausted += 1
        return self._local

    def _value(self, frame, event, arg):
        """Score the return value of an outermost match or unification,
        and count the tokens `lex` returns."""
        if event == "return" and arg is not None:
            key = self._codes[frame.f_code][0]
            if key in SCORED:
                self.hits[key] += 1
            elif key == LEX:
                self.tokens += len(arg)
        return self._value

    def _node(self, key, module, parent, job) -> Node:
        node = Node(len(self.nodes), key, module, parent, job)
        self.nodes.append(node)
        return node

    @staticmethod
    def _close(entry, now: float) -> None:
        node, start = entry[0], entry[1]
        node.count += 1
        node.total += now - start
        if node.start is None:
            node.start = start
        node.end = now

    # -- results ----------------------------------------------------------

    def self_times(self):
        """(per function, per module) self seconds."""
        by_key: Dict[str, float] = defaultdict(float)
        by_module: Dict[str, float] = defaultdict(float)
        for n in self.nodes:
            own = n.total - sum(c.total for c in n.children.values())
            by_key[n.key] += own
            by_module[n.module] += own
        return by_key, by_module

    def dump(self, path) -> None:
        """Write the span nodes as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tparent\tjob\tcount\tstart\tend\ttotal_s\n")
            for n in self.nodes:
                parent = n.parent.index if n.parent is not None else -1
                f.write(f"{n.index}\t{n.key}\t{parent}\t{n.job}\t{n.count}\t"
                        f"{n.start or 0.0:.9f}\t{n.end:.9f}\t{n.total:.9f}\n")
