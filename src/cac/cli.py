"""Command-line driver: load a declaration file, run its directives,
or run the full admissibility pipeline, with text or structured output.

Exit codes: 0 all checks passed, 1 a check failed (also when a term is
nested beyond the interpreter's recursion limit), 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from _json import encode_basestring_ascii
from typing import List, Optional

from .admissibility import (Outcome, OverallVerdict, check_admissible,
                            s_row)
from .orderings import Orientation
from .printer import pp
from .rewriting import confluence_check
from .syntax import LoadedFile, ParseError, Parser, load
from .terms import CacError, Environment
from .typing import TypeChecker


def to_json(obj, indent: str = "\n") -> str:
    """The bytes of `json.dumps(obj, indent=2, sort_keys=True)` for
    dicts with string keys, lists, tuples, strings, ints, bools and
    None.  Strings go through the C encoder and each container is one
    join, so no pure-Python encoder runs and no list of every chunk of
    the report is built."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        return "".join(_object([(k, (to_json(v, inner),))
                                for k, v in sorted(obj.items())], indent))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return ("[" + inner + ("," + inner).join(
            to_json(v, inner) for v in obj) + indent + "]")
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _object(members, indent: str) -> list:
    """The pieces of the text of a JSON object at `indent`, given its
    members in key order as (key, pieces of the member's text)."""
    if not members:
        return ["{}"]
    inner = indent + "  "
    pieces = []
    for key, value in members:
        pieces.append(("," if pieces else "{") + inner
                      + encode_basestring_ascii(key) + ": ")
        pieces += value
    pieces.append(indent + "}")
    return pieces


def _admissibility_json(report) -> str:
    """`to_json(report.to_dict())`, written as one join over the texts of
    the report's top-level members.  Rules with equal S1-S5 results share
    one row object, which is encoded once and spliced in for every rule
    that has it, so neither a dict of every rule nor a second copy of the
    rows' text is built."""
    rows: dict = {}  # id of a row -> its text; the report keeps it alive

    def row(conds) -> tuple:
        text = rows.get(id(conds))
        if text is None:
            text = rows[id(conds)] = (to_json(s_row(conds), "\n    "),)
        return text

    members = [(k, (to_json(v, "\n  "),))
               for k, v in report.summary_dict().items()]
    members.append(("s_conditions", _object(
        [(rule, row(conds))
         for rule, conds in sorted(report.s_conditions.items())], "\n  ")))
    return "".join(_object(sorted(members), "\n"))


def _emit(obj, as_json: bool, text: str) -> None:
    print(to_json(obj) if as_json else text)


def _too_deep() -> str:
    return ("a term is nested beyond the recursion limit "
            f"({sys.getrecursionlimit()})")


def _load_file(path: str, fuel: int) -> LoadedFile:
    with open(path, encoding="utf-8") as f:
        return load(f.read(), fuel=fuel)


def _parse_expr(loaded: LoadedFile, text: str):
    try:
        parser = Parser(text)
        span = parser.parse_term()
        if parser.peek():
            raise ParseError(f"trailing input {parser.peek()!r}", parser.i)
        return loaded.term(parser, span, {})
    except ParseError as e:
        raise e.located(text) from None


class _A1Undecided(Exception):
    """A conversion was asked for before A1 ran."""


def _confluent(loaded: LoadedFile, fuel: int) -> bool:
    """Whether A1 finds the file's rules confluent, so that conversion
    may compare normal forms."""
    return confluence_check(loaded.index, Orientation(loaded.signature),
                            fuel, loaded.assume_confluent).positive


class _FileChecker(TypeChecker):
    """The typing context of `cac check` on a loaded file.  It
    normalizes each shared term once for the whole command: its
    `normal_forms` memo serves every directive.  A conversion asked for
    before `confluent` is set raises `_A1Undecided`, so that the caller
    runs A1 at its own stack depth, not at that of the typing it
    interrupts, and runs the directive again."""

    def __init__(self, loaded: LoadedFile, fuel: int):
        super().__init__(loaded.signature, loaded.index, fuel, None)

    def convertible(self, t, u) -> bool:
        if self.confluent is None:
            raise _A1Undecided
        return super().convertible(t, u)


def _run_directive(tc: _FileChecker, d) -> dict:
    """The report entry of one directive."""
    entry = {"kind": d.kind, "line": d.line}
    try:
        if d.kind == "check":
            tc.check(Environment(), d.terms[0], d.terms[1])
            entry["outcome"] = "ok"
        elif d.kind == "normalize":
            nf = tc.normal_form(d.terms[0])
            entry["outcome"] = "ok"
            entry["normal_form"] = pp(nf)
        else:  # convert
            conv = tc.convertible(d.terms[0], d.terms[1])
            entry["outcome"] = "ok" if conv else "failed"
            entry["detail"] = ("convertible" if conv
                               else "no common reduct found")
    except CacError as e:
        entry["outcome"] = "failed"
        entry["detail"] = e.message
    except RecursionError:
        entry["outcome"] = "failed"
        entry["detail"] = f"depth-exceeded: {_too_deep()}"
    return entry


def cmd_check(args) -> int:
    loaded = _load_file(args.file, args.fuel)
    tc = _FileChecker(loaded, args.fuel)
    results = []
    for d in loaded.directives:
        try:
            entry = _run_directive(tc, d)
        except _A1Undecided:
            # A1 runs at the first conversion, at this loop's depth; an
            # error of A1 fails the whole command, as if A1 had run
            # before the first directive
            tc.confluent = _confluent(loaded, args.fuel)
            entry = _run_directive(tc, d)
        results.append(entry)
    ok = all(r["outcome"] == "ok" for r in results)
    obj = {"file": args.file, "directives": results, "ok": ok}
    lines = []
    for r in results:
        line = f"{r['kind']} (line {r['line']}): {r['outcome']}"
        if "normal_form" in r:
            line += f" — {r['normal_form']}"
        if "detail" in r:
            line += f" — {r['detail']}"
        lines.append(line)
    lines.append("all checks passed" if ok else "some checks failed")
    _emit(obj, args.report == "structured", "\n".join(lines))
    return 0 if ok else 1


def _admissibility_report(args):
    """The verdict on the file.  The loaded file is unreachable once
    this returns, so it is not held while the report's text is built."""
    loaded = _load_file(args.file, args.fuel)
    return check_admissible(
        loaded.signature, loaded.index, fuel=args.fuel,
        assume_confluent=loaded.assume_confluent,
        assume_terminating=loaded.assume_terminating,
        force_non_algebraic=loaded.non_algebraic)


def cmd_admissibility(args) -> int:
    report = _admissibility_report(args)
    # each form of the report costs a pass over it, so build only one
    print(_admissibility_json(report) if args.report == "structured"
          else report.to_text())
    if report.overall == OverallVerdict.ADMISSIBLE:
        if args.strict and _uses_sufficient(report):
            return 1
        return 0
    if report.overall == OverallVerdict.ADMISSIBLE_WITH_ASSERTIONS:
        return 1 if args.strict else 0
    return 1


def _uses_sufficient(report) -> bool:
    return any(c.outcome == Outcome.PASS_SUFFICIENT
               for conds in report.s_conditions.values()
               for c in conds.values())


def cmd_normalize(args) -> int:
    loaded = _load_file(args.file, args.fuel)
    tc = TypeChecker(loaded.signature, loaded.index, args.fuel)
    outputs = []
    for expr in args.expr:
        nf = tc.normal_form(_parse_expr(loaded, expr))
        outputs.append({"input": expr, "normal_form": pp(nf)})
    _emit({"file": args.file, "results": outputs},
          args.report == "structured",
          "\n".join(o["normal_form"] for o in outputs))
    return 0


def cmd_convert(args) -> int:
    loaded = _load_file(args.file, args.fuel)
    if len(args.expr) != 2:
        print("convert requires exactly two -e expressions", file=sys.stderr)
        return 2
    tc = TypeChecker(loaded.signature, loaded.index, args.fuel,
                     _confluent(loaded, args.fuel))
    a = _parse_expr(loaded, args.expr[0])
    b = _parse_expr(loaded, args.expr[1])
    conv = tc.convertible(a, b)
    _emit({"file": args.file, "convertible": conv},
          args.report == "structured",
          "convertible" if conv else "not convertible")
    return 0 if conv else 1


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cac",
        description="Type checker and admissibility checker for a "
                    "calculus of constructions with rewrite rules")
    ap.add_argument("--fuel", type=_positive_int, default=10000,
                    help="reduction budget: rewrite steps, or distinct "
                         "reducts in a joinability search (default 10000)")
    ap.add_argument("--report", choices=("text", "structured"),
                    default="text", help="output format")
    ap.add_argument("--strict", action="store_true",
                    help="treat asserted or sufficient-condition passes "
                         "as failures")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="load a file and run its directives")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("admissibility",
                       help="run the full admissibility pipeline")
    p.add_argument("file")
    p.set_defaults(func=cmd_admissibility)

    p = sub.add_parser("normalize", help="normalize expressions")
    p.add_argument("file")
    p.add_argument("-e", "--expr", action="append", required=True,
                   help="expression to normalize")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("convert", help="test convertibility of two "
                                       "expressions")
    p.add_argument("file")
    p.add_argument("-e", "--expr", action="append", required=True,
                   help="expression (give twice)")
    p.set_defaults(func=cmd_convert)
    return ap


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process: building it costs
    about thirty times as much as one `parse_args`."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _argument_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CacError as e:
        print(f"error [{e.code}]: {e.message}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"error [depth-exceeded]: {_too_deep()}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
