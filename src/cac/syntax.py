"""Surface syntax: lexer, parser and incremental elaborator for
declaration files.

Grammar (one item per terminating `.`):

    symbol NAME : TYPE .
    rule LHS -> RHS [with env [x:T, ...] rho {x := TERM, ...}] .
    inductive NAME : TYPE [:= CTOR : TYPE | ...] .
    pragma ind(NAME) = {i, ...} .
    pragma acc(NAME) = {i, ...} .
    pragma prec NAME > NAME .
    pragma prec NAME = NAME .
    pragma assume_confluent .
    pragma assume_terminating .
    pragma non_algebraic NAME .
    check TERM : TYPE .
    normalize TERM .
    convert TERM , TERM .

Terms: `*` for the sort of propositions, `fun (x:T) => t`, dependent
products `(x:T) -> U`, arrows `T -> U`, symbol application `f(a, b)`,
term application by juxtaposition.  `#` starts a line comment."""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Tuple

from .cic import InductiveDecl, translate_inductive
from .rewriting import RewriteRule, RuleSet
from .schema import typed_subterms
from .signature import Signature
from .positivity import is_predicate_term
from .terms import (Abs, App, BVar, CacError, Environment, Prod, Sort, STAR,
                    Symb, Term, Var, Variable, free_vars,
                    sort_class_of_type, subst_apply)


class ParseError(CacError):
    """An error in reading a source.  One about a token carries its index
    as `at`; `located`, called where the source is at hand, puts the
    token's line and column before the message."""

    def __init__(self, message: str, at: Optional[int] = None,
                 code: str = "parse-error"):
        super().__init__(code, message)
        self.at = at

    def located(self, source: str) -> ParseError:
        if self.at is not None:
            line, col = position(source, self.at)
            self.message = f"{line}:{col}: {self.message}"
            self.args = (self.message,)
            self.at = None
        return self


UNICODE_ALIASES = {
    "★": "*", "→": "->", "⇒": "=>", "¬": "not", "∧": "/\\", "∨": "\\/",
    "⊤": "top", "⊥": "bot", "λ": "fun", "ℓ": "l",
}

# The texts of the tokens: punctuation, then names (the connective
# spellings are ordinary names).  In a str pattern, \w is exactly
# isalnum() plus "_".
_VALID = re.compile(r"->|=>|:=|[()\[\]{}:,.*=>|]|/\\|\\/|[\w']+")
# Every item of a source: a newline, a token, a `#` comment, or any
# other character that is not a blank (space, tab, carriage return) as a
# one-character item, which is an error.  Blanks match nothing.
_TOKEN = re.compile(r"\n|" + _VALID.pattern + r"|#[^\n]*|[^ \t\r]")
# a token is a name unless it is punctuation or the eof marker ""
_NOT_NAME = frozenset(("->", "=>", ":=", "(", ")", "[", "]", "{", "}", ":",
                       ",", ".", "*", "=", ">", "|", ""))


def _unalias(source: str) -> str:
    for u, a in UNICODE_ALIASES.items():
        if u in source:
            source = source.replace(u, f" {a} ")
    return source


def position(source: str, i: int) -> Tuple[int, int]:
    """Line and column of the token at index i of `source`, or of the end
    of input when i is past the last token; a comment at the end does not
    advance the column.  A character that is no token, met on the way, is
    an error at its place.  Only messages need positions."""
    source = _unalias(source)
    line, line_start = 1, 0
    m = None
    for m in _TOKEN.finditer(source):
        text = m.group()
        if text == "\n":
            line += 1
            line_start = m.end()
        elif _VALID.fullmatch(text):
            if not i:
                return line, m.start() - line_start + 1
            i -= 1
        elif text[0] != "#":
            raise ParseError(f"{line}:{m.start() - line_start + 1}: "
                             f"unexpected character {text!r}")
    end = (m.start() if m is not None and m.group()[0] == "#"
           else len(source))
    return line, end - line_start + 1


def _texts(source: str) -> Tuple[List[str], List[int]]:
    """The texts of the tokens of `source`, then "" for the end of input,
    and the line marks: the number of tokens before each newline, so that
    token i is on line 1 + bisect_right(marks, i).  One `findall` reads
    them; when a distinct text is no token, `position` raises the error
    at its place.
    Equal texts are one string, so the names that parsed terms keep cost
    one string per distinct name."""
    items = _TOKEN.findall(_unalias(source))
    toks: List[str] = []
    marks: List[int] = []
    start = 0
    while True:
        try:
            k = items.index("\n", start)
        except ValueError:
            k = len(items)
        # a comment runs to the end of its line, so only the last item
        # of a line can be one
        toks += items[start:k - 1 if k > start and items[k - 1][0] == "#"
                      else k]
        if k == len(items):
            break
        marks.append(len(toks))
        start = k + 1
    shared = {t: t for t in toks}
    if not all(map(_VALID.fullmatch, shared)):
        position(source, len(toks))  # raises at the first non-token
    toks = list(map(shared.__getitem__, toks))
    toks.append("")
    return toks, marks


# ---------------------------------------------------------------------------
# parsing: each term to postfix code

# A term's code is postfix, so one stack of values runs it.  A leaf, a
# name or `*`, is its token index.  An operator is negative,
# ~(kind | payload << 3):
#   APP          pops a head and its argument (juxtaposition);
#   SYMB         payload head + radix * arity, where head is the symbol's
#                token and the radix is the source's number of tokens:
#                pops the arguments;
#   BIND         payload a binder's name token, before the binder's body,
#                which sees the name bound;
#   OPEN         before an arrow's codomain, which is under a binder of no
#                name;
#   ABS, PROD    payload the binder's name token: pop the domain and the
#                body, which ends the binding;
#   ARROW        pops the domain and the codomain of an arrow.
APP, SYMB, BIND, OPEN, ABS, PROD, ARROW = range(7)

# The parser's frames: what the term or the atom being read is part of.
# An argument list is the payload of its SYMB so far, negated; any other
# frame is kind | payload << 4.
_TERM = 0        # an item's term
_LHS = 1         # a rule's left-hand side, which no arrow extends
_PAREN = 2       # ( term )
_FUN_DOMAIN = 3  # fun (x : term ) => ...; payload x's token
_PI_DOMAIN = 4   # (x : term ) -> ...; payload x's token
_FUN_BODY = 5    # fun (x : T) => term; payload x's token
_PI_BODY = 6     # (x : T) -> term; payload x's token
_CODOMAIN = 7    # T -> term
_APPLY = 8       # the atom being read is applied to the term before it

# the tokens that end a juxtaposition; only a rule's annotation follows a
# term with `with`
_ENDS_APP = (_NOT_NAME - {"*", "("}) | {"with"}


class Item(NamedTuple):
    """One parsed item: the `LoadedFile` method that takes it in, called
    with the item's line and then `args`.  A term in `args` is the span
    (start, stop) of its code in `code`, which names the item's tokens
    `toks` by their index in the source, from `first` on, with the
    source's `radix`.  So an item holds only what its own terms need,
    and drops it once taken in."""
    method: object
    line: int
    args: list
    toks: List[str]
    code: array
    first: int
    radix: int


class Parser:
    """One pass over the token texts of one source.  It appends the code
    of each term it reads to `code`, which starts afresh with each item
    at the token `first`.  An error carries the index of its token, as
    `ParseError.at`."""

    def __init__(self, source: str):
        self.toks, self.marks = _texts(source)
        self.radix = len(self.toks)
        self.i = self.first = 0
        self.code = array("q")

    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        """The current token; past it unless it is the final eof."""
        t = self.toks[self.i]
        if t:
            self.i += 1
        return t

    def error(self, msg: str) -> ParseError:
        return ParseError(msg + f" (found {self.toks[self.i]!r})", self.i)

    def expect(self, text: str) -> None:
        if self.toks[self.i] != text:
            raise self.error(f"expected {text!r}")
        self.i += 1

    def expect_name(self) -> str:
        t = self.toks[self.i]
        if t in _NOT_NAME:
            raise self.error("expected a name")
        self.i += 1
        return t

    def _until(self, close: str, element) -> list:
        """Comma-separated `element()`s up to and including `close`."""
        out = []
        while self.peek() != close:
            out.append(element())
            if self.peek() == ",":
                self.next()
        self.expect(close)
        return out

    def _binding(self, sep: str) -> tuple:
        """`name sep term`, as in `x : T` and `x := t`."""
        x = self.expect_name()
        self.expect(sep)
        return x, self.parse_term()

    # -- items ---------------------------------------------------------------

    def parse_file(self) -> List[Item]:
        items = []
        while self.peek():
            items.append(self.parse_item())
        return items

    def parse_item(self) -> Item:
        start = self.first = self.i
        self.code = array("q")
        h = self.ITEMS.get(self.toks[start])
        if h is None:
            raise self.error("expected a declaration, rule, pragma or "
                             "directive")
        self.i += 1
        method, args = h(self)
        self.expect(".")
        return Item(method, 1 + bisect_right(self.marks, start), args,
                    self.toks[start:self.i], self.code, start, self.radix)

    def _symbol(self):
        return LoadedFile.add_symbol, list(self._binding(":"))

    def _rule(self):
        lhs = self.parse_term(arrows=False)  # '->' separates sides
        self.expect("->")
        rhs = self.parse_term()
        env = rho = None
        if self.peek() == "with":
            self.next()
            self.expect("env")
            self.expect("[")
            env = self._until("]", lambda: self._binding(":"))
            if self.peek() == "rho":
                self.next()
                self.expect("{")
                rho = self._until("}", lambda: self._binding(":="))
        return LoadedFile.add_rule, [lhs, rhs, env, rho]

    def _inductive(self):
        name, typ = self._binding(":")
        ctors = []
        if self.peek() == ":=":
            self.next()
            ctors.append(self._binding(":"))
            while self.peek() == "|":
                self.next()
                ctors.append(self._binding(":"))
        return LoadedFile.add_inductive, [name, typ, ctors]

    def _index(self) -> int:
        text = self.expect_name()
        if not text.isdigit():
            raise ParseError("expected an argument index", self.i - 1)
        return int(text)

    def _pragma(self):
        kind = self.expect_name()
        if kind in ("ind", "acc"):
            self.expect("(")
            name = self.expect_name()
            self.expect(")")
            self.expect("=")
            self.expect("{")
            return LoadedFile.set_positions, [kind, name,
                                              self._until("}", self._index)]
        if kind == "prec":
            a = self.expect_name()
            op = self.next()
            if op not in (">", "="):
                raise self.error("expected '>' or '=' in a precedence pragma")
            b = self.expect_name()
            return (LoadedFile.prec_gt if op == ">" else LoadedFile.prec_eq,
                    [a, b])
        if kind in ("assume_confluent", "assume_terminating"):
            return LoadedFile.assume, [kind]
        if kind == "non_algebraic":
            return LoadedFile.add_non_algebraic, [self.expect_name()]
        raise self.error(f"unknown pragma {kind!r}")

    def _check(self):
        term = self.parse_term()
        self.expect(":")
        return LoadedFile.add_directive, ["check", term, self.parse_term()]

    def _normalize(self):
        return LoadedFile.add_directive, ["normalize", self.parse_term()]

    def _convert(self):
        a = self.parse_term()
        self.expect(",")
        return LoadedFile.add_directive, ["convert", a, self.parse_term()]

    ITEMS = {"symbol": _symbol, "rule": _rule, "inductive": _inductive,
             "pragma": _pragma, "check": _check, "normalize": _normalize,
             "convert": _convert}

    # -- terms ---------------------------------------------------------------

    def parse_term(self, arrows: bool = True) -> Tuple[int, int]:
        """Read one term, append its code and return the code's span.
        Application by juxtaposition is left associative; arrows follow
        it, right associative, unless `arrows` is off.  One loop with its
        own stack of frames reads every level, so nesting has no limit."""
        toks, code, radix = self.toks, self.code, self.radix
        emit = code.append
        not_name, ends_app = _NOT_NAME, _ENDS_APP
        start = len(code)
        i = self.i
        frames = [_TERM if arrows else _LHS]
        push, pop = frames.append, frames.pop
        while True:
            # an atom starts at i: read it, or open the frame of a
            # compound one and go on to its first atom
            text = toks[i]
            if text not in not_name and text != "fun":
                # a name before `(` applies a symbol, unless a binder
                # `( name :` follows
                if toks[i + 1] != "(" or (toks[i + 2] not in not_name
                                          and toks[i + 3] == ":"):
                    emit(i)
                    i += 1
                elif toks[i + 2] != ")":
                    push(-i - radix)  # one argument so far
                    i += 2
                    continue
                else:  # no arguments
                    emit(~(SYMB | i << 3))
                    i += 3
            elif text == "fun":
                if (toks[i + 1] != "(" or toks[i + 2] in not_name
                        or toks[i + 3] != ":"):
                    self.i = i + 1  # one of these raises
                    self.expect("(")
                    self.expect_name()
                    self.expect(":")
                push(_FUN_DOMAIN | (i + 2) << 4)
                i += 4
                continue
            elif text == "(":
                if toks[i + 1] not in not_name and toks[i + 2] == ":":
                    push(_PI_DOMAIN | (i + 1) << 4)
                    i += 3
                else:
                    push(_PAREN)
                    i += 1
                continue
            elif text == "*":
                emit(i)
                i += 1
            else:
                self.i = i
                raise self.error("expected a term")
            # an atom is read: close what it completes, up to the frame
            # that reads another atom
            while True:
                f = frames[-1]
                tok = toks[i]
                if f == _APPLY:
                    pop()
                    emit(~APP)
                    f = frames[-1]
                if f < 0 and tok == ")":  # the end of an argument list
                    pop()
                    emit(~(SYMB | -f << 3))
                    i += 1
                    continue
                if tok not in ends_app:
                    push(_APPLY)
                    break
                if tok == "->" and f != _LHS:
                    emit(~OPEN)
                    push(_CODOMAIN)
                    i += 1
                    break
                # the term is read
                while f == _CODOMAIN:
                    pop()
                    emit(~ARROW)
                    f = frames[-1]
                if f < 0:  # another argument, unless the list ends
                    if tok == ",":
                        i += 1
                    if toks[i] != ")":
                        frames[-1] = f - radix
                        break
                    continue
                kind = f & 15
                if kind == _FUN_BODY or kind == _PI_BODY:
                    pop()
                    emit(~((ABS if kind == _FUN_BODY else PROD)
                           | f >> 4 << 3))
                elif kind <= _LHS:
                    self.i = i
                    return start, len(code)
                elif kind == _PAREN:
                    if tok != ")":
                        self.i = i
                        self.expect(")")  # raises
                    pop()
                    i += 1
                else:  # the domain of a binder
                    arrow = "=>" if kind == _FUN_DOMAIN else "->"
                    if tok != ")" or toks[i + 1] != arrow:
                        self.i = i  # one of these raises
                        self.expect(")")
                        self.expect(arrow)
                    emit(~(BIND | f >> 4 << 3))
                    # the domain's frame becomes the body's
                    frames[-1] = f + (_FUN_BODY - _FUN_DOMAIN)
                    i += 2
                    break


def parse(source: str) -> List[Item]:
    try:
        return Parser(source).parse_file()
    except ParseError as e:
        raise e.located(source) from None


# ---------------------------------------------------------------------------
# elaboration


class ElabError(ParseError):
    """An elaboration error, placed as a parse error is."""

    def __init__(self, code: str, message: str, at: Optional[int] = None):
        super().__init__(message, at, code)


class Directive(NamedTuple):
    kind: str            # check | normalize | convert
    line: int
    terms: List[Term]


class LoadedFile:
    """A file elaborated item by item: the signature and rules built so
    far, the directives to run and the pragmas' flags."""

    def __init__(self, fuel: int = 10000):
        self.fuel = fuel
        self.signature = Signature()
        # the rules loaded so far, indexed as they load, so that each
        # declaration type-checks against the one index
        self.index = RuleSet()
        self.directives: List[Directive] = []
        self.assume_confluent = False
        self.assume_terminating = False
        self.non_algebraic: frozenset = frozenset()
        self.bundles: list = []
        # while the file loads: the item being taken in, and one table
        # for every closed term, so equal subterms across declared types
        # and directives are one object, which `Signature.declare`
        # kind-checks once and a command normalizes and prints once
        self._item: Optional[Item] = None
        self._closed_terms: Optional[dict] = {}

    @property
    def rules(self) -> List[RewriteRule]:
        """The rules loaded so far, in order: the index's own list."""
        return self.index.rules

    def term(self, program, span: Tuple[int, int], scope: Dict[str, Variable],
             free: Optional[Dict[str, Variable]] = None) -> Term:
        """Resolve the term whose code is `span` of `program`'s, an `Item`
        or the `Parser` that read the term: bound names to de Bruijn
        indices, names in `scope` to their variables, then symbols from
        the signature; other names are errors, or fresh variables shared
        through `free` when it is given.  Equal subterms of the result
        are one object.  While the file loads, a closed term, with an
        empty scope and no `free`, is built through the file's one table
        of closed terms, so equal closed terms are one object too; any
        other term, whose variables no other term shares, gets a table
        of its own."""
        table = self._closed_terms
        if table is None or scope or free is not None:
            table = {}
        return _elaborate(program, span, self.signature.decls, scope, free,
                          table)

    # -- items: each takes the item's line, then what the parser read -------

    def add_symbol(self, line: int, name: str, ptype) -> None:
        typ = self.term(self._item, ptype, {})
        arity = 0
        t = typ
        while isinstance(t, Prod):
            arity += 1
            t = t.codomain
        self.signature.declare(name, arity, typ, self.index, fuel=self.fuel)

    def add_rule(self, line: int, lhs, rhs, env, rho) -> None:
        name = f"rule{len(self.rules) + 1}"
        if env is not None:
            rule = self._annotated_rule(name, lhs, rhs, env, rho)
        else:
            rule = self._inferred_rule(name, lhs, rhs, line)
        self.index.add(rule)

    def _annotated_rule(self, name: str, plhs, prhs, penv,
                        prho) -> RewriteRule:
        program = self._item
        scope: Dict[str, Variable] = {}
        env = Environment()
        for x, ptyp in penv:
            typ = self.term(program, ptyp, scope)
            v = Variable.fresh(x, sort_class_of_type(typ))
            scope[x] = v
            env = env.extend(v, typ)
        rho: Dict[Variable, Term] = {}
        for x, pimg in prho or ():
            img = self.term(program, pimg, scope)
            sort = (Sort.BOX if is_predicate_term(img, self.signature)
                    else Sort.STAR)
            v = Variable.fresh(x, sort)
            scope[x] = v
            rho[v] = img
        lhs = self.term(program, plhs, scope)
        rhs = self.term(program, prhs, scope)
        return RewriteRule(name, lhs, rhs, env, rho)

    def _inferred_rule(self, name: str, plhs, prhs,
                       line: int) -> RewriteRule:
        free: Dict[str, Variable] = {}
        lhs = self.term(self._item, plhs, {}, free)
        rhs = self.term(self._item, prhs, {}, free)
        if not isinstance(lhs, Symb):
            raise ElabError("bad-lhs",
                            f"line {line}: rule left-hand side must be a "
                            "symbol application")
        # infer each variable's declared type from its first occurrence
        # in prefix order, which is the order of positions
        first: Dict[Variable, object] = {}
        for _, u, typ in typed_subterms(lhs, self.signature):
            if u.__class__ is Var:
                first.setdefault(u.var, typ)
        types: Dict[Variable, Term] = {}
        for v in free.values():
            typ = first.get(v)
            if typ is None:
                raise ElabError(
                    "bad-rhs",
                    f"line {line}: variable {v.name} does not occur in the "
                    "left-hand side; annotate the rule explicitly")
            if isinstance(typ, CacError):
                raise typ
            types[v] = typ
        # correct the sort classes, rebuilding only when one changes
        repl: Dict[Variable, Term] = {}
        fixed: Dict[Variable, Variable] = {}
        for v, typ in types.items():
            sort = sort_class_of_type(typ)
            if v.sort == sort:
                fixed[v] = v
            else:
                nv = fixed[v] = Variable.fresh(v.name, sort)
                repl[v] = Var(nv)
        lhs = subst_apply(lhs, repl)
        rhs = subst_apply(rhs, repl)
        types = {fixed[v]: subst_apply(t, repl) for v, t in types.items()}
        # environment in dependency order (types may mention other vars),
        # placed in rounds by id
        remaining = sorted(types, key=lambda w: w.id)
        order: List[Variable] = []
        placed: set = set()
        while remaining:
            later = []
            for v in remaining:
                if free_vars(types[v]) <= placed:
                    order.append(v)
                    placed.add(v)
                else:
                    later.append(v)
            if len(later) == len(remaining):
                raise ElabError("bad-env", f"line {line}: cyclic "
                                "dependencies among inferred variable "
                                "types; annotate the rule explicitly")
            remaining = later
        env = Environment.of((v, types[v]) for v in order)
        return RewriteRule(name, lhs, rhs, env, {})

    def add_inductive(self, line: int, name: str, ptype, pctors) -> None:
        program = self._item
        arity_type = self.term(program, ptype, {})
        self_var = Variable.fresh(name, Sort.BOX)
        ctors = tuple((cname, self.term(program, ptyp, {name: self_var}))
                      for cname, ptyp in pctors)
        decl = InductiveDecl(name, arity_type, self_var, ctors)
        bundle = translate_inductive(decl, self.signature, self.index,
                                     fuel=self.fuel)
        for rule in bundle.rules:
            self.index.add(rule)
        self.bundles.append(bundle)

    def set_positions(self, line: int, table: str, name: str,
                      indices: List[int]) -> None:
        """`pragma ind(name) = {...}` or `pragma acc(name) = {...}`."""
        self._require_symbol(line, name)
        getattr(self.signature.structure, table)[name] = frozenset(indices)

    def prec_gt(self, line: int, left: str, right: str) -> None:
        self._require_symbol(line, left, right)
        self.signature.precedence.add_gt(left, right)

    def prec_eq(self, line: int, left: str, right: str) -> None:
        self._require_symbol(line, left, right)
        self.signature.precedence.add_eq(left, right)

    def assume(self, line: int, flag: str) -> None:
        setattr(self, flag, True)

    def add_non_algebraic(self, line: int, name: str) -> None:
        self._require_symbol(line, name)
        self.non_algebraic = self.non_algebraic | {name}

    def add_directive(self, line: int, kind: str, *spans) -> None:
        self.directives.append(Directive(kind, line, [
            self.term(self._item, s, {}) for s in spans]))

    def _require_symbol(self, line: int, *names: str) -> None:
        for name in names:
            if name not in self.signature:
                raise ElabError("unbound-name",
                                f"line {line}: unknown symbol {name}")


def _elaborate(program, span: Tuple[int, int], decls,
               scope: Dict[str, Variable],
               free: Optional[Dict[str, Variable]], table: dict) -> Term:
    """The term whose code is `span` of `program`'s (see
    `LoadedFile.term`), run with one stack of values.  `bound` maps each
    name bound by an open binder to that binder's depth, so an occurrence
    at depth d of a name bound at depth k is the index d - 1 - k, and no
    body is closed afterwards.  Every node is built through `table`,
    keyed by its class, its own data and the ids of its children, so
    equal subterms, binder hints included, are one object; the table
    keeps them alive, so no id is reused while it lives."""
    toks, first, radix = program.toks, program.first, program.radix
    get = table.get
    bound: Dict[str, int] = {}
    depth = 0
    # the values, and below the body of each open binder the depth its
    # name was bound at outside it, or None
    stack: list = []
    push = stack.append
    for c in program.code[span[0]:span[1]]:
        if c >= 0:  # a leaf
            name = toks[c - first]
            k = bound.get(name)
            if k is not None:
                key = (BVar, depth - 1 - k)
                n = get(key)
                if n is None:
                    n = table[key] = BVar(key[1])
                push(n)
                continue
            v = scope.get(name)
            if v is None:
                d = decls.get(name)
                if d is not None:
                    if d.arity != 0:
                        raise _first_error(program, span, decls, c,
                                           ElabError(
                            "arity-error", f"symbol {name} expects "
                            f"{d.arity} argument(s)", c))
                    key = (name,)
                    n = get(key)
                    if n is None:
                        n = table[key] = Symb(name, ())
                    push(n)
                    continue
                if name == "*":
                    push(STAR)
                    continue
                if free is None:
                    raise _first_error(program, span, decls, c, ElabError(
                        "unbound-name", f"unknown name {name}", c))
                v = free.get(name)
                if v is None:
                    v = free[name] = Variable.fresh(name, Sort.STAR)
            key = (Var, v.id)
            n = get(key)
            if n is None:
                n = table[key] = Var(v)
            push(n)
            continue
        op = ~c
        kind = op & 7
        if kind == SYMB:
            h = op >> 3
            arity = h // radix
            h -= arity * radix
            name = toks[h - first]
            d = decls.get(name)
            if d is None or d.arity != arity:
                raise _first_error(program, span, decls, c,
                                   _symbol_error(decls, name, h, arity))
            if arity == 1:  # the most common case, without a list
                a = stack[-1]
                key = (name, id(a))
                n = get(key)
                if n is None:
                    n = table[key] = Symb(name, (a,))
                stack[-1] = n
                continue
            cut = len(stack) - arity
            args = stack[cut:]
            del stack[cut:]
            key = (name, *map(id, args))
            n = get(key)
            if n is None:
                n = table[key] = Symb(name, tuple(args))
            push(n)
        elif kind > OPEN:  # ABS, PROD or ARROW closes a binder
            depth -= 1
            body = stack.pop()
            if kind == ARROW:  # an arrow binds no name
                x, node = "_", Prod
            else:
                x = toks[(op >> 3) - first]
                k = stack.pop()
                if k is None:
                    del bound[x]
                else:
                    bound[x] = k
                node = Abs if kind == ABS else Prod
            dom = stack[-1]
            key = (node, x, id(dom), id(body))
            n = get(key)
            if n is None:
                n = table[key] = node(dom, body, x)
            stack[-1] = n
        elif kind == OPEN:
            depth += 1
        elif kind == BIND:
            name = toks[(op >> 3) - first]
            push(bound.get(name))
            bound[name] = depth
            depth += 1
        else:  # APP
            arg = stack.pop()
            head = stack[-1]
            key = (App, id(head), id(arg))
            n = get(key)
            if n is None:
                n = table[key] = App(head, arg)
            stack[-1] = n
    return stack[0]


def _symbol_error(decls, name: str, at: int,
                  arity: int) -> Optional[ElabError]:
    """Why the symbol application at token `at` is wrong, if it is."""
    d = decls.get(name)
    if d is None:
        return ElabError("unbound-name", f"unknown symbol {name}", at)
    if d.arity != arity:
        return ElabError("arity-error", f"{name} expects {d.arity} "
                         f"argument(s), got {arity}", at)
    return None


def _first_error(program, span: Tuple[int, int], decls, c: int,
                 error: ElabError) -> ElabError:
    """The error met first in source order, where the code `c` fails
    with `error`.  Source order checks a symbol application before its
    arguments, the code after them: so the outermost failing one around
    c wins, and those are the symbol applications whose code comes after
    c and whose head comes before c's token."""
    code, radix = program.code, program.radix
    for op in reversed(code[code.index(c, *span) + 1:span[1]]):
        if op < 0 and ~op & 7 == SYMB:
            arity, h = divmod(~op >> 3, radix)
            if h < error.at:
                outer = _symbol_error(decls, program.toks[h - program.first],
                                      h, arity)
                if outer is not None:
                    return outer
    return error


def load(source: str, fuel: int = 10000) -> LoadedFile:
    """Parse the whole file, then elaborate its items in order.  Each
    item, with its tokens and code, is dropped once its method has taken
    it in."""
    items = parse(source)
    items.reverse()
    out = LoadedFile(fuel)
    try:
        while items:
            out._item = items.pop()
            method, line, args = out._item[:3]
            method(out, line, *args)
    except ElabError as e:
        raise e.located(source) from None
    # the declarations and directives hold their shared nodes; the
    # table's keys are no longer needed
    out._item = out._closed_terms = None
    return out
