"""Surface syntax: lexer, recursive-descent parser and incremental
elaborator for declaration files.

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
from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Tuple

from .cic import InductiveDecl, translate_inductive
from .rewriting import RewriteRule, RuleSet
from .schema import derived_type
from .signature import Signature
from .positivity import is_predicate_term
from .terms import (Abs, App, BVar, CacError, Environment, Prod, Sort, STAR,
                    Symb, Term, Var, Variable, free_vars, positions_of,
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
# term AST (names unresolved until elaboration; `at` is a token index)


class PName(NamedTuple):
    name: str
    at: int


class PStar(NamedTuple):
    pass


class PSymbApp(NamedTuple):
    name: str
    args: tuple
    at: int


class PApp(NamedTuple):
    head: object
    arg: object


class PAbs(NamedTuple):
    var: str
    domain: object
    body: object


class PProd(NamedTuple):
    var: Optional[str]   # None for a plain arrow
    domain: object
    codomain: object


class Item(NamedTuple):
    """One parsed item: the `LoadedFile` method that takes it in, called
    with the item's line and then `args`."""
    method: object
    line: int
    args: list


class Parser:
    """Recursive descent over the token texts of one source.  An error
    carries the index of its token, as `ParseError.at`."""

    def __init__(self, source: str):
        self.toks, self.marks = _texts(source)
        self.i = 0

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
        start = self.i
        h = self.ITEMS.get(self.toks[start])
        if h is None:
            raise self.error("expected a declaration, rule, pragma or "
                             "directive")
        self.i += 1
        method, args = h(self)
        self.expect(".")
        return Item(method, 1 + bisect_right(self.marks, start), args)

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

    def parse_term(self, arrows: bool = True):
        """Application by juxtaposition (left associative), then arrows
        (right associative) unless `arrows` is off."""
        t = self.parse_atom()
        toks = self.toks
        while True:
            tok = toks[self.i]
            if tok in _NOT_NAME:
                if tok != "*" and tok != "(":
                    break
            elif tok == "with":  # only a rule's annotation follows a term
                break
            t = PApp(t, self.parse_atom())
        if arrows and tok == "->":
            self.i += 1
            return PProd(None, t, self.parse_term())
        return t

    def _binder_ahead(self) -> bool:
        """Whether `( name :` starts here.  Neither "(" nor a name is the
        final eof, so each index after it exists."""
        toks, i = self.toks, self.i
        return (toks[i] == "(" and toks[i + 1] not in _NOT_NAME
                and toks[i + 2] == ":")

    def parse_atom(self):
        i = self.i
        toks = self.toks
        text = toks[i]
        if text == "*":
            self.i = i + 1
            return PStar()
        if text == "fun":
            self.i = i + 1
            self.expect("(")
            x = self.expect_name()
            self.expect(":")
            dom = self.parse_term()
            self.expect(")")
            self.expect("=>")
            return PAbs(x, dom, self.parse_term())
        if text == "(":
            if self._binder_ahead():
                self.i = i + 1
                x = self.expect_name()
                self.expect(":")
                dom = self.parse_term()
                self.expect(")")
                self.expect("->")
                return PProd(x, dom, self.parse_term())
            self.i = i + 1
            t = self.parse_term()
            self.expect(")")
            return t
        if text not in _NOT_NAME:
            self.i = i + 1
            if toks[i + 1] == "(" and not self._binder_ahead():
                self.i = i + 2
                args = []
                while toks[self.i] != ")":
                    args.append(self.parse_term())
                    if toks[self.i] == ",":
                        self.i += 1
                self.i += 1  # the ")" that ended the loop
                return PSymbApp(text, tuple(args), i)
            return PName(text, i)
        raise self.error("expected a term")


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
        # one table for every directive term, so equal subterms across
        # directives are one object, which a command normalizes and
        # prints once
        self._directive_terms = _Elaboration(self.signature.decls, {}, None)

    @property
    def rules(self) -> List[RewriteRule]:
        """The rules loaded so far, in order: the index's own list."""
        return self.index.rules

    def term(self, p, scope: Dict[str, Variable],
             free: Optional[Dict[str, Variable]] = None) -> Term:
        """Resolve a parsed term: bound names to de Bruijn indices, names
        in `scope` to their variables, then symbols from the signature;
        other names are errors, or fresh variables shared through `free`
        when it is given.  Equal subterms of the result are one object."""
        return _Elaboration(self.signature.decls, scope, free).term(p, 0)

    # -- items: each takes the item's line, then what the parser read -------

    def add_symbol(self, line: int, name: str, ptype) -> None:
        typ = self.term(ptype, {})
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
        scope: Dict[str, Variable] = {}
        env = Environment()
        for x, ptyp in penv:
            typ = self.term(ptyp, scope)
            v = Variable.fresh(x, sort_class_of_type(typ))
            scope[x] = v
            env = env.extend(v, typ)
        rho: Dict[Variable, Term] = {}
        for x, pimg in prho or ():
            img = self.term(pimg, scope)
            sort = (Sort.BOX if is_predicate_term(img, self.signature)
                    else Sort.STAR)
            v = Variable.fresh(x, sort)
            scope[x] = v
            rho[v] = img
        lhs = self.term(plhs, scope)
        rhs = self.term(prhs, scope)
        return RewriteRule(name, lhs, rhs, env, rho)

    def _inferred_rule(self, name: str, plhs, prhs,
                       line: int) -> RewriteRule:
        free: Dict[str, Variable] = {}
        lhs = self.term(plhs, {}, free)
        rhs = self.term(prhs, {}, free)
        if not isinstance(lhs, Symb):
            raise ElabError("bad-lhs",
                            f"line {line}: rule left-hand side must be a "
                            "symbol application")
        # infer each variable's declared type from its first occurrence
        types: Dict[Variable, Term] = {}
        for v in free.values():
            occ = sorted(positions_of(lhs, v))
            if not occ:
                raise ElabError(
                    "bad-rhs",
                    f"line {line}: variable {v.name} does not occur in the "
                    "left-hand side; annotate the rule explicitly")
            types[v] = derived_type(lhs, occ[0], self.signature)
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
        # environment in dependency order (types may mention other vars)
        order: List[Variable] = []
        remaining = dict(types)
        while remaining:
            progressed = False
            for v in sorted(remaining, key=lambda w: w.id):
                if free_vars(remaining[v]) <= set(order):
                    order.append(v)
                    del remaining[v]
                    progressed = True
            if not progressed:
                raise ElabError(
                    "bad-env",
                    f"line {line}: cyclic dependencies among inferred "
                    "variable types; annotate the rule explicitly")
        env = Environment.of((v, types[v]) for v in order)
        return RewriteRule(name, lhs, rhs, env, {})

    def add_inductive(self, line: int, name: str, ptype, pctors) -> None:
        arity_type = self.term(ptype, {})
        self_var = Variable.fresh(name, Sort.BOX)
        ctors = tuple((cname, self.term(ptyp, {name: self_var}))
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

    def add_directive(self, line: int, kind: str, *parsed) -> None:
        table = self._directive_terms
        self.directives.append(
            Directive(kind, line, [table.term(p, 0) for p in parsed]))

    def _require_symbol(self, line: int, *names: str) -> None:
        for name in names:
            if name not in self.signature:
                raise ElabError("unbound-name",
                                f"line {line}: unknown symbol {name}")


class _Elaboration:
    """One top-level `LoadedFile.term` call.  `bound` maps each name bound
    by an enclosing binder to that binder's depth, set and restored
    around the binder's body, so an occurrence at depth d of a name bound
    at depth k is the index d - 1 - k, and no body is closed afterwards.
    Every node is built through `table`, keyed by its class, its own data
    and the ids of its children, so equal subterms, binder hints
    included, are one object; the table keeps them alive, so no id is
    reused while it lives.  It lives for this call only, except the
    table of a file's directive terms, which lives while the file loads."""

    __slots__ = ("decls", "scope", "free", "bound", "table")

    def __init__(self, decls, scope: Dict[str, Variable],
                 free: Optional[Dict[str, Variable]]):
        self.decls = decls
        self.scope = scope
        self.free = free
        self.bound: Dict[str, int] = {}
        self.table: dict = {}

    def term(self, p, depth: int) -> Term:
        """p under `depth` binders."""
        cls = p.__class__
        table = self.table
        if cls is PSymbApp:
            d = self.decls.get(p.name)
            if d is None:
                raise ElabError("unbound-name", f"unknown symbol {p.name}",
                                p.at)
            if d.arity != len(p.args):
                raise ElabError(
                    "arity-error", f"{p.name} expects {d.arity} "
                    f"argument(s), got {len(p.args)}", p.at)
            args = []
            for a in p.args:
                args.append(self.term(a, depth))
            key = (p.name, *map(id, args))
            n = table.get(key)
            if n is None:
                n = table[key] = Symb(p.name, tuple(args))
            return n
        if cls is PName:
            name = p.name
            k = self.bound.get(name)
            if k is not None:
                key = (BVar, depth - 1 - k)
                n = table.get(key)
                if n is None:
                    n = table[key] = BVar(key[1])
                return n
            v = self.scope.get(name)
            if v is None:
                d = self.decls.get(name)
                if d is not None:
                    if d.arity != 0:
                        raise ElabError(
                            "arity-error",
                            f"symbol {name} expects {d.arity} argument(s)",
                            p.at)
                    key = (name,)
                    n = table.get(key)
                    if n is None:
                        n = table[key] = Symb(name, ())
                    return n
                if self.free is None:
                    raise ElabError("unbound-name", f"unknown name {name}",
                                    p.at)
                v = self.free.get(name)
                if v is None:
                    v = self.free[name] = Variable.fresh(name, Sort.STAR)
            key = (Var, v.id)
            n = table.get(key)
            if n is None:
                n = table[key] = Var(v)
            return n
        if cls is PApp:
            head = self.term(p.head, depth)
            arg = self.term(p.arg, depth)
            key = (App, id(head), id(arg))
            n = table.get(key)
            if n is None:
                n = table[key] = App(head, arg)
            return n
        if cls is PStar:
            return STAR
        if cls is PAbs or cls is PProd:
            x, pdom, pbody = p
            dom = self.term(pdom, depth)
            if x is None:  # an arrow binds no name
                x = "_"
                body = self.term(pbody, depth + 1)
            else:
                bound = self.bound
                outer = bound.get(x)
                bound[x] = depth
                body = self.term(pbody, depth + 1)
                if outer is None:
                    del bound[x]
                else:
                    bound[x] = outer
            node = Abs if cls is PAbs else Prod
            key = (node, x, id(dom), id(body))
            n = table.get(key)
            if n is None:
                n = table[key] = node(dom, body, x)
            return n
        raise ElabError("internal", f"unknown parse node {p!r}")


def load(source: str, fuel: int = 10000) -> LoadedFile:
    """Parse the whole file, then elaborate its items in order.  Each
    item is dropped once its method has taken it in, so the parse of the
    items already elaborated is not held beside the file they built."""
    items = parse(source)
    items.reverse()
    out = LoadedFile(fuel)
    try:
        while items:
            method, line, args = items.pop()
            method(out, line, *args)
    except ElabError as e:
        raise e.located(source) from None
    # the directives hold their shared nodes; the table's keys are no
    # longer needed
    out._directive_terms = None
    return out
