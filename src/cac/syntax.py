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
from typing import Dict, List, NamedTuple, Optional

from .cic import InductiveDecl, translate_inductive
from .rewriting import RewriteRule
from .schema import derived_type
from .signature import Signature
from .positivity import is_predicate_term
from .terms import (App, CacError, Environment, Prod, Sort, STAR, Symb, Term,
                    Var, Variable, arrow, free_vars, is_kind, lam, pi,
                    positions_of, sort_class_of_type, subst_apply)


class ParseError(CacError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("parse-error", f"{line}:{col}: {message}")
        self.line = line
        self.col = col


UNICODE_ALIASES = {
    "★": "*", "→": "->", "⇒": "=>", "¬": "not", "∧": "/\\", "∨": "\\/",
    "⊤": "top", "⊥": "bot", "λ": "fun", "ℓ": "l",
}

# one alternative per token class, after optional blanks: a newline, a
# comment, punctuation, a name (the connective spellings are ordinary
# names), and any other character, which is an error.  In a str
# pattern, \w is exactly isalnum() plus "_".
_TOKEN = re.compile(r"[ \t\r]*(?:(\n)|(#[^\n]*)|(->|=>|:=|[()\[\]{}:,.*=>|])"
                    r"|(/\\|\\/|[\w']+)|([^ \t\r]))")
_NEWLINE, _COMMENT, _PUNCT, _NAME, _OTHER = 1, 2, 3, 4, 5


class Token(NamedTuple):
    kind: str   # "name" | "punct" | "eof"
    text: str
    line: int
    col: int


def lex(source: str) -> List[Token]:
    for u, a in UNICODE_ALIASES.items():
        if u in source:
            source = source.replace(u, f" {a} ")
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    m = None
    for m in _TOKEN.finditer(source):
        k = m.lastindex
        start, end = m.span(k)
        if k == _NAME:
            append(Token("name", source[start:end], line,
                         start - line_start + 1))
        elif k == _PUNCT:
            append(Token("punct", source[start:end], line,
                         start - line_start + 1))
        elif k == _NEWLINE:
            line += 1
            line_start = end
        elif k == _OTHER:
            raise ParseError(f"unexpected character {source[start]!r}",
                             line, start - line_start + 1)
    # a comment does not advance the column
    end = (m.start(_COMMENT) if m is not None and m.lastindex == _COMMENT
           else len(source))
    append(Token("eof", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# term AST (names unresolved until elaboration)


class PName(NamedTuple):
    name: str
    line: int
    col: int


class PStar(NamedTuple):
    pass


class PSymbApp(NamedTuple):
    name: str
    args: tuple
    line: int
    col: int


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
    def __init__(self, tokens: List[Token]):
        self.toks = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        # `next` never moves past the final eof, so only a look ahead can
        # fall off the end
        try:
            return self.toks[self.i + ahead]
        except IndexError:
            return self.toks[-1]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg + f" (found {t.text!r})", t.line, t.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise self.error(f"expected {text!r}")
        return self.next()

    def expect_name(self) -> Token:
        t = self.peek()
        if t.kind != "name":
            raise self.error("expected a name")
        return self.next()

    def _until(self, close: str, element) -> list:
        """Comma-separated `element()`s up to and including `close`."""
        out = []
        while self.peek().text != close:
            out.append(element())
            if self.peek().text == ",":
                self.next()
        self.expect(close)
        return out

    def _binding(self, sep: str) -> tuple:
        """`name sep term`, as in `x : T` and `x := t`."""
        x = self.expect_name().text
        self.expect(sep)
        return x, self.parse_term()

    # -- items ---------------------------------------------------------------

    def parse_file(self) -> List[Item]:
        items = []
        while self.peek().kind != "eof":
            items.append(self.parse_item())
        return items

    def parse_item(self) -> Item:
        t = self.peek()
        h = self.ITEMS.get(t.text)
        if h is None:
            raise self.error("expected a declaration, rule, pragma or "
                             "directive")
        self.next()
        method, args = h(self)
        self.expect(".")
        return Item(method, t.line, args)

    def _symbol(self):
        return LoadedFile.add_symbol, list(self._binding(":"))

    def _rule(self):
        lhs = self.parse_term(arrows=False)  # '->' separates sides
        self.expect("->")
        rhs = self.parse_term()
        env = rho = None
        if self.peek().text == "with":
            self.next()
            self.expect("env")
            self.expect("[")
            env = self._until("]", lambda: self._binding(":"))
            if self.peek().text == "rho":
                self.next()
                self.expect("{")
                rho = self._until("}", lambda: self._binding(":="))
        return LoadedFile.add_rule, [lhs, rhs, env, rho]

    def _inductive(self):
        name, typ = self._binding(":")
        ctors = []
        if self.peek().text == ":=":
            self.next()
            ctors.append(self._binding(":"))
            while self.peek().text == "|":
                self.next()
                ctors.append(self._binding(":"))
        return LoadedFile.add_inductive, [name, typ, ctors]

    def _index(self) -> int:
        tok = self.expect_name()
        if not tok.text.isdigit():
            raise ParseError("expected an argument index", tok.line, tok.col)
        return int(tok.text)

    def _pragma(self):
        kind = self.expect_name().text
        if kind in ("ind", "acc"):
            self.expect("(")
            name = self.expect_name().text
            self.expect(")")
            self.expect("=")
            self.expect("{")
            return LoadedFile.set_positions, [kind, name,
                                              self._until("}", self._index)]
        if kind == "prec":
            a = self.expect_name().text
            op = self.next().text
            if op not in (">", "="):
                raise self.error("expected '>' or '=' in a precedence pragma")
            b = self.expect_name().text
            return (LoadedFile.prec_gt if op == ">" else LoadedFile.prec_eq,
                    [a, b])
        if kind in ("assume_confluent", "assume_terminating"):
            return LoadedFile.assume, [kind]
        if kind == "non_algebraic":
            return LoadedFile.add_non_algebraic, [self.expect_name().text]
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
            if tok.kind == "name":
                if tok.text in ("with", "env", "rho"):
                    break
            elif tok.text != "*" and tok.text != "(":
                break
            t = PApp(t, self.parse_atom())
        if arrows and tok.text == "->":
            self.i += 1
            return PProd(None, t, self.parse_term())
        return t

    def _binder_ahead(self) -> bool:
        return (self.peek().text == "(" and self.peek(1).kind == "name"
                and self.peek(2).text == ":")

    def parse_atom(self):
        tok = self.toks[self.i]
        text = tok.text
        if text == "*":
            self.i += 1
            return PStar()
        if text == "fun":
            self.i += 1
            self.expect("(")
            x = self.expect_name().text
            self.expect(":")
            dom = self.parse_term()
            self.expect(")")
            self.expect("=>")
            return PAbs(x, dom, self.parse_term())
        if text == "(":
            if self._binder_ahead():
                self.i += 1
                x = self.expect_name().text
                self.expect(":")
                dom = self.parse_term()
                self.expect(")")
                self.expect("->")
                return PProd(x, dom, self.parse_term())
            self.i += 1
            t = self.parse_term()
            self.expect(")")
            return t
        if tok.kind == "name":
            self.i += 1
            if self.toks[self.i].text == "(" and not self._binder_ahead():
                self.i += 1
                args = []
                while self.toks[self.i].text != ")":
                    args.append(self.parse_term())
                    if self.toks[self.i].text == ",":
                        self.i += 1
                self.expect(")")
                return PSymbApp(text, tuple(args), tok.line, tok.col)
            return PName(text, tok.line, tok.col)
        raise self.error("expected a term")


def parse(source: str) -> List[Item]:
    return Parser(lex(source)).parse_file()


# ---------------------------------------------------------------------------
# elaboration


class ElabError(CacError):
    pass


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
        self.rules: List[RewriteRule] = []
        self.directives: List[Directive] = []
        self.assume_confluent = False
        self.assume_terminating = False
        self.non_algebraic: frozenset = frozenset()
        self.bundles: list = []

    def term(self, p, scope: Dict[str, Variable],
             free: Optional[Dict[str, Variable]] = None) -> Term:
        """Resolve a parsed term: bound names from `scope`, then symbols
        from the signature; other names are errors, or fresh variables
        shared through `free` when it is given."""
        if isinstance(p, PStar):
            return STAR
        if isinstance(p, PName):
            if p.name in scope:
                return Var(scope[p.name])
            if p.name in self.signature:
                d = self.signature[p.name]
                if d.arity != 0:
                    raise ElabError(
                        "arity-error",
                        f"{p.line}:{p.col}: symbol {p.name} expects "
                        f"{d.arity} argument(s)")
                return Symb(p.name, ())
            if free is not None:
                if p.name not in free:
                    free[p.name] = Variable.fresh(p.name, Sort.STAR)
                return Var(free[p.name])
            raise ElabError("unbound-name",
                            f"{p.line}:{p.col}: unknown name {p.name}")
        if isinstance(p, PSymbApp):
            if p.name not in self.signature:
                raise ElabError("unbound-name",
                                f"{p.line}:{p.col}: unknown symbol {p.name}")
            d = self.signature[p.name]
            if d.arity != len(p.args):
                raise ElabError(
                    "arity-error",
                    f"{p.line}:{p.col}: {p.name} expects {d.arity} "
                    f"argument(s), got {len(p.args)}")
            return Symb(p.name, tuple(self.term(a, scope, free)
                                      for a in p.args))
        if isinstance(p, PApp):
            return App(self.term(p.head, scope, free),
                       self.term(p.arg, scope, free))
        if isinstance(p, PAbs):
            dom = self.term(p.domain, scope, free)
            v = Variable.fresh(p.var, sort_class_of_type(dom))
            inner = dict(scope)
            inner[p.var] = v
            return lam(v, dom, self.term(p.body, inner, free))
        if isinstance(p, PProd):
            dom = self.term(p.domain, scope, free)
            if p.var is None:
                return arrow(dom, self.term(p.codomain, scope, free))
            v = Variable.fresh(p.var, sort_class_of_type(dom))
            inner = dict(scope)
            inner[p.var] = v
            return pi(v, dom, self.term(p.codomain, inner, free))
        raise ElabError("internal", f"unknown parse node {p!r}")

    # -- items: each takes the item's line, then what the parser read -------

    def add_symbol(self, line: int, name: str, ptype) -> None:
        typ = self.term(ptype, {})
        arity = 0
        t = typ
        while isinstance(t, Prod):
            arity += 1
            t = t.codomain
        self.signature.declare(name, arity, typ, self.rules, fuel=self.fuel)

    def add_rule(self, line: int, lhs, rhs, env, rho) -> None:
        name = f"rule{len(self.rules) + 1}"
        if env is not None:
            rule = self._annotated_rule(name, lhs, rhs, env, rho)
        else:
            rule = self._inferred_rule(name, lhs, rhs, line)
        self.rules.append(rule)

    def _annotated_rule(self, name: str, plhs, prhs, penv,
                        prho) -> RewriteRule:
        scope: Dict[str, Variable] = {}
        env = Environment()
        for x, ptyp in penv:
            typ = self.term(ptyp, scope)
            v = Variable.fresh(x, Sort.BOX if is_kind(typ) else Sort.STAR)
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
        # correct the sort classes and rebuild
        repl: Dict[Variable, Term] = {}
        fixed: Dict[Variable, Variable] = {}
        for v, typ in types.items():
            sort = Sort.BOX if is_kind(typ) else Sort.STAR
            nv = v if v.sort == sort else Variable.fresh(v.name, sort)
            fixed[v] = nv
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
        bundle = translate_inductive(decl, self.signature, fuel=self.fuel)
        self.rules.extend(bundle.rules)
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
        self.directives.append(
            Directive(kind, line, [self.term(p, {}) for p in parsed]))

    def _require_symbol(self, line: int, *names: str) -> None:
        for name in names:
            if name not in self.signature:
                raise ElabError("unbound-name",
                                f"line {line}: unknown symbol {name}")


def load(source: str, fuel: int = 10000) -> LoadedFile:
    """Parse the whole file, then elaborate its items in order."""
    items = parse(source)
    out = LoadedFile(fuel)
    for item in items:
        item.method(out, item.line, *item.args)
    return out
