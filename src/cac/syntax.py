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
from dataclasses import dataclass, field
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


@dataclass
class Item:
    kind: str            # symbol | rule | inductive | pragma | directive
    payload: dict
    line: int


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

    # -- items ---------------------------------------------------------------

    def parse_file(self) -> List[Item]:
        items = []
        while self.peek().kind != "eof":
            items.append(self.parse_item())
        return items

    def parse_item(self) -> Item:
        t = self.peek()
        handlers = {"symbol": self._symbol, "rule": self._rule,
                    "inductive": self._inductive, "pragma": self._pragma,
                    "check": self._check, "normalize": self._normalize,
                    "convert": self._convert}
        h = handlers.get(t.text)
        if h is None:
            raise self.error("expected a declaration, rule, pragma or "
                             "directive")
        self.next()
        item = h(t)
        self.expect(".")
        return item

    def _symbol(self, t: Token) -> Item:
        name = self.expect_name().text
        self.expect(":")
        typ = self.parse_term()
        return Item("symbol", {"name": name, "type": typ}, t.line)

    def _rule(self, t: Token) -> Item:
        lhs = self.parse_term(arrows=False)  # '->' separates sides
        self.expect("->")
        rhs = self.parse_term()
        env = None
        rho = None
        if self.peek().text == "with":
            self.next()
            self.expect("env")
            self.expect("[")
            env = []
            while self.peek().text != "]":
                x = self.expect_name().text
                self.expect(":")
                env.append((x, self.parse_term()))
                if self.peek().text == ",":
                    self.next()
            self.expect("]")
            rho = []
            if self.peek().text == "rho":
                self.next()
                self.expect("{")
                while self.peek().text != "}":
                    x = self.expect_name().text
                    self.expect(":=")
                    rho.append((x, self.parse_term()))
                    if self.peek().text == ",":
                        self.next()
                self.expect("}")
        return Item("rule", {"lhs": lhs, "rhs": rhs, "env": env,
                             "rho": rho}, t.line)

    def _inductive(self, t: Token) -> Item:
        name = self.expect_name().text
        self.expect(":")
        typ = self.parse_term()
        ctors = []
        if self.peek().text == ":=":
            self.next()
            while True:
                cname = self.expect_name().text
                self.expect(":")
                ctors.append((cname, self.parse_term()))
                if self.peek().text == "|":
                    self.next()
                    continue
                break
        return Item("inductive", {"name": name, "type": typ,
                                  "ctors": ctors}, t.line)

    def _pragma(self, t: Token) -> Item:
        kind = self.expect_name().text
        if kind in ("ind", "acc"):
            self.expect("(")
            name = self.expect_name().text
            self.expect(")")
            self.expect("=")
            self.expect("{")
            idxs = []
            while self.peek().text != "}":
                tok = self.expect_name()
                if not tok.text.isdigit():
                    raise ParseError("expected an argument index",
                                     tok.line, tok.col)
                idxs.append(int(tok.text))
                if self.peek().text == ",":
                    self.next()
            self.expect("}")
            return Item("pragma", {"kind": kind, "name": name,
                                   "indices": idxs}, t.line)
        if kind == "prec":
            a = self.expect_name().text
            op = self.next().text
            if op not in (">", "="):
                raise self.error("expected '>' or '=' in a precedence pragma")
            b = self.expect_name().text
            return Item("pragma", {"kind": "prec", "op": op,
                                   "left": a, "right": b}, t.line)
        if kind in ("assume_confluent", "assume_terminating"):
            return Item("pragma", {"kind": kind}, t.line)
        if kind == "non_algebraic":
            name = self.expect_name().text
            return Item("pragma", {"kind": kind, "name": name}, t.line)
        raise self.error(f"unknown pragma {kind!r}")

    def _check(self, t: Token) -> Item:
        term = self.parse_term()
        self.expect(":")
        typ = self.parse_term()
        return Item("directive", {"kind": "check", "term": term,
                                  "type": typ}, t.line)

    def _normalize(self, t: Token) -> Item:
        return Item("directive", {"kind": "normalize",
                                  "term": self.parse_term()}, t.line)

    def _convert(self, t: Token) -> Item:
        a = self.parse_term()
        self.expect(",")
        b = self.parse_term()
        return Item("directive", {"kind": "convert", "left": a,
                                  "right": b}, t.line)

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


@dataclass
class Directive:
    kind: str            # check | normalize | convert
    line: int
    terms: List[Term]


@dataclass
class LoadedFile:
    signature: Signature
    rules: List[RewriteRule]
    directives: List[Directive]
    assume_confluent: bool = False
    assume_terminating: bool = False
    non_algebraic: frozenset = frozenset()
    bundles: list = field(default_factory=list)


class Elaborator:
    def __init__(self, fuel: int = 10000):
        self.sig = Signature()
        self.rules: List[RewriteRule] = []
        self.fuel = fuel

    def term(self, p, scope: Dict[str, Variable],
             allow_free: bool = False,
             free_out: Optional[Dict[str, Variable]] = None) -> Term:
        """Resolve a parsed term: bound names from `scope`, then symbols
        from the signature; other names are fresh variables when
        `allow_free` (shared through free_out), otherwise errors."""
        if isinstance(p, PStar):
            return STAR
        if isinstance(p, PName):
            if p.name in scope:
                return Var(scope[p.name])
            if p.name in self.sig:
                d = self.sig[p.name]
                if d.arity != 0:
                    raise ElabError(
                        "arity-error",
                        f"{p.line}:{p.col}: symbol {p.name} expects "
                        f"{d.arity} argument(s)")
                return Symb(p.name, ())
            if allow_free:
                assert free_out is not None
                if p.name not in free_out:
                    free_out[p.name] = Variable.fresh(p.name, Sort.STAR)
                return Var(free_out[p.name])
            raise ElabError("unbound-name",
                            f"{p.line}:{p.col}: unknown name {p.name}")
        if isinstance(p, PSymbApp):
            if p.name not in self.sig:
                raise ElabError("unbound-name",
                                f"{p.line}:{p.col}: unknown symbol {p.name}")
            d = self.sig[p.name]
            if d.arity != len(p.args):
                raise ElabError(
                    "arity-error",
                    f"{p.line}:{p.col}: {p.name} expects {d.arity} "
                    f"argument(s), got {len(p.args)}")
            return Symb(p.name, tuple(
                self.term(a, scope, allow_free, free_out) for a in p.args))
        if isinstance(p, PApp):
            return App(self.term(p.head, scope, allow_free, free_out),
                       self.term(p.arg, scope, allow_free, free_out))
        if isinstance(p, PAbs):
            dom = self.term(p.domain, scope, allow_free, free_out)
            v = Variable.fresh(p.var, sort_class_of_type(dom))
            inner = dict(scope)
            inner[p.var] = v
            return lam(v, dom, self.term(p.body, inner, allow_free, free_out))
        if isinstance(p, PProd):
            dom = self.term(p.domain, scope, allow_free, free_out)
            if p.var is None:
                return arrow(dom, self.term(p.codomain, scope,
                                            allow_free, free_out))
            v = Variable.fresh(p.var, sort_class_of_type(dom))
            inner = dict(scope)
            inner[p.var] = v
            return pi(v, dom, self.term(p.codomain, inner,
                                        allow_free, free_out))
        raise ElabError("internal", f"unknown parse node {p!r}")

    # -- items ---------------------------------------------------------------

    def add_symbol(self, name: str, ptype) -> None:
        typ = self.term(ptype, {})
        arity = 0
        t = typ
        while isinstance(t, Prod):
            arity += 1
            t = t.codomain
        self.sig.declare(name, arity, typ, self.rules, fuel=self.fuel)

    def add_rule(self, payload: dict, line: int) -> RewriteRule:
        name = f"rule{len(self.rules) + 1}"
        if payload["env"] is not None:
            rule = self._annotated_rule(name, payload)
        else:
            rule = self._inferred_rule(name, payload, line)
        self.rules.append(rule)
        return rule

    def _annotated_rule(self, name: str, payload: dict) -> RewriteRule:
        scope: Dict[str, Variable] = {}
        env = Environment()
        for x, ptyp in payload["env"]:
            typ = self.term(ptyp, scope)
            v = Variable.fresh(x, Sort.BOX if is_kind(typ) else Sort.STAR)
            scope[x] = v
            env = env.extend(v, typ)
        rho: Dict[Variable, Term] = {}
        for x, pimg in payload["rho"] or []:
            img = self.term(pimg, scope)
            sort = Sort.BOX if is_predicate_term(img, self.sig) else Sort.STAR
            v = Variable.fresh(x, sort)
            scope[x] = v
            rho[v] = img
        lhs = self.term(payload["lhs"], scope)
        rhs = self.term(payload["rhs"], scope)
        return RewriteRule(name, lhs, rhs, env, rho)

    def _inferred_rule(self, name: str, payload: dict,
                       line: int) -> RewriteRule:
        free: Dict[str, Variable] = {}
        lhs = self.term(payload["lhs"], {}, allow_free=True, free_out=free)
        rhs = self.term(payload["rhs"], {}, allow_free=True, free_out=free)
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
            types[v] = derived_type(lhs, occ[0], self.sig)
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

    def add_inductive(self, payload: dict) -> None:
        name = payload["name"]
        arity_type = self.term(payload["type"], {})
        self_var = Variable.fresh(name, Sort.BOX)
        ctors = []
        for cname, ptyp in payload["ctors"]:
            ctors.append((cname, self.term(ptyp, {name: self_var})))
        decl = InductiveDecl(name, arity_type, self_var, tuple(ctors))
        bundle = translate_inductive(decl, self.sig, fuel=self.fuel)
        self.rules.extend(bundle.rules)
        return bundle


def load(source: str, fuel: int = 10000) -> LoadedFile:
    items = parse(source)
    elab = Elaborator(fuel=fuel)
    out = LoadedFile(elab.sig, elab.rules, [])
    for item in items:
        if item.kind == "symbol":
            elab.add_symbol(item.payload["name"], item.payload["type"])
        elif item.kind == "rule":
            elab.add_rule(item.payload, item.line)
        elif item.kind == "inductive":
            out.bundles.append(elab.add_inductive(item.payload))
        elif item.kind == "pragma":
            _apply_pragma(elab, out, item)
        elif item.kind == "directive":
            d = item.payload
            if d["kind"] == "check":
                out.directives.append(Directive(
                    "check", item.line,
                    [elab.term(d["term"], {}), elab.term(d["type"], {})]))
            elif d["kind"] == "normalize":
                out.directives.append(Directive(
                    "normalize", item.line, [elab.term(d["term"], {})]))
            else:
                out.directives.append(Directive(
                    "convert", item.line,
                    [elab.term(d["left"], {}), elab.term(d["right"], {})]))
    return out


def _apply_pragma(elab: Elaborator, out: LoadedFile, item: Item) -> None:
    p = item.payload
    if p["kind"] == "ind":
        _require_symbol(elab, p["name"], item)
        elab.sig.structure.ind[p["name"]] = frozenset(p["indices"])
    elif p["kind"] == "acc":
        _require_symbol(elab, p["name"], item)
        elab.sig.structure.acc[p["name"]] = frozenset(p["indices"])
    elif p["kind"] == "prec":
        _require_symbol(elab, p["left"], item)
        _require_symbol(elab, p["right"], item)
        if p["op"] == ">":
            elab.sig.precedence.add_gt(p["left"], p["right"])
        else:
            elab.sig.precedence.add_eq(p["left"], p["right"])
    elif p["kind"] == "assume_confluent":
        out.assume_confluent = True
    elif p["kind"] == "assume_terminating":
        out.assume_terminating = True
    elif p["kind"] == "non_algebraic":
        _require_symbol(elab, p["name"], item)
        out.non_algebraic = out.non_algebraic | {p["name"]}


def _require_symbol(elab: Elaborator, name: str, item: Item) -> None:
    if name not in elab.sig:
        raise ElabError("unbound-name",
                        f"line {item.line}: unknown symbol {name}")
