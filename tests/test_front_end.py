"""The iterative front end against the recursive one it replaced.

`RefParser` and `_RefElaboration` are the recursive-descent term parser
and the recursive elaborator that `syntax.Parser.parse_term` and
`syntax._elaborate` replaced, kept here to compare against: every case
must give equal terms with the same binder hints and the same number of
distinct node objects, or fail with the same error class, code and
located message."""

import itertools
import random
from typing import NamedTuple, Optional

import pytest

import cac.terms
from cac import ParseError, load
from cac.cli import _parse_expr
from cac.syntax import _NOT_NAME, ElabError, LoadedFile, Parser, parse
from cac.terms import (Abs, App, BVar, CacError, Prod, STAR, Sort, SortT,
                       Symb, Var, Variable)
from tests.conftest import CORPUS


# ---------------------------------------------------------------------------
# the reference: parse trees, a recursive parser and a recursive elaborator


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


class RefParser(Parser):
    """The items of `Parser`, with terms read by recursive descent into
    parse trees."""

    def parse_term(self, arrows: bool = True):
        t = self.parse_atom()
        toks = self.toks
        while True:
            tok = toks[self.i]
            if tok in _NOT_NAME:
                if tok != "*" and tok != "(":
                    break
            elif tok == "with":
                break
            t = PApp(t, self.parse_atom())
        if arrows and tok == "->":
            self.i += 1
            return PProd(None, t, self.parse_term())
        return t

    def _binder_ahead(self) -> bool:
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
                self.i += 1
                return PSymbApp(text, tuple(args), i)
            return PName(text, i)
        raise self.error("expected a term")


class _RefElaboration:
    """One recursive walk of a parse tree, hash-consed through `table`."""

    def __init__(self, decls, scope, free):
        self.decls = decls
        self.scope = scope
        self.free = free
        self.bound = {}
        self.table = {}

    def term(self, p, depth):
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
            args = [self.term(a, depth) for a in p.args]
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
        x, pdom, pbody = p
        dom = self.term(pdom, depth)
        if x is None:
            x = "_"
            body = self.term(pbody, depth + 1)
        else:
            outer = self.bound.get(x)
            self.bound[x] = depth
            body = self.term(pbody, depth + 1)
            if outer is None:
                del self.bound[x]
            else:
                self.bound[x] = outer
        node = Abs if cls is PAbs else Prod
        key = (node, x, id(dom), id(body))
        n = table.get(key)
        if n is None:
            n = table[key] = node(dom, body, x)
        return n


class RefLoadedFile(LoadedFile):
    """A `LoadedFile` whose terms are parse trees, elaborated
    recursively."""

    def __init__(self, fuel=10000):
        super().__init__(fuel)
        # one walk, and so one table, for every closed term of the file
        self._ref_table = _RefElaboration(self.signature.decls, {}, None)

    def term(self, program, p, scope, free=None):
        if not scope and free is None:
            return self._ref_table.term(p, 0)
        return _RefElaboration(self.signature.decls, scope, free).term(p, 0)


def ref_load(source, fuel=10000):
    try:
        items = RefParser(source).parse_file()
    except ParseError as e:
        raise e.located(source) from None
    out = RefLoadedFile(fuel)
    try:
        for item in items:
            # by name, so that the overrides above take the item in
            getattr(out, item.method.__name__)(item.line, *item.args)
    except ElabError as e:
        raise e.located(source) from None
    return out


def ref_parse_expr(loaded, text):
    try:
        parser = RefParser(text)
        p = parser.parse_term()
        if parser.peek():
            raise ParseError(f"trailing input {parser.peek()!r}", parser.i)
        return _RefElaboration(loaded.signature.decls, {}, None).term(p, 0)
    except ParseError as e:
        raise e.located(text) from None


# ---------------------------------------------------------------------------
# comparing outcomes


def _shape(t):
    """Every node of t in pre-order with its own data, binder hints and
    variable ids included, walked with a stack."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Symb:
            out.append(("Symb", t.name, len(t.args)))
            stack.extend(reversed(t.args))
        elif cls is Var:
            out.append(("Var", t.var.id, t.var.sort, t.var.name))
        elif cls is BVar:
            out.append(("BVar", t.index))
        elif cls is SortT:
            out.append(("Sort", t.sort))
        elif cls is App:
            out.append(("App",))
            stack += [t.arg, t.head]
        else:
            body = t.body if cls is Abs else t.codomain
            out.append((cls.__name__, t.hint))
            stack += [body, t.domain]
    return out


def _nodes(terms):
    """The number of distinct node objects reachable from terms."""
    seen, stack = set(), list(terms)
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        cls = t.__class__
        if cls is Symb:
            stack.extend(t.args)
        elif cls is App:
            stack += [t.head, t.arg]
        elif cls is Abs:
            stack += [t.domain, t.body]
        elif cls is Prod:
            stack += [t.domain, t.codomain]
    return len(seen)


def _term(t):
    return (t, _shape(t), _nodes([t]))


def _summary(lf):
    """What a loaded file holds, each term with its shape and node count;
    the directives' terms share one table, so they are counted
    together."""
    decls = [(name, d.arity, _term(d.typ))
             for name, d in lf.signature.decls.items()]
    rules = [(r.name, _term(r.lhs), _term(r.rhs),
              [(v.id, v.sort, v.name, _term(t)) for v, t in r.ann_env],
              [(v.id, v.sort, v.name, _term(t))
               for v, t in r.ann_subst.items()])
             for r in lf.rules]
    directives = [(d.kind, d.line, [_term(t) for t in d.terms])
                  for d in lf.directives]
    shared = _nodes([t for d in lf.directives for t in d.terms])
    flags = (lf.assume_confluent, lf.assume_terminating, lf.non_algebraic)
    return decls, rules, directives, shared, flags


def _outcome(run, summarize):
    """The summary of run(), or its error; fresh variables are numbered
    from the same start on both sides, so their ids compare."""
    saved = cac.terms._var_ids
    cac.terms._var_ids = itertools.count(10 ** 9)
    try:
        return "ok", summarize(run())
    except CacError as e:
        return "error", type(e), e.code, e.message
    finally:
        cac.terms._var_ids = saved


def _same_load(source):
    got = _outcome(lambda: load(source), _summary)
    assert got == _outcome(lambda: ref_load(source), _summary), source
    return got[0] if got[0] == "ok" else got[1]


def _same_expr(loaded, text):
    got = _outcome(lambda: _parse_expr(loaded, text), _term)
    assert got == _outcome(lambda: ref_parse_expr(loaded, text), _term), \
        text
    return got[0] if got[0] == "ok" else got[1]


# ---------------------------------------------------------------------------
# the cases


def test_corpus_files_load_as_before():
    for path in sorted(CORPUS.glob("*.cac")):
        assert _same_load(path.read_text(encoding="utf-8")) == "ok", path


NAT = "inductive nat : * := zero : nat | succ : nat -> nat .\n"
STEP = "fun (x : nat) => fun (y : nat) => succ(y)"


def _numeral(k):
    return "succ(" * k + "zero" + ")" * k


def _add(a, b):
    return f"WElim_nat(nat, {_numeral(a)}, {STEP}, {_numeral(b)})"


def _tree(d, leaf):
    for _ in range(d):
        leaf = f"node({leaf}, {leaf})"
    return leaf


def _synthetic(n):
    lines = ["symbol o : * .", "symbol c : o ."]
    lines += [f"symbol f{i} : o -> o -> o ." for i in range(n)]
    lines += [f"pragma prec f{i} > f{i + 1} ." for i in range(n - 1)]
    for i in range(n):
        rhs = f"f{i + 1}(y, c)" if i + 1 < n else "y"
        lines += [f"rule f{i}(c, y) -> {rhs} .", f"rule f{i}(x, c) -> x ."]
    return "\n".join(lines) + "\n"


def test_benchmark_shaped_sources_load_as_before():
    # ladders and trees of recursor calls, a numeral 200 deep, and the
    # family of overlapping rules
    for n in (5, 25, 50):
        assert _same_load(NAT + f"normalize {_add(n, n)} .\n"
                          f"convert {_add(n, n)} , {_numeral(2 * n)} .\n"
                          ) == "ok"
    for d in (2, 4):
        assert _same_load(NAT + "symbol node : nat -> nat -> nat .\n"
                          f"normalize {_tree(d, _add(8, 8))} .\n") == "ok"
    assert _same_load(NAT + f"normalize {_numeral(200)} .\n") == "ok"
    for n in (2, 20, 40):
        assert _same_load(_synthetic(n)) == "ok"


HEADER = ("symbol o : * . symbol a : o . symbol g : o -> o . "
          "symbol h : o -> o -> o .\n")
# the term alphabet: binders, punctuation, `with`, the item end and the
# end of input, declared symbols of arity 0, 1 and 2, the sort, and
# names that are not declared
ALPHABET = ["fun", "(", ")", ":", "=>", "->", ",", "*", "with", ".", None,
            "a", "g", "h", "o", "x", "y"]
WRAPPERS = ["symbol s : {} .", "rule {} .", "normalize {} ."]


def _soup(rng):
    """A random token sequence, cut at the end of input if it draws it."""
    toks = []
    for _ in range(rng.randint(1, 12)):
        t = rng.choice(ALPHABET)
        if t is None:
            return " ".join(toks), True
        toks.append(t)
    return " ".join(toks), False


def _grammar(rng, depth=0, bound=()):
    """A random term of the grammar over the same names, most of them
    declared or bound, with the arity of each symbol more often right
    than wrong."""
    r = rng.random() if depth < 4 else rng.random() * 0.4
    if r < 0.3:
        return rng.choice(["a", "a", "o", "*", "x", "g"] + list(bound) * 3)
    if r < 0.45:
        name = rng.choice(["g", "h", "g", "h", "a", "q"])
        n = {"g": 1, "h": 2}.get(name, 0) if rng.random() < 0.8 else 3
        args = [_grammar(rng, depth + 1, bound) for _ in range(n)]
        return f"{name}({rng.choice([', ', ', ', ' ']).join(args)})"
    if r < 0.55:
        return (f"{_grammar(rng, depth + 1, bound)} "
                f"{_grammar(rng, depth + 1, bound)}")
    if r < 0.65:
        return (f"{_grammar(rng, depth + 1, bound)} -> "
                f"{_grammar(rng, depth + 1, bound)}")
    if r < 0.85:
        x = rng.choice(["x", "y", "a", "z"])
        head = "fun ({} : {}) =>" if r < 0.75 else "({} : {}) ->"
        return (head.format(x, _grammar(rng, depth + 1, bound)) + " "
                + _grammar(rng, depth + 1, bound + (x,)))
    if r < 0.95:
        return f"({_grammar(rng, depth + 1, bound)})"
    return f"g({_grammar(rng, depth + 1, bound)} with a)"


def test_random_items_load_as_before():
    rng = random.Random(28)
    seen = {}
    for k in range(20000):
        if k % 2:
            text, cut = _soup(rng)
        else:
            text, cut = _grammar(rng), rng.random() < 0.05
            if rng.random() < 0.5:
                text += " -> " + _grammar(rng)
        item = rng.choice(WRAPPERS).format(text)
        if cut:
            item = item[:item.index(text) + len(text)]
        got = _same_load(HEADER + item)
        seen[got] = seen.get(got, 0) + 1
    # success, parse errors and elaboration errors are all exercised
    assert seen["ok"] > 1000
    assert seen[ParseError] > 5000
    assert seen[ElabError] > 3000


def test_random_expressions_parse_as_before():
    rng = random.Random(29)
    loaded = load(HEADER)
    seen = {}
    for k in range(5000):
        text = _soup(rng)[0] if k % 2 else _grammar(rng)
        got = _same_expr(loaded, text)
        seen[got] = seen.get(got, 0) + 1
    assert seen["ok"] > 500 and seen[ParseError] > 1000
    assert seen[ElabError] > 1000


@pytest.mark.parametrize("term, outcome", [
    # `with` ends a juxtaposition, so a second argument starts there
    ("h(a with a)", ElabError),
    ("h(a with)", ElabError),
    ("(a with)", ParseError),
    ("g(a) with", ParseError),
    # `( name :` starts a product even after a name
    ("g (x : o) -> o", ElabError),
    ("(x : o) -> x", "ok"),
    ("(a : o) -> g(a) a", "ok"),
    ("(x) -> x", ElabError),
    ("g(x : o)", ParseError),
    # a missing comma leaves a juxtaposition, one argument
    ("h(a a)", ElabError),
    ("h(a g(a))", ElabError),
    ("h(a, g(a) a)", "ok"),
    ("g()", ElabError),
    ("a()", "ok"),
    # the end of input inside an argument list
    ("h(a,", ParseError),
    ("h(a", ParseError),
    ("g(", ParseError),
    ("h(a,,a)", ParseError),
    # errors met first in source order: a symbol before its arguments
    ("q(g(a, a))", ElabError),
    ("h(g(a, a), q(x))", ElabError),
    ("g(h(x))", ElabError),
    ("fun (x : o) => q(x, y)", ElabError),
])
def test_quirks_parse_as_before(term, outcome):
    assert _same_load(HEADER + f"normalize {term} .") == outcome
    _same_load(HEADER + f"rule {term} -> a .")
    _same_load(HEADER + f"rule g({term}) -> a .")
    assert _same_expr(load(HEADER), term) == outcome


def test_symbol_errors_are_met_in_source_order():
    # the postfix code checks a symbol after its arguments; the error is
    # still the one that source order meets first
    for term, message in [
            ("q(g(a, a))", "2:11: unknown symbol q"),
            ("g(h(a), q(x))", "2:11: g expects 1 argument(s), got 2"),
            ("h(g(a, a), q(x))", "2:13: g expects 1 argument(s), got 2"),
            ("h(g(a), q(x))", "2:19: unknown symbol q"),
            ("g(h(x))", "2:13: h expects 2 argument(s), got 1"),
            ("h(g(x), a)", "2:15: unknown name x"),
            ("h(a, g(g))", "2:18: symbol g expects 1 argument(s)"),
            ("fun (x : o) => q(x, y)", "2:26: unknown symbol q")]:
        with pytest.raises(ElabError) as caught:
            load(HEADER + f"normalize {term} .")
        assert caught.value.message == message, term
        assert _same_load(HEADER + f"normalize {term} .") is ElabError


def test_parse_returns_items_that_hold_their_own_code():
    (item,) = parse("normalize succ(zero) .")
    assert item.toks == ["normalize", "succ", "(", "zero", ")", "."]
    assert item.first == 0 and len(item.args) == 2
