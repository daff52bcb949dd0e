"""Surface syntax: lexer, parser, elaboration, pragmas, directives."""

import pathlib
import random
import re
from bisect import bisect_right
from typing import NamedTuple

import pytest

from cac import (ParseError, Prod, STAR, Symb, Var, Variable, load,
                 normalize, pp)
from cac.signature import DeclarationError
from cac.syntax import (_NOT_NAME, UNICODE_ALIASES, ElabError, Parser,
                        _texts, parse, position)
from cac.terms import Abs, App, BVar, CacError, Sort, arrow, lam, pi
from tests.conftest import CORPUS


class Token(NamedTuple):
    kind: str   # "name" | "punct" | "eof"
    text: str
    line: int
    col: int


def reference_lex(source):
    """The character-at-a-time lexer that the single regular expression
    replaced, kept to compare against."""
    for u, a in UNICODE_ALIASES.items():
        source = source.replace(u, f" {a} ")
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        matched = next((m for m in ["->", "=>", ":=", "/\\", "\\/"]
                        if source.startswith(m, i)), None)
        if matched:
            kind = "name" if matched in ("/\\", "\\/") else "punct"
            tokens.append(Token(kind, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch in "()[]{}:,.*=>|":
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch in "_'":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            tokens.append(Token("name", source[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"{line}:{col}: unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


def _fields(t):
    return (t.kind, t.text, t.line, t.col)


def _lexed(lexer, source):
    """The token tuples of source, or the message of its ParseError."""
    try:
        return [_fields(t) for t in lexer(source)]
    except ParseError as e:
        return e.message


def _placed(source):
    """The tokens that `_texts` reads, each placed by `position`; a token
    is a name unless the parser takes it for punctuation."""
    toks = _texts(source)[0]
    return [Token("eof" if not t else "punct" if t in _NOT_NAME else "name",
                  t, *position(source, i)) for i, t in enumerate(toks)]


def _parsed(source):
    """The parser's token texts, each with the line its line marks give,
    or the message of the ParseError that reading them raises."""
    try:
        parser = Parser(source)
    except ParseError as e:
        return e.message
    return [(t, 1 + bisect_right(parser.marks, i))
            for i, t in enumerate(parser.toks)]


def _texts_and_lines(lexed):
    return lexed if isinstance(lexed, str) else [f[1:3] for f in lexed]


# punctuation, blanks, characters that are errors, letters that are not
# ASCII, the aliases, and the pieces of the multi-character tokens
LEX_ALPHABET = list("_'#()[]{}:,.*=>|-/\\ \t\r\n\x0c!é★→⇒¬λ") + [
    "a", "b", "x1", "fun", "->", "=>", ":=", "/\\", "\\/", "# c"]


def test_lexer_matches_reference_on_random_strings():
    rng = random.Random(8)
    errors = 0
    for _ in range(20000):
        source = "".join(rng.choice(LEX_ALPHABET)
                         for _ in range(rng.randint(0, 12)))
        expected = _lexed(reference_lex, source)
        assert _lexed(_placed, source) == expected, repr(source)
        assert _parsed(source) == _texts_and_lines(expected), repr(source)
        errors += isinstance(expected, str)
    # both outcomes are exercised
    assert 2000 < errors < 18000


def test_lexer_matches_reference_on_corpus():
    for path in sorted(CORPUS.glob("*.cac")):
        source = path.read_text(encoding="utf-8")
        expected = _lexed(reference_lex, source)
        assert _lexed(_placed, source) == expected, path.name
        assert _parsed(source) == _texts_and_lines(expected), path.name


def test_lexer_edge_cases():
    # a comment at end of file with no newline does not advance the
    # column, so eof keeps the column of the '#'
    assert _fields(_placed("o # c")[-1]) == ("eof", "", 1, 3)
    assert _fields(_placed("o # c\n")[-1]) == ("eof", "", 2, 1)
    # a tab counts as one column
    assert _fields(_placed("\tsymbol")[0]) == ("name", "symbol", 1, 2)
    # an alias is replaced by its spelling between two blanks before
    # columns are counted
    assert [t.col for t in _placed("★ o")] == [2, 5, 6]
    assert [(t.text, t.col) for t in _placed("a→b")] == [
        ("a", 1), ("->", 3), ("b", 6), ("", 7)]
    with pytest.raises(ParseError, match=r"^2:3: unexpected character '!'$"):
        _placed("o\n  !")


# comments, a \r\n line end and unicode aliases, which shift the columns
# after them on their line, since each is read as its spelling between
# two blanks; each source ends in a comment
PLACED_HEAD = ("# nat, with ★ in a comment\r\n"
               "inductive nat : ★ := zero : nat | succ : nat → nat . # c\r\n")


def test_error_positions_through_comments_line_ends_and_aliases():
    for tail, error, message in [
            ("check succ(zero) : ★ → ⊤ . # end", ElabError,
             "3:30: unknown name top"),
            ("normalize λ (x : nat) ⇒ succ(x, x) . # end", ElabError,
             "3:32: succ expects 1 argument(s), got 2"),
            # eof after a comment keeps the column of its '#'
            ("symbol o : ★ # end", ParseError,
             "3:16: expected '.' (found '')"),
            ("symbol o : ★ → # end\r\n# last", ParseError,
             "4:1: expected a term (found '')")]:
        with pytest.raises(error) as caught:
            load(PLACED_HEAD + tail)
        assert caught.value.message == message, tail


def test_lexer_unicode_aliases():
    toks = _texts("★ → ¬ ∧ ∨ ⊤ ⊥")[0]
    assert toks[:-1] == ["*", "->", "not", "/\\", "\\/", "top", "bot"]


def test_lexer_comments_and_positions():
    toks = _placed("symbol # a comment\no : * .")
    assert [t.text for t in toks][:2] == ["symbol", "o"]
    assert toks[1].line == 2


def test_connectives_are_names():
    toks = _placed("/\\ \\/")
    assert all(t.kind == "name" for t in toks[:-1])


def _one_symbol(src, name):
    lf = load(src)
    return lf.signature.decls[name]


def test_symbol_declaration():
    d = _one_symbol("symbol o : * . symbol f : o -> o -> o .", "f")
    assert d.arity == 2
    assert d.output == Symb("o", ())


def test_dependent_product_parsing():
    lf = load("symbol list : * -> * . symbol nil : (A : *) -> list(A) .")
    d = lf.signature.decls["nil"]
    assert isinstance(d.typ, Prod)
    assert d.binders[0][0].sort == Sort.BOX


def test_arrow_right_associative():
    d = _one_symbol("symbol o : * . symbol f : o -> (o -> o) -> o .", "f")
    assert d.arity == 2
    assert isinstance(d.binders[1][1], Prod)


def test_abstraction_and_application():
    lf = load("""
    symbol o : * .
    symbol a : o .
    normalize (fun (x : o) => x) a .
    """)
    (d,) = lf.directives
    t = d.terms[0]
    assert isinstance(t, App) and isinstance(t.head, Abs)


def test_env_and_rho_are_ordinary_names_in_terms():
    # only a rule's `with` can follow a term, so `env` and `rho` end no
    # application
    lf = load("symbol o : * . symbol rho : o . "
              "normalize (fun (x:o) => x) rho .")
    assert pp(normalize(lf.directives[0].terms[0], lf.rules)) == "rho"
    lf = load("symbol o : * . symbol env : o . "
              "normalize (fun (f : o -> o) => f env) (fun (y:o) => y) .")
    assert pp(normalize(lf.directives[0].terms[0], lf.rules)) == "env"


def test_elaboration_builds_de_bruijn_indices():
    a, x, y = (Variable.fresh(n) for n in ("A", "x", "y"))
    lf = load("symbol o : * . "
              "check fun (A:*) => fun (x:A) => fun (y:A -> o) => y x "
              ": (A:*) -> A -> (A -> o) -> o .")
    term, typ = lf.directives[0].terms
    o = Symb("o", ())
    assert term == lam(a, STAR, lam(x, Var(a), lam(
        y, arrow(Var(a), o), App(Var(y), Var(x)))))
    assert typ == pi(a, STAR, arrow(Var(a), arrow(arrow(Var(a), o), o)))
    # an arrow's codomain sits under a binder that binds no name
    assert typ.codomain.codomain.domain.codomain == o
    assert typ.codomain.codomain.domain.domain == BVar(1)
    # the inner binder's name shadows the outer one's, then stops
    lf = load("symbol o : * . normalize fun (x:o) => (fun (x:o) => x) x .")
    (t,) = lf.directives[0].terms
    assert t.body.head.body == BVar(0) and t.body.arg == BVar(0)
    assert pp(t) == "fun (x:o) => (fun (x':o) => x') x"


def test_elaboration_shares_equal_subterms_within_one_term():
    lf = load("symbol o : * . symbol g : o -> o -> o . symbol a : o . "
              "normalize g(g(a, a), g(a, a)) . normalize g(a, a) . "
              "convert fun (x:o) => x , fun (y:o) => y .")
    big, small = lf.directives[0].terms[0], lf.directives[1].terms[0]
    assert big.args[0] is big.args[1]
    assert big.args[0].args[0] is big.args[0].args[1]
    # the directives of a file share one table, so sharing spans them
    assert small == big.args[0] and small is big.args[0]
    # binder hints are part of the key, so printing is unchanged
    ident_x, ident_y = lf.directives[2].terms
    assert ident_x == ident_y and ident_x is not ident_y
    assert (pp(ident_x), pp(ident_y)) == ("fun (x:o) => x", "fun (y:o) => y")


def test_rule_annotations_round_trip(app):
    rule = next(r for r in app.rules if r.name == "rule2")
    names = [v.name for v, _ in rule.ann_env]
    assert names == ["A", "x", "l", "l'"]
    assert [v.name for v in rule.ann_subst] == ["A'"]
    ((_, image),) = rule.ann_subst.items()
    assert isinstance(image, Var) and image.var.name == "A"


def test_rho_variables_take_the_sort_class_of_their_image(app):
    # A' := A stands for a type, n' := zero for an object
    (a_prime,) = next(r for r in app.rules if r.name == "rule2").ann_subst
    assert a_prime.sort == Sort.BOX
    lf = load("symbol nat : * .\nsymbol zero : nat .\n"
              "symbol f : nat -> nat .\n"
              "rule f(n') -> zero with env [] rho {n' := zero} .\n")
    ((n_prime, image),) = lf.rules[0].ann_subst.items()
    assert n_prime.sort == Sort.STAR and image == Symb("zero", ())


def test_rule_inference_assigns_sorts(ndm):
    rule = next(r for r in ndm.rules if r.name == "rule1")
    (p_var, p_typ) = tuple(rule.ann_env)[0]
    assert p_var.sort == Sort.BOX  # P ranges over propositions
    assert p_typ == STAR


def test_rule_inference_types_each_variable_at_its_first_occurrence():
    # y occurs first under g, at p, then as k's third argument, at o
    lf = load("symbol o : * .\nsymbol p : * .\nsymbol g : p -> o .\n"
              "symbol k : o -> o -> o -> o .\nrule k(g(y), x, y) -> x .\n")
    env = [(v.name, pp(t)) for v, t in lf.rules[0].ann_env]
    assert env == [("y", "p"), ("x", "o")]


def test_inductive_declaration_generates_bundle(natf):
    (bundle,) = natf.bundles
    assert bundle.welim == "WElim_nat"
    assert {r.name for r in natf.rules} \
        == {"iota_WElim_nat_zero", "iota_WElim_nat_succ"}


def test_pragmas(corpus):
    intf = corpus["int"]
    assert intf.signature.structure.acc_of("s") == frozenset({1})
    app = corpus["app"]
    assert app.signature.structure.ind_of("list") == frozenset({1})
    assert app.signature.precedence.gt("app", "cons")


def test_assume_pragmas():
    lf = load("""
    symbol o : * .
    pragma assume_confluent .
    pragma assume_terminating .
    pragma non_algebraic o .
    """)
    assert lf.assume_confluent and lf.assume_terminating
    assert lf.non_algebraic == frozenset({"o"})


O_A_F = "symbol o : * . symbol a : o . symbol f : o -> o . "

# (source, error class, code, message): one row per way a file can fail
# to load
LOAD_ERRORS = [
    ("symbol o : * ", ParseError, "parse-error",
     "1:14: expected '.' (found '')"),
    ("rule -> x .", ParseError, "parse-error",
     "1:6: expected a term (found '->')"),
    ("symbol o : * . frob .", ParseError, "parse-error",
     "1:16: expected a declaration, rule, pragma or directive "
     "(found 'frob')"),
    ("symbol : * .", ParseError, "parse-error",
     "1:8: expected a name (found ':')"),
    ("symbol o : * . pragma ind(o) = {x} .", ParseError, "parse-error",
     "1:33: expected an argument index"),
    # the message names the token after the operator
    ("symbol o : * . pragma prec o -> o .", ParseError, "parse-error",
     "1:33: expected '>' or '=' in a precedence pragma (found 'o')"),
    ("pragma frob .", ParseError, "parse-error",
     "1:13: unknown pragma 'frob' (found '.')"),
    ("rule f(x) -> x with rho { } .", ParseError, "parse-error",
     "1:21: expected 'env' (found 'rho')"),
    ("rule f(x) -> x with env [x o] .", ParseError, "parse-error",
     "1:28: expected ':' (found 'o')"),
    ("inductive n : * := z : n | .", ParseError, "parse-error",
     "1:28: expected a name (found '.')"),
    ("convert a b .", ParseError, "parse-error",
     "1:13: expected ',' (found '.')"),
    ("check a o .", ParseError, "parse-error",
     "1:11: expected ':' (found '.')"),
    ("symbol o : * . !", ParseError, "parse-error",
     "1:16: unexpected character '!'"),
    # the whole file is parsed before any item is elaborated, so a late
    # syntax error wins over an earlier elaboration error
    ("symbol f : o -> o . symbol o : *", ParseError, "parse-error",
     "1:33: expected '.' (found '')"),
    ("symbol f : o -> o .", ElabError, "unbound-name",
     "1:12: unknown name o"),
    ("symbol o : * . rule f(x) -> x .", ElabError, "unbound-name",
     "1:21: unknown symbol f"),
    (O_A_F + "normalize f(a, a) .", ElabError, "arity-error",
     "1:61: f expects 1 argument(s), got 2"),
    (O_A_F + "normalize f .", ElabError, "arity-error",
     "1:61: symbol f expects 1 argument(s)"),
    ("pragma ind(p) = {1} .", ElabError, "unbound-name",
     "line 1: unknown symbol p"),
    ("symbol o : * .\npragma acc(c) = {1} .", ElabError, "unbound-name",
     "line 2: unknown symbol c"),
    (O_A_F + "pragma prec f = g .", ElabError, "unbound-name",
     "line 1: unknown symbol g"),
    (O_A_F + "pragma non_algebraic q .", ElabError, "unbound-name",
     "line 1: unknown symbol q"),
    (O_A_F + "\nrule x -> f(x) .", ElabError, "bad-lhs",
     "line 2: rule left-hand side must be a symbol application"),
    (O_A_F + "rule f(a) -> y .", ElabError, "bad-rhs",
     "line 1: variable y does not occur in the left-hand side; annotate "
     "the rule explicitly"),
    ("symbol o : * . symbol o : * .", DeclarationError, "duplicate-name",
     "symbol o already declared"),
]


def test_parse_errors():
    wrong = []
    for source, error, code, message in LOAD_ERRORS:
        try:
            load(source)
            got = None
        except CacError as e:
            got = (type(e), e.code, e.message)
        if got != (error, code, message):
            wrong.append(f"{source!r}: {got}")
    assert not wrong, "\n".join(wrong)


def test_readme_input_format_covers_the_grammar():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"## Input format\n.*?```text\n(.*?)```", readme,
                      re.S).group(1)
    assert len(parse(block)) > 0
    toks = _texts(block)[0]
    starts = {b for a, b in zip(["."] + toks, toks) if a == "."}
    assert set(Parser.ITEMS) <= starts
    forms = {toks[k + 1] + (" " + toks[k + 3] if toks[k + 1] == "prec"
                            else "")
             for k, t in enumerate(toks) if t == "pragma"}
    assert forms == {"ind", "acc", "prec >", "prec =", "assume_confluent",
                     "assume_terminating", "non_algebraic"}


def test_printer_round_trip_through_parser():
    src = """
    symbol o : * .
    symbol f : (o -> o) -> o .
    symbol g : (A : *) -> A -> o .
    """
    lf = load(src)
    for name in ("f", "g"):
        d = lf.signature.decls[name]
        txt = pp(d.typ)
        reparsed = load(f"symbol o : * . symbol h : {txt} .")
        # alpha-equal up to binder naming
        assert reparsed.signature.decls["h"].typ == d.typ
