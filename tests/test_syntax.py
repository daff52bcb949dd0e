"""Surface syntax: lexer, parser, elaboration, pragmas, directives."""

import random

import pytest

from cac import ParseError, Prod, STAR, Symb, Var, load, pp
from cac.syntax import UNICODE_ALIASES, ElabError, Token, lex
from cac.terms import Abs, App, Sort
from tests.conftest import CORPUS


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
        raise ParseError(f"unexpected character {ch!r}", line, col)
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
        assert _lexed(lex, source) == expected, repr(source)
        errors += isinstance(expected, str)
    # both outcomes are exercised
    assert 2000 < errors < 18000


def test_lexer_matches_reference_on_corpus():
    for path in sorted(CORPUS.glob("*.cac")):
        source = path.read_text(encoding="utf-8")
        assert _lexed(lex, source) == _lexed(reference_lex, source), path.name


def test_lexer_edge_cases():
    # a comment at end of file with no newline does not advance the
    # column, so eof keeps the column of the '#'
    assert _fields(lex("o # c")[-1]) == ("eof", "", 1, 3)
    assert _fields(lex("o # c\n")[-1]) == ("eof", "", 2, 1)
    # a tab counts as one column
    assert _fields(lex("\tsymbol")[0]) == ("name", "symbol", 1, 2)
    # an alias is replaced by its spelling between two blanks before
    # columns are counted
    assert [t.col for t in lex("★ o")] == [2, 5, 6]
    assert [(t.text, t.col) for t in lex("a→b")] == [
        ("a", 1), ("->", 3), ("b", 6), ("", 7)]
    with pytest.raises(ParseError, match=r"^2:3: unexpected character '!'$"):
        lex("o\n  !")


def test_lexer_unicode_aliases():
    toks = [t.text for t in lex("★ → ¬ ∧ ∨ ⊤ ⊥")]
    assert toks[:-1] == ["*", "->", "not", "/\\", "\\/", "top", "bot"]


def test_lexer_comments_and_positions():
    toks = lex("symbol # a comment\no : * .")
    assert [t.text for t in toks][:2] == ["symbol", "o"]
    assert toks[1].line == 2


def test_connectives_are_names():
    toks = lex("/\\ \\/")
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


def test_rule_annotations_round_trip(app):
    rule = next(r for r in app.rules if r.name == "rule2")
    names = [v.name for v, _ in rule.ann_env]
    assert names == ["A", "x", "l", "l'"]
    assert [v.name for v in rule.ann_subst] == ["A'"]
    ((_, image),) = rule.ann_subst.items()
    assert isinstance(image, Var) and image.var.name == "A"


def test_rule_inference_assigns_sorts(ndm):
    rule = next(r for r in ndm.rules if r.name == "rule1")
    (p_var, p_typ) = tuple(rule.ann_env)[0]
    assert p_var.sort == Sort.BOX  # P ranges over propositions
    assert p_typ == STAR


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


def test_parse_errors():
    with pytest.raises(ParseError):
        load("symbol o : * ")          # missing terminator
    with pytest.raises(ParseError):
        load("rule -> x .")            # missing lhs
    with pytest.raises(ElabError):
        load("symbol f : o -> o .")    # o undeclared
    with pytest.raises(ElabError):
        load("symbol o : * . rule f(x) -> x .")  # undeclared head


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
        from cac import alpha_eq
        assert alpha_eq(reparsed.signature.decls["h"].typ, d.typ)
