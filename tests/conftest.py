import pathlib

import pytest

import cac
from cac.rewriting import RuleSet, _reducts

CORPUS = pathlib.Path(cac.__file__).parent / "corpus"


def corpus_source(name: str) -> str:
    return (CORPUS / f"{name}.cac").read_text(encoding="utf-8")


def _unless_recursion_error(f, *args):
    """f(*args), or "RecursionError" when it raises one: a test of a
    walk on a term deeper than the recursion limit then fails at once,
    not after pytest has rendered a traceback a thousand frames deep."""
    try:
        return f(*args)
    except RecursionError:
        return "RecursionError"


def reference_reduce_one(t, rules):
    """Every one-step reduct of t, in `_reducts`' order, alpha-duplicates
    dropped by pairwise comparison."""
    out = []
    for u in _reducts(t, RuleSet.of(rules)):
        if all(u != w for w in out):
            out.append(u)
    return out


def plus_family_source(k: int) -> str:
    """One rule, plus(s^k(x), y) -> s^k(plus(x, y)), under prec plus > s:
    the recursive path order without a memo decides the same subterm
    pairs exponentially often in k."""
    lhs = "s(" * k + "x" + ")" * k
    rhs = "s(" * k + "plus(x, y)" + ")" * k
    return ("symbol o : * .\nsymbol s : o -> o .\n"
            "symbol plus : o -> o -> o .\npragma prec plus > s .\n"
            f"rule plus({lhs}, y) -> {rhs} .\n")


def width_source(n: int) -> str:
    """f(x) -> b, f(a) -> m(d(a), ..., d(a)) with n arguments, d(x) ->
    e(x) and m(e(a), ..., e(a)) -> b, under f > m > d > e, f > b and
    m > b: terminating, with one critical pair whose sides have the
    normal form b, yet meet only after n + 1 steps, among 2^n reducts."""
    sig = " -> ".join(["o"] * (n + 1))
    return ("symbol o : * .\nsymbol a : o .\nsymbol b : o .\n"
            "symbol f : o -> o .\nsymbol d : o -> o .\nsymbol e : o -> o .\n"
            f"symbol m : {sig} .\n"
            "pragma prec f > m .\npragma prec m > d .\npragma prec d > e .\n"
            "pragma prec f > b .\npragma prec m > b .\n"
            "rule f(x) -> b .\n"
            f"rule f(a) -> m({', '.join(['d(a)'] * n)}) .\n"
            "rule d(x) -> e(x) .\n"
            f"rule m({', '.join(['e(a)'] * n)}) -> b .\n")


@pytest.fixture(scope="session")
def corpus():
    """All corpus files, loaded once."""
    return {p.stem: cac.load(p.read_text(encoding="utf-8"))
            for p in sorted(CORPUS.glob("*.cac"))}


@pytest.fixture(scope="session")
def app(corpus):
    return corpus["app"]


@pytest.fixture(scope="session")
def ndm(corpus):
    return corpus["ndm_prop"]


@pytest.fixture(scope="session")
def intf(corpus):
    return corpus["int"]


@pytest.fixture(scope="session")
def natf(corpus):
    return corpus["nat"]
