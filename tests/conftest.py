import pathlib

import pytest

import cac

CORPUS = pathlib.Path(cac.__file__).parent / "corpus"


def corpus_source(name: str) -> str:
    return (CORPUS / f"{name}.cac").read_text(encoding="utf-8")


def plus_family_source(k: int) -> str:
    """One rule, plus(s^k(x), y) -> s^k(plus(x, y)), under prec plus > s:
    the recursive path order without a memo decides the same subterm
    pairs exponentially often in k."""
    lhs = "s(" * k + "x" + ")" * k
    rhs = "s(" * k + "plus(x, y)" + ")" * k
    return ("symbol o : * .\nsymbol s : o -> o .\n"
            "symbol plus : o -> o -> o .\npragma prec plus > s .\n"
            f"rule plus({lhs}, y) -> {rhs} .\n")


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
