"""Golden reports: the structured `check` and `admissibility` output of
every corpus file and of the cyclic-precedence system, the
admissibility report of a chain of partition demotions, plus a dump of
generated recursors, compared byte for byte with tests/golden/.

Refresh the files only for an intended output change:

    PYTHONPATH=src python3 -m tests.test_golden --write
"""

import contextlib
import io
import os
import pathlib
import sys
import tempfile

import pytest

from cac import STAR, Signature, pp, selim_for_motive, translate_inductive
from cac.cli import main
from cac.terms import App, Sort, Var, Variable, arrow, pi
from tests.conftest import CORPUS

GOLDEN = pathlib.Path(__file__).parent / "golden"
COMMANDS = ("check", "admissibility")


@contextlib.contextmanager
def _in_dir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _cli_stdout(directory, filename: str, command: str) -> str:
    """Structured stdout of one CLI run, with the file named relative to
    its directory so the report does not depend on the checkout path."""
    out = io.StringIO()
    with _in_dir(directory), contextlib.redirect_stdout(out):
        main(["--report", "structured", command, filename])
    return out.getvalue()


def _corpus_report(name: str, command: str) -> str:
    return _cli_stdout(CORPUS, f"{name}.cac", command)


def _source_report(stem: str, source: str, command: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        pathlib.Path(tmp, f"{stem}.cac").write_text(source, encoding="utf-8")
        return _cli_stdout(tmp, f"{stem}.cac", command)


def _cyclic_report(command: str) -> str:
    from tests.test_admissibility import CYCLIC_PRECEDENCE
    return _source_report("cyclic_precedence", CYCLIC_PRECEDENCE, command)


def _demotion_chain_report() -> str:
    from tests.test_admissibility import DEMOTION_CHAIN
    return _source_report("demotion_chain", DEMOTION_CHAIN, "admissibility")


def _nat_decl():
    from tests.test_cic import nat_decl
    return nat_decl()


def _list_decl():
    from cac import InductiveDecl
    x = Variable.fresh("list", Sort.BOX)
    a = Variable.fresh("A", Sort.BOX)
    return InductiveDecl(
        "list", arrow(STAR, STAR), x, (
            ("nil", pi(a, STAR, App(Var(x), Var(a)))),
            ("cons", pi(a, STAR,
                        arrow(Var(a),
                              arrow(App(Var(x), Var(a)),
                                    App(Var(x), Var(a)))))),
        ))


def _dump_symbol(sig, name: str, rules) -> str:
    lines = [f"{name} : {pp(sig.decls[name].typ)}"]
    for r in rules:
        lines.append(f"rule {r.name}: {pp(r.lhs)} -> {pp(r.rhs)}")
        lines.append(f"  env {r.ann_env}")
        rho = ", ".join(f"{v} := {pp(t)}" for v, t in r.ann_subst.items())
        lines.append(f"  rho {{{rho}}}")
    return "\n".join(lines) + "\n"


def _recursor_dump(decl, motive=None) -> str:
    """The weak recursor and, given a motive, the strong recursor for
    it, each with its declared type and computation rules."""
    sig = Signature()
    bundle = translate_inductive(decl, sig)
    out = _dump_symbol(sig, bundle.welim, list(bundle.rules))
    if motive is not None:
        name = selim_for_motive(decl, bundle, sig, motive)
        out += _dump_symbol(sig, name, [r for r in bundle.rules
                                        if r.head_name() == name])
    return out


CASES = {}
for _p in sorted(CORPUS.glob("*.cac")):
    for _cmd in COMMANDS:
        CASES[f"{_p.stem}.{_cmd}.json"] = \
            (lambda n=_p.stem, c=_cmd: _corpus_report(n, c))
for _cmd in COMMANDS:
    CASES[f"cyclic_precedence.{_cmd}.json"] = \
        (lambda c=_cmd: _cyclic_report(c))
CASES["demotion_chain.admissibility.json"] = _demotion_chain_report
CASES["recursors_nat.txt"] = lambda: _recursor_dump(_nat_decl(), STAR)
CASES["recursors_list.txt"] = lambda: _recursor_dump(_list_decl())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert CASES[name]() == expected


def _write_all():
    GOLDEN.mkdir(exist_ok=True)
    for name, make in sorted(CASES.items()):
        (GOLDEN / name).write_text(make(), encoding="utf-8")
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_all()
