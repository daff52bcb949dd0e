"""The command-line driver: subcommands, report formats, exit codes."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cac import (FuelExhausted, Outcome, check_admissible, cli, load,
                 normalize, pp)
from cac.cli import main
from cac.terms import map_children
from tests.conftest import CORPUS, plus_family_source, width_source


def path(name):
    return str(CORPUS / f"{name}.cac")


def test_check_runs_directives(capsys):
    assert main(["check", path("int")]) == 0
    out = capsys.readouterr().out
    assert "normalize" in out and "— 0" in out
    assert "all checks passed" in out


def test_check_structured(capsys):
    assert main(["--report", "structured", "check", path("nat")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True
    assert obj["directives"][0]["normal_form"] \
        == "succ(succ(succ(succ(zero))))"


def test_admissibility_exit_codes(capsys):
    assert main(["admissibility", path("app")]) == 0
    assert main(["admissibility", path("neg_dup")]) == 1
    capsys.readouterr()


def test_admissibility_strict_flags_sufficient(capsys):
    # app relies on the sufficient conditions for S4/S5
    assert main(["--strict", "admissibility", path("app")]) == 1
    capsys.readouterr()


def test_admissibility_strict_flags_assertions(tmp_path, capsys):
    asserted = tmp_path / "asserted.cac"
    asserted.write_text(
        "symbol o : * .\nsymbol a : o .\nsymbol b : o .\n"
        "symbol f : o -> o .\npragma prec f > a .\npragma prec f > b .\n"
        "rule f(x) -> b .\nrule f(a) -> a .\npragma assume_confluent .\n",
        encoding="utf-8")
    assert main(["admissibility", str(asserted)]) == 0
    assert "overall: ADMISSIBLE_WITH_ASSERTIONS" in capsys.readouterr().out
    assert main(["--strict", "admissibility", str(asserted)]) == 1
    capsys.readouterr()


def test_malformed_inductive_exits_1_without_a_position(tmp_path, capsys):
    f = tmp_path / "bad.cac"
    f.write_text("symbol o : * .\ninductive t : * := c : (t -> o) -> t .\n",
                 encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr() == ("", (
        "error [non-basic-constructor]: constructor c: argument type "
        "t -> o uses the inductive type other than as a full "
        "application\n"))


def test_inductive_declaration_type_checks_against_the_rules(tmp_path,
                                                            capsys):
    # g(v) is well typed only through the rule one -> succ(zero), as it
    # is for a symbol declaration in the same place
    f = tmp_path / "conv.cac"
    f.write_text(
        "inductive nat : * := zero : nat | succ : nat -> nat .\n"
        "symbol one : nat .\nrule one -> succ(zero) .\n"
        "symbol Vec : nat -> * .\nsymbol v : Vec(one) .\n"
        "symbol g : Vec(succ(zero)) -> * .\n"
        "inductive t : * := c : g(v) -> t .\n", encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr() == ("all checks passed\n", "")


def test_admissibility_structured_report(capsys):
    assert main(["--report", "structured", "admissibility",
                 path("ndm_prop")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["overall"] == "ADMISSIBLE"
    assert obj["assertions"] == []
    assert obj["a1"]["level"] == "NEWMAN"


NON_LEFT_LINEAR = ("symbol o : * .\nsymbol true : o .\n"
                   "symbol eq : o -> o -> o .\npragma prec eq > true .\n"
                   "rule eq(x, x) -> true .\n")


def test_newman_refuses_a_rule_that_is_not_left_linear(tmp_path, capsys):
    # R terminates and has no critical pair, so it is confluent, but no
    # theorem named here lifts that to R with beta for eq(x, x), so A1
    # is not NEWMAN
    f = tmp_path / "eq.cac"
    f.write_text(NON_LEFT_LINEAR, encoding="utf-8")
    assert main(["admissibility", str(f)]) == 1
    out = capsys.readouterr().out
    assert "A1 confluence: UNKNOWN\n  termination by recursive path order\n" \
        "  rule rule1 is not left-linear: no theorem is named that lifts " \
        "the confluence of R to R ∪ β for it\n" in out
    assert out.endswith("overall: REJECTED\n")
    assert main(["--report", "structured", "admissibility", str(f)]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["a1"]["level"] == "UNKNOWN" and obj["overall"] == "REJECTED"
    assert obj["a1"]["evidence"][-1].startswith(
        "rule rule1 is not left-linear")
    # the pragma still asserts confluence
    f.write_text(NON_LEFT_LINEAR + "pragma assume_confluent .\n",
                 encoding="utf-8")
    assert main(["admissibility", str(f)]) == 0
    out = capsys.readouterr().out
    assert "A1 confluence: ASSERTED\n  assume-confluent pragma\n" in out
    assert out.endswith("overall: ADMISSIBLE_WITH_ASSERTIONS\n")


def test_newman_keeps_a_left_linear_system(tmp_path, capsys):
    # eq(x, y) is left-linear, and its one pair with eq(x, true) joins
    f = tmp_path / "eq.cac"
    f.write_text(NON_LEFT_LINEAR.replace("eq(x, x)", "eq(x, y)")
                 + "rule eq(x, true) -> true .\n", encoding="utf-8")
    assert main(["admissibility", str(f)]) == 0
    out = capsys.readouterr().out
    assert "A1 confluence: NEWMAN\n" in out and "joinable" in out
    assert out.endswith("overall: ADMISSIBLE\n")


def test_newman_decides_a_wide_pair_by_normal_forms(tmp_path, capsys):
    # the one critical pair, f(a) -> b | m(d(a), ..., d(a)), meets only
    # after 13 steps among 2^12 reducts, past the default fuel of a
    # search; both sides have the normal form b, so R is confluent
    f = tmp_path / "width_12.cac"
    f.write_text(width_source(12), encoding="utf-8")
    assert main(["admissibility", str(f)]) == 0
    out = capsys.readouterr().out
    assert "A1 confluence: NEWMAN\n" in out
    assert out.endswith("overall: ADMISSIBLE\n")


def test_convert_a_wide_term_by_normal_forms(tmp_path, capsys):
    # under NEWMAN, convert compares the normal forms of the two sides
    # rather than searching the 2^12 reducts of the wide one
    f = tmp_path / "width_12.cac"
    f.write_text(width_source(12), encoding="utf-8")
    wide = f"m({', '.join(['d(a)'] * 12)})"
    assert main(["convert", str(f), "-e", wide, "-e", "b"]) == 0
    assert capsys.readouterr().out == "convertible\n"


DEEP_NORMAL_FORM = """symbol o : * .
symbol z : o .
symbol s : o -> o .
symbol dbl : o -> o .
symbol a : o .
symbol b : o .
symbol b1 : o .
symbol c : o .
symbol c1 : o .
symbol d : o .
symbol h : o -> o .
symbol f : o -> o .
pragma prec f > h .
pragma prec f > b .
pragma prec f > c .
pragma prec b > b1 .
pragma prec b1 > d .
pragma prec c > c1 .
pragma prec c1 > d .
pragma prec d > dbl .
pragma prec d > z .
pragma prec dbl > s .
rule f(a) -> h(b) .
rule f(x) -> h(c) .
rule b -> b1 .
rule b1 -> d .
rule c -> c1 .
rule c1 -> d .
rule d -> dbl(dbl(dbl(s(s(z))))) .
rule dbl(z) -> z .
rule dbl(s(x)) -> s(s(dbl(x))) .
"""


def test_newman_searches_a_pair_whose_normal_form_is_out_of_fuel(tmp_path,
                                                                   capsys):
    # the pair h(b) | h(c) meets at h(d) after two steps each, but h(b)
    # takes 20 contractions to normalize: at fuel 10 the normalization
    # runs out, and the pair is still joined by the search
    f = tmp_path / "deep.cac"
    f.write_text(DEEP_NORMAL_FORM, encoding="utf-8")
    assert main(["--fuel", "10", "normalize", str(f), "-e", "h(b)"]) == 1
    assert "fuel-exhausted" in capsys.readouterr().err
    assert main(["--fuel", "10", "admissibility", str(f)]) == 0
    out = capsys.readouterr().out
    assert "A1 confluence: NEWMAN\n  termination by recursive path order\n" \
        "  critical pair peak f(a) -> h(b) | h(c) (rules rule1/rule2 at " \
        "[]): joinable\n" in out
    assert out.endswith("overall: ADMISSIBLE\n")


def test_convert_under_newman_searches_when_a_normal_form_is_out_of_fuel(
        tmp_path, capsys):
    # h(b) -> h(b1) in one step, but h(b) is out of fuel to normalize at
    # 10: the two still convert, and a pair that does not meet keeps the
    # normalization's error
    f = tmp_path / "deep.cac"
    f.write_text(DEEP_NORMAL_FORM, encoding="utf-8")
    assert main(["--fuel", "10", "convert", str(f), "-e", "h(b)",
                 "-e", "h(b1)"]) == 0
    assert capsys.readouterr().out == "convertible\n"
    assert main(["--fuel", "10", "convert", str(f), "-e", "h(b)",
                 "-e", "h(z)"]) == 1
    assert capsys.readouterr().err == \
        "error [fuel-exhausted]: fuel exhausted during normalization\n"


def test_convert_under_newman_normalizes_once_when_out_of_fuel(monkeypatch):
    # once h(b)'s normalization has run out of fuel, the search that
    # follows normalizes nothing: it would run out again, exactly there
    import cac.rewriting
    import cac.typing
    lf = load(DEEP_NORMAL_FORM)
    tc = cac.TypeChecker(lf.signature, lf.rules, 10, cli._confluent(lf, 10))
    assert tc.a1.positive
    calls = []

    def counting(module):
        inner = module.normalize

        def normalize(*args):
            calls.append(args[0])
            return inner(*args)
        monkeypatch.setattr(module, "normalize", normalize)

    counting(cac.typing)
    counting(cac.rewriting)
    h_b, h_b1, h_z = (cli._parse_expr(lf, e) for e in ("h(b)", "h(b1)",
                                                         "h(z)"))
    assert tc.convertible(h_b, h_b1)
    assert calls == [h_b]
    with pytest.raises(FuelExhausted) as e:
        tc.convertible(h_b, h_z)
    assert e.value.message == "fuel exhausted during normalization"
    assert calls == [h_b, h_b]


def _int_trunc(tmp_path, extra=""):
    """The int rules plus p(0) -> 0: the peak s(p(0)) reduces to both 0
    and s(0), so A1 is UNKNOWN, though RPO orients every rule."""
    f = tmp_path / "int_trunc.cac"
    f.write_text((CORPUS / "int.cac").read_text(encoding="utf-8")
                 + "rule p(0) -> 0 .\n" + extra, encoding="utf-8")
    return str(f)


INT_Q = ("symbol q : int .\nrule q -> p(0) .\n"
         "pragma prec q > p .\npragma prec q > 0 .\n")


def test_a_peak_reachable_after_a_step_keeps_the_search(tmp_path, capsys):
    # s(q) has no s above a p, but s(q) -> s(p(0)) has: the closure of
    # its reachable shape holds the peak, so convert searches, and the
    # common reduct s(0) answers, though the leftmost-outermost normal
    # form of s(q) is 0
    f = _int_trunc(tmp_path, INT_Q)
    assert main(["normalize", f, "-e", "s(q)"]) == 0
    assert main(["convert", f, "-e", "s(q)", "-e", "s(0)"]) == 0
    assert main(["convert", f, "-e", "s(p(0))", "-e", "s(0)"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0", "convertible", "convertible"]


def test_a_peak_that_no_reduct_holds_lets_normal_forms_decide(
        tmp_path, monkeypatch, capsys):
    # no reduct of plus(q, s(0)) holds an s above a p, so the one
    # critical pair that does not join cannot arise there: its normal
    # form, s(0), decides, and the conversion expands no search node
    # (A1's search of that pair expands s(0) before)
    from cac.rewriting import _Search
    from cac.typing import TypeChecker
    expands, converting = [], []
    expand, convertible = _Search._expand, TypeChecker.convertible

    def counting_expand(self, g, key):
        expands.append(bool(converting))
        return expand(self, g, key)

    def counting_convertible(self, t, u):
        converting.append((t, u))
        return convertible(self, t, u)

    monkeypatch.setattr(_Search, "_expand", counting_expand)
    monkeypatch.setattr(TypeChecker, "convertible", counting_convertible)
    f = _int_trunc(tmp_path, INT_Q)
    assert main(["convert", f, "-e", "plus(q, s(0))", "-e", "0"]) == 1
    assert capsys.readouterr().out == "not convertible\n"
    assert len(converting) == 1 and expands == [False]


def test_a_long_chain_is_decided_by_normal_forms(tmp_path, capsys):
    # plus(p(s(0)), ...) 12 deep has about 3^12 reducts, none with an s
    # above a p: the search ran out of fuel, the normal forms 0 and s(0)
    # differ
    from tests.test_acceptance import _chain
    f = _int_trunc(tmp_path)
    assert main(["convert", f, "-e", _chain(12), "-e", "s(0)"]) == 1
    assert capsys.readouterr() == ("not convertible\n", "")


def test_check_and_admissibility_decide_a_conversion_the_same_way(
        tmp_path, capsys):
    # S3 of g(x) -> k converts P(c12), c12 the 12-deep chain, against
    # P(s(0)) in the checker of the run, which holds A1's whole verdict,
    # so it compares normal forms as `cac check` does, where the search
    # ran out of fuel among the chain's 3^12 reducts
    from tests.test_acceptance import _chain
    f = _int_trunc(tmp_path, "symbol P : int -> * .\n"
                             f"symbol k : P({_chain(12)}) .\n"
                             "symbol g : int -> P(s(0)) .\n"
                             "pragma prec g > k .\nrule g(x) -> k .\n"
                             "check k : P(s(0)) .\n")
    assert main(["check", f]) == 1
    mismatch = "k has type P(0), expected P(s(0))"
    assert f"failed — {mismatch}" in capsys.readouterr().out
    assert main(["admissibility", f]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "overall: REJECTED"
    row = out.index("rule rule6: S1=PASS, S2=PASS, S3=FAIL, "
                    "S4=PASS_SUFFICIENT, S5=PASS")
    assert out[row + 1] == f"  S3: {mismatch}"


def test_a_fitting_pair_out_of_fuel_keeps_the_search(tmp_path, capsys):
    # the pair f(a) -> d | c does not join within fuel 10, and its peak
    # is f(a) itself; d's normal form, s^16(z), is out of fuel, so the
    # pair may join for all the checker knows, and convert searches
    f = tmp_path / "dbl.cac"
    f.write_text("symbol o : * .\nsymbol a : o .\nsymbol c : o .\n"
                 "symbol z : o .\nsymbol d : o .\nsymbol s : o -> o .\n"
                 "symbol dbl : o -> o .\nsymbol f : o -> o .\n"
                 "pragma prec f > d .\npragma prec f > c .\n"
                 "pragma prec d > dbl .\npragma prec d > z .\n"
                 "pragma prec dbl > s .\n"
                 "rule f(a) -> d .\nrule f(x) -> c .\n"
                 "rule d -> dbl(dbl(dbl(s(s(z))))) .\n"
                 "rule dbl(z) -> z .\nrule dbl(s(x)) -> s(s(dbl(x))) .\n",
                 encoding="utf-8")
    assert main(["--fuel", "10", "convert", str(f), "-e", "f(a)",
                 "-e", "c"]) == 0
    assert main(["--fuel", "10", "convert", str(f), "-e", "f(a)",
                 "-e", "a"]) == 1
    assert capsys.readouterr() == (
        "convertible\n",
        "error [fuel-exhausted]: fuel exhausted during joinability search\n")


def _eq_searches(tmp_path, monkeypatch, capsys, redex):
    """`check` with two conversions against true on eq(x, x), then
    `convert` of each: eq(true, eq(false, false)) converts and
    eq(true, false) does not, each behind `redex`.  The answers are
    asserted; returns the joinability searches run by the check and by
    the check with both converts."""
    import cac.typing
    search, searched = cac.typing.joinable, []

    def counting_joinable(t, u, rules, fuel, *, terminating,
                          by_normal_forms):
        searched.append((t, u))
        return search(t, u, rules, fuel, terminating=terminating,
                      by_normal_forms=by_normal_forms)

    monkeypatch.setattr(cac.typing, "joinable", counting_joinable)
    joined = f"{redex}eq(true, eq(false, false))"
    apart = f"{redex}eq(true, false)"
    f = tmp_path / "eq.cac"
    f.write_text(NON_LEFT_LINEAR.replace(
        "symbol true : o .\n", "symbol true : o .\nsymbol false : o .\n")
        + f"convert {joined} , true .\nconvert {apart} , true .\n",
        encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "convert (line 7): ok — convertible",
        "convert (line 8): failed — no common reduct found",
        "some checks failed"]
    counts = [len(searched)]
    assert main(["convert", str(f), "-e", joined, "-e", "true"]) == 0
    assert main(["convert", str(f), "-e", apart, "-e", "true"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "convertible", "not convertible"]
    return counts + [len(searched)]


def test_a_rule_that_is_not_left_linear_converts_by_normal_forms(
        tmp_path, monkeypatch, capsys):
    # A1 is not positive on eq(x, x), but the recursive path order
    # orients it and it has no critical pair, so R is confluent on the
    # reducts of an algebraic term: check and convert compare normal
    # forms and search nothing
    assert _eq_searches(tmp_path, monkeypatch, capsys, "") == [0, 0]


def test_a_rule_that_is_not_left_linear_converts_by_search(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    # behind a beta-redex the terms are not algebraic, and A1 is not
    # positive on eq(x, x), so check and convert search for a common
    # reduct within fuel rather than compare normal forms
    assert _eq_searches(tmp_path, monkeypatch, capsys,
                        "(fun (z:o) => z) ") == [2, 4]


def test_admissibility_builds_only_the_report_it_prints(monkeypatch,
                                                       capsys):
    from cac.admissibility import AdmissibilityReport, check_admissible
    from cac.syntax import load
    lf = load(CORPUS.joinpath("app.cac").read_text(encoding="utf-8"))
    report = check_admissible(lf.signature, lf.rules)
    text, structured = report.to_text(), cli.to_json(report.to_dict())

    def unused(self):
        raise AssertionError("built a report that is not printed")

    # the structured report is written from the members and the rows,
    # so it builds no dict tree of every rule either
    for form, printed, others in (("text", text, ("to_dict",)),
                                  ("structured", structured,
                                   ("to_text", "to_dict"))):
        with monkeypatch.context() as m:
            for other in others:
                m.setattr(AdmissibilityReport, other, unused)
            assert main(["--report", form, "admissibility",
                         path("app")]) == 0
        assert capsys.readouterr().out == printed + "\n"


def test_normalize_expression(capsys):
    assert main(["normalize", path("int"), "-e", "plus(0, s(p(s(0))))"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "s(0)"


def test_convert(capsys):
    assert main(["convert", path("int"),
                 "-e", "s(p(0))", "-e", "p(s(0))"]) == 0
    assert main(["convert", path("int"), "-e", "0", "-e", "s(0)"]) == 1
    capsys.readouterr()


def test_convert_refuses_trailing_input(capsys):
    assert main(["convert", path("int"), "-e", "s(0) , 0", "-e", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 1:6: trailing input ','\n"


def test_positions_through_comments_line_ends_and_aliases(tmp_path,
                                                         capsys):
    # a check directive's line, a trailing-input error and an
    # elaboration error of an expression, each after comments, a \r\n
    # line end and a unicode alias, which shifts the columns after it
    placed = tmp_path / "placed.cac"
    placed.write_bytes(
        "# nat, with ★ in a comment\r\n"
        "inductive nat : ★ := zero : nat | succ : nat → nat . # c\r\n"
        "  check succ(zero) : nat .\r\n# between\r\n\r\n"
        "  normalize ★ → ★ . # end".encode("utf-8"))
    assert main(["--report", "structured", "check", str(placed)]) == 0
    directives = json.loads(capsys.readouterr().out)["directives"]
    assert [(d["kind"], d["line"]) for d in directives] == [
        ("check", 3), ("normalize", 6)]
    for expr, message in [("s(0) # one\r\n ★ , 0 # end",
                           "2:6: trailing input ','"),
                          ("# one\r\n s(★ → q) # end",
                           "2:13: unknown name q")]:
        assert main(["convert", path("int"), "-e", expr, "-e", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_argument_parser_is_built_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._argument_parser.cache_clear()
    try:
        assert main(["normalize", path("int"), "-e", "p(s(p(s(0))))",
                     "-e", "plus(0, s(0))"]) == 0
        assert main(["normalize", path("int"), "-e", "s(p(0))"]) == 0
        assert main(["convert", path("int"), "-e", "0"]) == 2
        # the -e lists of two parses are independent of each other
        ap = cli._argument_parser()
        first = ap.parse_args(["normalize", "f", "-e", "a", "-e", "b"])
        second = ap.parse_args(["normalize", "f", "-e", "c"])
    finally:
        cli._argument_parser.cache_clear()
    assert built == [1]
    assert capsys.readouterr().out.splitlines() == ["0", "s(0)", "0"]
    assert first.expr == ["a", "b"] and second.expr == ["c"]


def test_usage_errors(capsys):
    assert main(["normalize", path("int"), "-e", "plus(0"]) == 2
    assert main(["check", "/nonexistent.cac"]) == 2
    assert main(["convert", path("int"), "-e", "0"]) == 2
    capsys.readouterr()


def test_fuel_must_be_positive(capsys):
    for fuel in ("0", "-5", "ten"):
        assert main(["--fuel", fuel, "check", path("int")]) == 2
        assert main([f"--fuel={fuel}", "check", path("int")]) == 2
    assert "--fuel" in capsys.readouterr().err
    assert main(["--fuel", "1", "normalize", path("int"), "-e", "0"]) == 0
    capsys.readouterr()


def test_failing_check_directives(tmp_path, capsys):
    # an abstraction's type must be sorted even where the body's type is
    # the expected one: f a has type G(G(a)), which is ill-formed, and
    # only the product rule of the abstraction finds that out
    f = tmp_path / "failing.cac"
    f.write_text("symbol o : * .\nsymbol a : o .\nsymbol G : o -> * .\n"
                 "symbol F : o -> * .\nrule F(a) -> (o -> G(G(a))) .\n"
                 "symbol f : F(a) .\n"
                 "check fun (x:o) => * : o -> o .\n"
                 "check fun (y:o) => f a : o -> G(G(a)) .\n"
                 "check fun (y:o) => a : o -> o .\n"
                 "convert a , f .\n", encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "check (line 7): failed — the sort □ has no type",
        "check (line 8): failed — G(a) has type ★, expected o",
        "check (line 9): ok",
        "convert (line 10): failed — no common reduct found",
        "some checks failed"]


def test_a_binder_domain_must_be_a_type_after_normalization(tmp_path,
                                                            capsys):
    # b's type F normalizes to o, which is no sort; the message shows
    # the type as inferred
    f = tmp_path / "domain.cac"
    f.write_text("symbol o : * .\nsymbol F : * .\nrule F -> o .\n"
                 "symbol b : F .\ncheck fun (x : b) => x : o .\n",
                 encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "check (line 5): failed — b is not a type or kind (its type is F)",
        "some checks failed"]


def test_a_mismatched_type_that_loops_is_shown_unnormalized(tmp_path,
                                                            capsys):
    # a -> b and a -> c leave A1 UNKNOWN, so conversion searches for a
    # common reduct; T -> T has none with o, and its normalization runs
    # out of fuel, so the message shows T as inferred
    f = tmp_path / "loop.cac"
    f.write_text("symbol o : * .\nsymbol a : o .\nsymbol b : o .\n"
                 "symbol c : o .\nrule a -> b .\nrule a -> c .\n"
                 "symbol T : * .\nrule T -> T .\nsymbol t : T .\n"
                 "check t : o .\nconvert b , c .\n", encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "check (line 10): failed — t has type T, expected o",
        "convert (line 11): failed — no common reduct found",
        "some checks failed"]


def test_cyclic_precedence_rejected(tmp_path, capsys):
    from tests.test_admissibility import CYCLIC_PRECEDENCE
    f = tmp_path / "cycle.cac"
    f.write_text(CYCLIC_PRECEDENCE, encoding="utf-8")
    assert main(["admissibility", str(f)]) == 1
    out = capsys.readouterr().out
    assert "strong normalization: FAILS (the precedence is cyclic: " \
        "f > g > f)" in out
    assert "overall: REJECTED" in out


def test_cyclic_free_predicates_rejected(tmp_path, capsys):
    # the classifier used to recurse between a and b until the
    # interpreter's stack ran out, and no report was printed
    from tests.test_positivity import CYCLIC_FREE_PREDICATES
    f = tmp_path / "cycle.cac"
    f.write_text(CYCLIC_FREE_PREDICATES, encoding="utf-8")
    assert main(["admissibility", str(f)]) == 1
    captured = capsys.readouterr()
    out = captured.out
    assert "I4 violated for a at constructor ca, argument 1: greater " \
        "predicate b occurs at () in b" in out
    assert "I4 violated for b at constructor cb, argument 1: greater " \
        "predicate a occurs at () in a" in out
    assert "strong normalization: FAILS (the precedence is cyclic: " \
        "a > b > a)" in out
    assert out.rstrip().endswith("overall: REJECTED")
    assert captured.err == ""


def test_structured_admissibility_keys(capsys):
    # the layout the README documents
    assert main(["--report", "structured", "admissibility",
                 path("nat")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sorted(obj) == ["a1", "a2", "a3", "a4", "assertions", "meaning",
                           "overall", "s_conditions"]
    assert sorted(obj["a1"]) == ["evidence", "level"]
    assert sorted(obj["a2"]) == ["violations"]
    assert sorted(obj["a3"]) == ["branch", "properties"]
    assert sorted(obj["a4"]) == [
        "algebraic", "algebraic_properties", "demotions", "non_algebraic",
        "non_algebraic_properties", "separation", "strong_normalization"]
    assert sorted(obj["a4"]["strong_normalization"]) == ["status", "witness"]
    for conds in obj["s_conditions"].values():
        assert sorted(conds) == ["s1", "s2", "s3", "s4", "s5"]


# three rules with three different rows: an S4 that fails, naming the
# environment variable without an occurrence, a vacuous S4 and a
# sufficient one
MIXED_ROWS = """
symbol o : * .
symbol z : o .
symbol h : o -> o .
symbol k : o -> o .
rule h(x) -> x with env [x : o, y : o] .
rule h(z) -> z .
rule k(x) -> h(x) .
"""


def _structured_sources():
    from tests.test_acceptance import _synthetic
    from tests.test_admissibility import CYCLIC_PRECEDENCE, DEMOTION_CHAIN
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(CORPUS.glob("*.cac"))}
    sources.update(demotion_chain=DEMOTION_CHAIN,
                   cyclic_precedence=CYCLIC_PRECEDENCE,
                   synthetic_20=_synthetic(20), mixed_rows=MIXED_ROWS,
                   no_rules="symbol o : * .\nsymbol a : o .\n")
    return sources


STRUCTURED_SOURCES = _structured_sources()


@pytest.mark.parametrize("name", sorted(STRUCTURED_SOURCES))
def test_structured_admissibility_is_the_json_of_the_report(name, tmp_path,
                                                            capsys):
    source = STRUCTURED_SOURCES[name]
    f = tmp_path / f"{name}.cac"
    f.write_text(source, encoding="utf-8")
    lf = load(source)
    report = check_admissible(lf.signature, lf.rules,
                              assume_confluent=lf.assume_confluent,
                              assume_terminating=lf.assume_terminating,
                              force_non_algebraic=lf.non_algebraic)
    main(["--report", "structured", "admissibility", str(f)])
    out = capsys.readouterr().out
    assert out == json.dumps(report.to_dict(), indent=2,
                             sort_keys=True) + "\n"
    rows = {json.dumps(row) for row in json.loads(out)["s_conditions"]
            .values()}
    if name == "synthetic_20":
        assert len(rows) == 1
    if name == "mixed_rows":
        assert len(rows) == 3
        assert report.s_conditions["rule1"]["s4"] == (
            "s4", Outcome.FAIL, "no derived-type occurrence for y")
    if name == "no_rules":
        assert '\n  "s_conditions": {}\n' in out


DEEP = 10_000
NAT = "inductive nat : * := zero : nat | succ : nat -> nat .\n"


def deep_numeral(k):
    return "succ(" * k + "zero" + ")" * k


def assert_depth_exceeded(code, capsys):
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error [depth-exceeded]: ")
    assert "Traceback" not in captured.err + captured.out


def test_deep_directive_is_refused_without_traceback(tmp_path, capsys):
    # the front end has no depth limit, so the file loads; the directive
    # then fails on its own line, as one whose result is too deep does
    f = tmp_path / "deep.cac"
    f.write_text(NAT + f"normalize {deep_numeral(DEEP)} .\n", encoding="utf-8")
    assert main(["check", str(f)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith(
        "normalize (line 2): failed — depth-exceeded: ")
    assert lines[1:] == ["some checks failed"]
    assert captured.err == ""


def test_deep_expression_is_refused_without_traceback(tmp_path, capsys):
    f = tmp_path / "nat.cac"
    f.write_text(NAT, encoding="utf-8")
    assert_depth_exceeded(
        main(["normalize", str(f), "-e", deep_numeral(DEEP)]), capsys)


def test_deep_result_fails_only_its_own_directive(tmp_path, capsys):
    # 600 + 600 as a recursor call loads, and normalizes to succ^1200,
    # which is deeper than the printer can go: that directive fails,
    # as one out of fuel would, and the next one still runs
    n = deep_numeral(600)
    f = tmp_path / "add.cac"
    f.write_text(NAT + f"normalize WElim_nat(nat, {n}, fun (x:nat) => "
                 f"fun (y:nat) => succ(y), {n}) .\n"
                 "normalize succ(zero) .\n", encoding="utf-8")
    assert main(["check", str(f)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith(
        "normalize (line 2): failed — depth-exceeded: ")
    assert lines[1:] == ["normalize (line 3): ok — succ(zero)",
                         "some checks failed"]
    assert captured.err == ""


def test_deep_normal_forms_convert(tmp_path, capsys):
    # 150 + 150 and 151 + 149 both normalize to succ^300(zero), which
    # is deeper than a recursive structural comparison can go
    step = "fun (x:nat) => fun (y:nat) => succ(y)"
    f = tmp_path / "deep_convert.cac"
    f.write_text(NAT + f"convert WElim_nat(nat, {deep_numeral(150)}, {step}, "
                 f"{deep_numeral(150)}) , WElim_nat(nat, {deep_numeral(151)}, "
                 f"{step}, {deep_numeral(149)}) .\n", encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "convert (line 2): ok — convertible", "all checks passed"]


def test_a_deep_left_hand_side_is_admitted(tmp_path, capsys):
    # the RPO trace lines print f's 300-deep left-hand side through the
    # printer, which reaches about 990 levels
    k = 300
    f = tmp_path / "deep_lhs.cac"
    f.write_text("symbol o : * .\nsymbol s : o -> o .\nsymbol f : o -> o .\n"
                 f"rule f({'s(' * k}x{')' * k}) -> x .\n", encoding="utf-8")
    assert main(["admissibility", str(f)]) == 0
    captured = capsys.readouterr()
    assert "ADMISSIBLE" in captured.out
    assert captured.err == ""


def _deep_a1_source(directives):
    """Rules whose A1 run overflows the recursion limit on the 1200-deep
    critical pairs of f's left-hand side with s(s(x)), then directives.
    (About 300 deep, A1 answers UNKNOWN, after seconds of joinability
    search.)"""
    k = 1200
    return ("symbol o : * .\nsymbol a : o .\nsymbol s : o -> o .\n"
            "symbol f : o -> o .\n"
            f"rule f({'s(' * k}x{')' * k}) -> x .\nrule s(s(x)) -> x .\n"
            + directives)


def test_a_command_that_converts_nothing_never_runs_a1(tmp_path, capsys):
    f = tmp_path / "deep_a1.cac"
    f.write_text(_deep_a1_source("check s(a) : o .\nnormalize s(s(a)) .\n"),
                 encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "check (line 7): ok", "normalize (line 8): ok — a",
        "all checks passed"]


def test_a1_that_overflows_fails_the_whole_command(tmp_path, capsys):
    # A1 runs at the first conversion; when it raises, the command ends
    # with A1's error and no directive's line, as when A1 ran first
    f = tmp_path / "deep_a1.cac"
    f.write_text(_deep_a1_source("normalize s(s(a)) .\n"
                                 "convert s(s(a)) , a .\n"),
                 encoding="utf-8")
    assert_depth_exceeded(main(["check", str(f)]), capsys)
    assert_depth_exceeded(
        main(["convert", str(f), "-e", "s(s(a))", "-e", "a"]), capsys)


def test_a1_runs_at_the_depth_of_the_directive_loop(tmp_path, capsys):
    # the first conversion, P(a) against P(s(s(a))), comes 300 term
    # levels deep in a check's typing; A1 on f's 150-deep left-hand side
    # completes from the directive loop, though not on top of that
    # typing, and the check then runs again
    k, depth = 150, 300
    f = tmp_path / "deep_conversion.cac"
    f.write_text("symbol o : * .\nsymbol a : o .\nsymbol s : o -> o .\n"
                 "symbol f : o -> o .\nsymbol P : o -> * .\n"
                 "symbol p : P(a) .\nsymbol g : P(s(s(a))) -> o .\n"
                 f"rule f({'s(' * k}x{')' * k}) -> x .\n"
                 "rule s(s(x)) -> x .\n"
                 f"check {'s(' * depth}g(p){')' * depth} : o .\n"
                 "convert P(a) , P(s(s(a))) .\n", encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "check (line 10): ok", "convert (line 11): ok — convertible",
        "all checks passed"]


def _unshared(t):
    return map_children(t, _unshared)


def test_a_shared_term_pays_its_fuel_in_every_directive(tmp_path):
    # both directives hold one object; the second takes its normal form
    # from the command's memo, yet is charged the first's contractions,
    # so the fuel stops both exactly where it stops an unshared copy
    add = ("WElim_nat(nat, succ(succ(zero)), fun (x:nat) => fun (y:nat) => "
           "succ(y), succ(succ(succ(zero))))")
    f = tmp_path / "twice.cac"
    f.write_text(NAT + "symbol node : nat -> nat -> nat .\n"
                 f"normalize node({add}, {add}) .\n"
                 f"normalize node({add}, {add}) .\n", encoding="utf-8")
    lf = load(f.read_text(encoding="utf-8"))
    first, second = (d.terms[0] for d in lf.directives)
    assert first is second and first.args[0] is first.args[1]
    copy = _unshared(first)
    assert copy == first and copy.args[0] is not copy.args[1]

    def run(fuel):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            main(["--fuel", str(fuel), "--report", "structured", "check",
                  str(f)])
        return json.loads(out.getvalue())["directives"]

    n = next(k for k in range(1, 100) if _normalizes(copy, lf.rules, k))
    expected = pp(normalize(copy, lf.rules, n))
    assert [d.get("normal_form") for d in run(n)] == [expected] * 2
    assert [d.get("detail") for d in run(n - 1)] == [
        "fuel exhausted during normalization"] * 2


def _normalizes(t, rules, fuel):
    try:
        normalize(t, rules, fuel)
        return True
    except FuelExhausted:
        return False


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(JSON_VALUES)
@example({"é": ["☃ 𝄞", "\"q\" \\ \n\t\x00\x1f\x7f\u2028"]})
@example({"": {}, "a": [], "b": [[], {}], "c": {"d": [None, True, False]}})
@example([-2 ** 70, 0, 7, (1, "x")])
def test_report_emitter_writes_the_bytes_of_json_dumps(value):
    assert cli.to_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_report_emitter_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError):
        cli.to_json({"x": {1, 2}})


def test_admissibility_of_a_long_plus_rule_is_fast(tmp_path, capsys):
    # without the memo the order decides about 24 million subterm pairs
    # here, and the run takes about a minute and a half
    f = tmp_path / "plus20.cac"
    f.write_text(plus_family_source(20), encoding="utf-8")
    t0 = time.perf_counter()
    code = main(["admissibility", str(f)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0 and out.endswith("overall: ADMISSIBLE\n")
    assert "strong normalization: HOLDS (rule1: plus(" in out
    assert elapsed < 1.0
