"""Type-preservation conditions, system properties, the defined-symbol
partition, and the overall verdict."""

import pytest

from cac import (Outcome, OverallVerdict, check_admissible,
                 check_type_preservation, load, partition_defined,
                 system_properties)
from cac.admissibility import (TERMINATION_ASSERTED, algebraic_termination,
                               fails, partition_explained)
from cac.orderings import Orientation, rpo_terminates
from tests.conftest import corpus_source


def _conds(lf, name):
    rule = next(r for r in lf.rules if r.name == name)
    return check_type_preservation(rule, lf.signature, lf.rules)


def test_app_s_conditions(app):
    for r in app.rules:
        c = check_type_preservation(r, app.signature, app.rules)
        # S1-S3 exact, S4-S5 via the sufficient conditions
        assert c["s1"].outcome == Outcome.PASS
        assert c["s2"].outcome == Outcome.PASS
        assert c["s3"].outcome == Outcome.PASS
        assert c["s4"].outcome == Outcome.PASS_SUFFICIENT
        assert c["s5"].outcome == Outcome.PASS_SUFFICIENT


def test_s1_fails_when_rho_hits_env(app):
    import dataclasses
    rule = app.rules[0]
    (gamma_var, _) = tuple(rule.ann_env)[0]
    bad = dataclasses.replace(rule, ann_subst={gamma_var: rule.lhs.args[0]})
    c = check_type_preservation(bad, app.signature, app.rules)
    assert c["s1"].outcome == Outcome.FAIL


def test_s3_fails_on_ill_typed_rhs(app):
    import dataclasses
    from cac import STAR, Symb
    rule = next(r for r in app.rules if r.name == "rule1")
    bad = dataclasses.replace(rule, rhs=rule.lhs.args[0])  # a type, not a list
    c = check_type_preservation(bad, app.signature, app.rules)
    assert c["s3"].outcome == Outcome.FAIL


def test_ndm_properties(ndm):
    gset = frozenset(ndm.signature.defined_predicate_symbols(ndm.rules))
    assert gset == {"/\\", "\\/", "not"}
    props = system_properties(gset, ndm.rules, ndm.signature, ndm.rules)
    assert props.algebraic.holds
    assert props.non_duplicating.holds
    assert props.primitive.holds
    assert props.safe.holds
    # not simple: the deep negation rules nest defined connectives in
    # their lhs arguments — the primitive branch carries the system
    assert props.simple.status == "FAILS"


def test_non_duplication_witness():
    lf = load(corpus_source("neg_dup"))
    props = system_properties(frozenset({"f"}), lf.rules, lf.signature,
                              lf.rules, which=("non_duplicating",))
    assert props.non_duplicating.status == "FAILS"
    assert "duplicates x" in props.non_duplicating.witness


def test_top_overlap_detection():
    src = """
    symbol o : * .
    symbol f : o -> o .
    symbol a : o .
    rule f(x) -> a .
    rule f(a) -> a .
    """
    lf = load(src)
    props = system_properties(frozenset({"f"}), lf.rules, lf.signature,
                              lf.rules, which=("simple",))
    assert props.simple.status == "FAILS"
    assert "top" in props.simple.witness


def test_partition_int(intf):
    fa, fna = partition_defined(intf.signature, intf.rules)
    assert fa == frozenset({"s", "p", "plus", "times"})
    assert fna == frozenset()


def test_partition_demotes_with_reasons(natf):
    fa, fna, reasons = partition_explained(natf.signature, natf.rules)
    assert "WElim_nat" in fna
    assert reasons["WElim_nat"]  # a concrete demotion reason is recorded


def test_partition_force_non_algebraic(intf):
    fa, fna = partition_defined(intf.signature, intf.rules,
                                force_non_algebraic=frozenset({"plus"}))
    assert "plus" in fna


def test_verdicts(corpus):
    expected = {
        "app": OverallVerdict.ADMISSIBLE,
        "ndm_prop": OverallVerdict.ADMISSIBLE,
        "int": OverallVerdict.ADMISSIBLE,
        "nat": OverallVerdict.ADMISSIBLE,
        "listh": OverallVerdict.REJECTED,
        "neg_schema": OverallVerdict.REJECTED,
        "neg_dup": OverallVerdict.REJECTED,
    }
    for name, verdict in expected.items():
        lf = corpus[name]
        report = check_admissible(lf.signature, lf.rules,
                                  force_non_algebraic=lf.non_algebraic)
        assert report.overall == verdict, (name, report.to_text())


# rule1 admits no recursive-path-order orientation, rule2 does.  d's
# two rules overlap, so A1 asks for the orientation of every rule before
# A4 does, and d sorts before f in the partition.
ONE_LOOPING_RULE = """
symbol o : * .
symbol a : o .
symbol d : o -> o .
symbol f : o -> o .
pragma prec f > a .
rule d(x) -> d(d(x)) .
rule f(x) -> a .
rule d(a) -> a .
"""


def _admissibility(source):
    lf = load(source)
    return check_admissible(lf.signature, lf.rules,
                            assume_terminating=lf.assume_terminating,
                            force_non_algebraic=lf.non_algebraic)


def test_partition_demotes_only_the_rule_rpo_cannot_orient():
    report = _admissibility(ONE_LOOPING_RULE)
    assert report.a4_demotions == {
        "d": "rule rule1 admits no recursive-path-order orientation"}
    assert report.a4_algebraic == frozenset({"f"})
    assert report.a4_sn.status == "HOLDS"
    assert report.a4_sn.witness == "rule2: f(x) >rpo a"


def test_asserted_termination_is_used_only_for_unoriented_rules():
    asserted = _admissibility(ONE_LOOPING_RULE
                              + "pragma assume_terminating .\n")
    assert asserted.a4_algebraic == frozenset({"d", "f"})
    assert asserted.a4_sn is TERMINATION_ASSERTED
    assert asserted.assertions == [
        "termination of the algebraic part asserted by pragma"]
    # with d forced out, RPO orients what is left: no assertion needed
    oriented = _admissibility(ONE_LOOPING_RULE
                              + "pragma assume_terminating .\n"
                              + "pragma non_algebraic d .\n")
    assert oriented.a4_algebraic == frozenset({"f"})
    assert oriented.a4_sn.witness == "rule2: f(x) >rpo a"
    assert oriented.assertions == []


def test_algebraic_termination_without_proof_or_assertion():
    # check_admissible never reaches this branch: its partition demotes
    # every rule RPO cannot orient unless termination is asserted
    lf = load(ONE_LOOPING_RULE)
    looping, oriented, _ = lf.rules
    table = Orientation(lf.signature)
    assert algebraic_termination(lf.signature, [looping, oriented], table) \
        == fails("no recursive-path-order proof and no assertion")
    assert algebraic_termination(lf.signature, [looping, oriented], table,
                                 assume_terminating=True) \
        is TERMINATION_ASSERTED
    assert algebraic_termination(lf.signature, [oriented], table).witness \
        == "rule2: f(x) >rpo a"


def test_assertion_downgrades_verdict():
    # a duplicating but otherwise fine system accepted only by assertion
    src = """
    symbol o : * .
    symbol a : o .
    symbol f : o -> o .
    rule f(a) -> a .
    """
    lf = load(src)
    plain = check_admissible(lf.signature, lf.rules)
    assert plain.overall == OverallVerdict.ADMISSIBLE
    asserted = check_admissible(lf.signature, lf.rules,
                                assume_confluent=True)
    # the assertion is not needed (orthogonal), so it is not recorded
    assert asserted.overall == OverallVerdict.ADMISSIBLE


def test_confluence_assertion_recorded_when_used():
    src = """
    symbol o : * .
    symbol a : o .
    symbol b : o .
    symbol f : o -> o .
    rule f(x) -> b .
    rule f(a) -> b .
    pragma assume_confluent .
    """
    lf = load(src)
    report = check_admissible(lf.signature, lf.rules,
                              assume_confluent=lf.assume_confluent)
    assert report.a1.level.value == "ASSERTED"
    assert report.assertions
    assert report.overall in (OverallVerdict.ADMISSIBLE_WITH_ASSERTIONS,
                              OverallVerdict.REJECTED)


def test_report_text_and_dict_consistent(intf):
    report = check_admissible(intf.signature, intf.rules)
    d = report.to_dict()
    assert d["overall"] == report.overall.value
    assert d["a1"]["level"] == "NEWMAN"
    assert d["a4"]["algebraic"] == ["p", "plus", "s", "times"]
    assert "strongly normalizing" in d["meaning"]
    assert "overall: ADMISSIBLE" in report.to_text()


CYCLIC_PRECEDENCE = """
symbol o : * .
symbol z : o .
symbol f : o -> o .
symbol g : o -> o .
pragma prec f > g .
pragma prec g > f .
rule f(x) -> g(x) .
rule g(x) -> f(x) .
"""


def equivalence_chain(n):
    """n `=` pragmas chaining p0 ~ p1 ~ ... ~ pn, one rule on p0, and
    one user edge, so that the first precedence query made by
    `check_admissible` walks the whole chain from p0."""
    lines = ["symbol o : * .", "symbol z : o ."]
    lines += [f"symbol p{i} : o -> o ." for i in range(n + 1)]
    lines += [f"pragma prec p{i} = p{i + 1} ." for i in range(n)]
    lines.append("pragma prec p0 > z .")
    lines.append("rule p0(z) -> z .")
    return "\n".join(lines) + "\n"


def test_long_precedence_equivalence_chain_gets_a_verdict(tmp_path, capsys):
    from cac.cli import main
    source = equivalence_chain(1200)
    lf = load(source)
    report = check_admissible(lf.signature, lf.rules)
    assert report.overall == OverallVerdict.ADMISSIBLE
    f = tmp_path / "chain.cac"
    f.write_text(source, encoding="utf-8")
    assert main(["admissibility", str(f)]) == 0
    assert "depth-exceeded" not in capsys.readouterr().err


def test_cyclic_precedence_is_rejected():
    # each rule is RPO-oriented by one half of the cycle; neither the
    # termination proof nor the closure's symb< rule may rest on it
    lf = load(CYCLIC_PRECEDENCE)
    report = check_admissible(lf.signature, lf.rules)
    assert report.overall == OverallVerdict.REJECTED
    assert report.a4_sn.status == "FAILS"
    assert report.a4_sn.witness == "the precedence is cyclic: f > g > f"
    assert rpo_terminates(lf.signature, lf.rules) is None
    assert "cyclic" in report.a4_non_algebraic_props.recursive.witness
