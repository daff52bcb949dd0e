"""Type-preservation conditions, system properties, the defined-symbol
partition, and the overall verdict."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cac import (Outcome, OverallVerdict, check_admissible,
                 check_type_preservation, load, partition_defined,
                 system_properties)
from cac.admissibility import (HOLDS, TERMINATION_ASSERTED,
                               algebraic_termination, fails,
                               partition_explained)
from cac.orderings import Orientation, rpo_terminates
from cac.terms import symbols_of
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

# k is non-algebraic by pragma, h's rule mentions k and g's rule mentions
# h: the partition's fixpoint demotes h in its first pass and g only in
# its second, once h has left the algebraic part
DEMOTION_CHAIN = """
symbol o : * .
symbol a : o .
symbol k : o -> o .
symbol h : o -> o .
symbol g : o -> o .
pragma prec g > h .
pragma prec h > k .
pragma non_algebraic k .
rule k(x) -> x .
rule h(x) -> k(x) .
rule g(x) -> h(x) .
"""


def test_partition_demotes_through_a_chain_of_mentions():
    lf = load(DEMOTION_CHAIN)
    fa, fna, reasons = partition_explained(lf.signature, lf.rules,
                                           lf.non_algebraic)
    assert fa == frozenset()
    assert fna == frozenset({"g", "h", "k"})
    assert reasons == {
        "k": "excluded by pragma",
        "h": "rules mention the non-algebraic symbol k",
        "g": "rules mention the non-algebraic symbol h",
    }
    # without the pragma nothing is demoted
    assert partition_defined(lf.signature, lf.rules) == (
        frozenset({"g", "h", "k"}), frozenset())


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


# ---------------------------------------------------------------------------
# what the partition guarantees of the algebraic part


def reference_algebraic_part(sig, rules, fa, fna):
    """Reference checks of the algebraic part fa, computed from its rules
    rather than read from the partition: (algebraic, non_duplicating,
    separation)."""
    fa_rules = [r for r in rules if r.head_name() in fa]
    props = system_properties(fa, fa_rules, sig, rules,
                              which=("algebraic", "non_duplicating"))
    sep_bad = [(r.name, s) for r in fa_rules
               for s in sorted((symbols_of(r.lhs) | symbols_of(r.rhs))
                               & fna)]
    separation = (fails(f"rule {sep_bad[0][0]} mentions the "
                        f"non-algebraic symbol {sep_bad[0][1]}")
                  if sep_bad else HOLDS)
    return props.algebraic, props.non_duplicating, separation


def test_algebraic_part_passes_the_reference_checks(corpus):
    systems = dict(corpus, demotion_chain=load(DEMOTION_CHAIN),
                   cyclic_precedence=load(CYCLIC_PRECEDENCE))
    for name, lf in sorted(systems.items()):
        report = check_admissible(
            lf.signature, lf.rules, assume_confluent=lf.assume_confluent,
            assume_terminating=lf.assume_terminating,
            force_non_algebraic=lf.non_algebraic)
        ref = reference_algebraic_part(lf.signature, lf.rules,
                                       report.a4_algebraic,
                                       report.a4_non_algebraic)
        assert ref == (HOLDS, HOLDS, HOLDS), name
        a4 = report.to_dict()["a4"]
        shown = (a4["algebraic_properties"]["algebraic"],
                 a4["algebraic_properties"]["non_duplicating"],
                 a4["separation"])
        assert shown == tuple(ts.to_dict() for ts in ref), name


@st.composite
def first_order_systems(draw):
    """Source of a first-order system over o and nat: symbols f0..fn
    with up to two rules each, whose right-hand sides may duplicate a
    variable or hide under a beta-redex, random `prec` pragmas and a
    random `non_algebraic` set."""
    n = draw(st.integers(2, 5))
    arity = [draw(st.integers(0, 2)) for _ in range(n)]
    target = [draw(st.sampled_from(("o", "nat"))) for _ in range(n)]

    def term(ty, xs, depth, top):
        heads = [i for i in range(top) if target[i] == ty]
        pick = draw(st.integers(0, 3 if depth else 0))
        if pick == 0 or (not heads and ty == "o"):
            return draw(st.sampled_from(["a"] + xs if ty == "o"
                                        else ["zero"]))
        if ty == "nat" and (pick == 1 or not heads):
            return f"succ({term('nat', xs, depth - 1, top)})"
        i = draw(st.sampled_from(heads))
        args = ", ".join(term("o", xs, depth - 1, top)
                         for _ in range(arity[i]))
        return f"f{i}({args})" if arity[i] else f"f{i}"

    lines = ["symbol o : * .", "symbol a : o .",
             "inductive nat : * := zero : nat | succ : nat -> nat ."]
    for i in range(n):
        lines.append(f"symbol f{i} : " + "o -> " * arity[i]
                     + f"{target[i]} .")
    for i in range(n):
        xs = [f"x{k}" for k in range(arity[i])]
        lhs = f"f{i}({', '.join(xs)})" if xs else f"f{i}"
        for _ in range(draw(st.integers(0, 2))):
            # mostly calls of lower symbols, which may orient
            top = i if draw(st.integers(0, 4)) else n
            rhs = term(target[i], xs, 3, top)
            if draw(st.integers(0, 4)) == 0:
                rhs = f"(fun (z:{target[i]}) => z) {rhs}"
            lines.append(f"rule {lhs} -> {rhs} .")
    # mostly downward, so that many rules orient; an upward pair may
    # close a cycle
    for i in range(n):
        lines += [f"pragma prec f{i} > {c} ." for c in ("a", "zero", "succ")]
        lines += [f"pragma prec f{i} > f{j} ." for j in range(i)
                  if draw(st.integers(0, 3))]
    if draw(st.integers(0, 3)) == 0:
        i, j = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2,
                                   max_size=2)))
        lines.append(f"pragma prec f{i} > f{j} .")
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        lines.append(f"pragma non_algebraic f{i} .")
    if draw(st.booleans()):
        lines.append("pragma assume_terminating .")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(first_order_systems())
def test_partition_passes_the_reference_checks_on_generated_systems(src):
    lf = load(src)
    fa, fna, reasons = partition_explained(lf.signature, lf.rules,
                                           lf.non_algebraic,
                                           lf.assume_terminating)
    assert set(reasons) == fna
    assert reference_algebraic_part(lf.signature, lf.rules, fa, fna) \
        == (HOLDS, HOLDS, HOLDS), src
