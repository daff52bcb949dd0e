"""Type-preservation conditions, system properties, the defined-symbol
partition, and the overall verdict."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cac import (Outcome, OverallVerdict, TypeChecker, admissibility,
                 check_admissible, check_type_preservation, load,
                 system_properties)
from cac.admissibility import (HOLDS, TERMINATION_ASSERTED,
                               algebraic_termination, fails,
                               partition_explained)
from cac.orderings import Orientation
from cac.positivity import predicate_classes
from cac.terms import symbols_of
from tests.conftest import corpus_source


def partition(lf, force_non_algebraic=frozenset(), assume_terminating=False):
    """A4's partition of lf's defined symbols, with an orientation table
    and predicate classes of its own."""
    return partition_explained(lf.signature, lf.rules, force_non_algebraic,
                               assume_terminating, Orientation(lf.signature),
                               predicate_classes(lf.signature, lf.rules))


def _conds(lf, name):
    rule = next(r for r in lf.rules if r.name == name)
    return check_type_preservation(rule, TypeChecker(lf.signature, lf.rules))


def test_app_s_conditions(app):
    for r in app.rules:
        c = check_type_preservation(r, TypeChecker(app.signature, app.rules))
        # S1-S3 exact, S4-S5 via the sufficient conditions
        assert c["s1"].outcome == Outcome.PASS
        assert c["s2"].outcome == Outcome.PASS
        assert c["s3"].outcome == Outcome.PASS
        assert c["s4"].outcome == Outcome.PASS_SUFFICIENT
        assert c["s5"].outcome == Outcome.PASS_SUFFICIENT


def test_results_of_fixed_text_are_shared(app):
    from cac.admissibility import (S1_PASS, S2_PASS, S3_PASS, S4_SUFFICIENT,
                                   S4_VACUOUS, S5_SUFFICIENT, S5_VACUOUS)
    lf = load("symbol o : * .\nsymbol a : o .\nsymbol f : o -> o .\n"
              "rule f(a) -> a .\n")
    for system, shared in (
            (app, (S1_PASS, S2_PASS, S3_PASS, S4_SUFFICIENT, S5_SUFFICIENT)),
            (lf, (S1_PASS, S2_PASS, S3_PASS, S4_VACUOUS, S5_VACUOUS))):
        tc = TypeChecker(system.signature, system.rules)
        for r in system.rules:
            row = check_type_preservation(r, tc)
            assert all(map(operator.is_, row.values(), shared)), r.name


def test_report_rows_are_shared_and_read_only(app):
    # synthetic(20)'s 40 rules have equal S1-S5 results, so the report
    # holds one row for all of them, and no caller can change it
    from tests.test_acceptance import _synthetic
    lf = load(_synthetic(20))
    report = check_admissible(lf.signature, lf.rules)
    rows = list(report.s_conditions.values())
    assert len(rows) == 40 and len({id(row) for row in rows}) == 1
    with pytest.raises(TypeError):
        rows[0]["s1"] = rows[0]["s2"]
    # each rule's row, shared or not, holds that rule's own results
    report = check_admissible(app.signature, app.rules)
    for name, row in report.s_conditions.items():
        rule = next(r for r in app.rules if r.name == name)
        assert dict(row) == check_type_preservation(
            rule, TypeChecker(app.signature, app.rules))


def test_s1_fails_when_rho_hits_env(app):
    rule = app.rules[0]
    (gamma_var, _) = tuple(rule.ann_env)[0]
    bad = rule._replace(ann_subst={gamma_var: rule.lhs.args[0]})
    c = check_type_preservation(bad, TypeChecker(app.signature, app.rules))
    assert c["s1"].outcome == Outcome.FAIL


def test_s3_fails_on_ill_typed_rhs(app):
    from cac import STAR, Symb
    rule = next(r for r in app.rules if r.name == "rule1")
    bad = rule._replace(rhs=rule.lhs.args[0])  # a type, not a list
    c = check_type_preservation(bad, TypeChecker(app.signature, app.rules))
    assert c["s3"].outcome == Outcome.FAIL


def test_invalid_environment_fails_s2_and_s3_alike(app):
    from cac import Symb, Variable
    from cac.terms import Environment
    rule = next(r for r in app.rules if r.name == "rule1")
    x = Variable.fresh("x")
    bad = rule._replace(ann_env=Environment.of([(x, Symb("undeclared", ()))]))
    c = check_type_preservation(bad, TypeChecker(app.signature, app.rules))
    why = "binding 1 (x:undeclared): undeclared symbol undeclared"
    assert c["s2"] == ("s2", Outcome.FAIL, why)
    assert c["s3"] == ("s3", Outcome.FAIL, why)


def test_s4_lists_uncovered_variables_in_lhs_order():
    # variables hash by their id, so a set of them iterates in an order
    # that shifts with how many variables the process has made; each
    # base below, far above the ids that `Variable.fresh` hands out,
    # moves a and b to other slots of such a set
    from cac import RewriteRule, Symb, Var, Variable
    from cac.terms import Environment, Sort
    lf = load("symbol o : * .\nsymbol z : o .\n"
              "symbol g : o -> o -> o -> o .\n")
    tc = TypeChecker(lf.signature, lf.rules)
    for base in range(10 ** 9, 10 ** 9 + 8):
        x, a, b = (Variable(base + k, Sort.STAR, name)
                   for k, name in ((2, "x"), (0, "a"), (1, "b")))
        rule = RewriteRule("r", Symb("g", (Var(x), Var(a), Var(b))),
                           Symb("z", ()),
                           Environment().extend(x, Symb("o", ())))
        c = check_type_preservation(rule, tc)
        assert c["s4"].detail == ("lhs variables outside env and "
                                  "substitution: a, b"), base


# S5's linkage tests skip every occurrence that cannot link a
# substituted variable to its image; each system below has one such
# occurrence and no other, so S5 fails
S5_UNLINKED = [
    # the occurrence's holder list(A') has a sort for output type
    ("symbol list : * -> * .\nsymbol f : * -> o .\n"
     "rule f(list(A')) -> a with env [A : *] rho {A' := A} .\n", "A'"),
    # cons's second binder is no parameter of its output type list(A)
    ("symbol list : * -> * .\n"
     "symbol cons : (A : *) -> A -> list(A) -> list(A) .\n"
     "symbol g : list(o) -> o .\n"
     "rule g(cons(o, x', l)) -> a with env [l : list(o)] rho {x' := a} .\n",
     "x'"),
    # n' is the index of h's second argument, but c's type is w(zero),
    # not an instance of vec(n)
    ("symbol nat : * .\nsymbol zero : nat .\nsymbol vec : nat -> * .\n"
     "symbol w : nat -> * .\nsymbol c : w(zero) .\n"
     "symbol h : (n : nat) -> vec(n) -> o .\n"
     "rule h(n', c) -> a with env [] rho {n' := zero} .\n", "n'"),
]


@pytest.mark.parametrize("rules, unlinked", S5_UNLINKED)
def test_s5_skips_occurrences_that_cannot_link(rules, unlinked):
    lf = load("symbol o : * .\nsymbol a : o .\n" + rules)
    (rule,) = lf.rules
    c = check_type_preservation(rule, TypeChecker(lf.signature, lf.rules))
    assert c["s5"] == ("s5", Outcome.FAIL,
                       f"no parameter linkage for {unlinked}")


def test_ndm_properties(ndm):
    gset = frozenset(ndm.signature.defined_predicate_symbols(ndm.rules))
    assert gset == {"/\\", "\\/", "not"}
    props = system_properties(gset, ndm.rules,
                              TypeChecker(ndm.signature, ndm.rules),
                              predicate_classes(ndm.signature, ndm.rules))
    assert props.algebraic.holds
    assert props.non_duplicating.holds
    assert props.primitive.holds
    assert props.safe.holds
    # not simple: the deep negation rules nest defined connectives in
    # their lhs arguments — the primitive branch carries the system
    assert props.simple.status == "FAILS"


def test_non_duplication_witness():
    lf = load(corpus_source("neg_dup"))
    props = system_properties(frozenset({"f"}), lf.rules,
                              TypeChecker(lf.signature, lf.rules), {},
                              which=("non_duplicating",))
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
    props = system_properties(frozenset({"f"}), lf.rules,
                              TypeChecker(lf.signature, lf.rules), {},
                              which=("simple",))
    assert props.simple.status == "FAILS"
    assert "top" in props.simple.witness


APP_SOURCE = corpus_source("app")


@pytest.mark.parametrize("extra, prop, witness", [
    ("symbol nat : * .\nsymbol F : nat -> * .\nrule F(x) -> nat -> nat .\n",
     "primitive", "rule rule3: right-hand side head is nat -> nat, not a "
                  "symbol application"),
    # list has an accessible argument of type list(A): basic, not
    # primitive
    ("symbol F : * -> * .\nrule F(A) -> list(A) .\n",
     "primitive", "rule rule3: head symbol list is outside the system and "
                  "not a primitive predicate"),
    ("symbol F : * -> * -> * .\nrule F(A, A) -> A .\n",
     "simple", "rule rule3: predicate variable A must be exactly one lhs "
               "argument, found 2"),
    ("symbol G : * -> * .\nrule G(list(B)) -> B .\n",
     "simple", "rule rule3: predicate variable B must be exactly one lhs "
               "argument, found 0"),
])
def test_a3_property_witnesses(extra, prop, witness):
    report = _admissibility(APP_SOURCE + extra)
    assert getattr(report.a3_properties, prop) == fails(witness)


def test_primitive_reads_the_head_under_abstractions():
    # g's type F(zero) rewrites to a product, so g's rule may have an
    # abstraction for its right-hand side; no predicate symbol's can,
    # which leaves this to a call of the property itself
    lf = load("symbol nat : * .\nsymbol zero : nat .\nsymbol F : nat -> * .\n"
              "rule F(x) -> nat -> nat .\nsymbol g : F(zero) .\n"
              "symbol h : nat -> nat .\nrule g -> fun (y : nat) => h(y) .\n")
    tc = TypeChecker(lf.signature, lf.rules)
    classes = predicate_classes(lf.signature, lf.rules)
    assert system_properties(frozenset({"g", "h"}), lf.rules[1:], tc,
                             classes, which=("primitive",)).primitive \
        == HOLDS


def test_primitive_names_a_bound_head_by_its_binder():
    # the abstraction is opened, not stripped: its variable is named in
    # the witness, not left a loose de Bruijn index
    lf = load("symbol nat : * .\nsymbol zero : nat .\nsymbol F : nat -> * .\n"
              "rule F(x) -> nat -> nat .\nsymbol g : F(zero) .\n"
              "rule g -> fun (y : nat) => y .\n")
    tc = TypeChecker(lf.signature, lf.rules)
    classes = predicate_classes(lf.signature, lf.rules)
    assert system_properties(frozenset({"g"}), lf.rules[1:], tc, classes,
                             which=("primitive",)).primitive \
        == fails("rule rule2: right-hand side head is y, not a symbol "
                 "application")


@pytest.mark.parametrize("extra, witness", [
    ("symbol o : * .\nrule app(o, nil(o), l) -> l .\n"
     "pragma non_algebraic app .\n",
     "rule rule3: predicate argument A is instantiated to o, not a "
     "predicate variable of the environment"),
    ("symbol k : (A : *) -> (B : *) -> A -> B -> A .\n"
     "rule k(A, A, x, y) -> x .\npragma non_algebraic k .\n",
     "rule rule3: predicate arguments A and B share the instance A"),
])
def test_a4_safety_witnesses(extra, witness):
    report = _admissibility(APP_SOURCE + extra)
    assert report.a4_non_algebraic_props.safe == fails(witness)
    assert report.overall == OverallVerdict.REJECTED


def test_algebraic_witnesses_of_symbols_outside_the_predicates(app):
    # no run asks this of object symbols or of undeclared ones, but the
    # property says why it fails for them
    tc = TypeChecker(app.signature, app.rules)
    classes = predicate_classes(app.signature, app.rules)
    assert system_properties(frozenset({"zz"}), [], tc, classes,
                             which=("algebraic",)).algebraic \
        == fails("undeclared symbol zz")
    assert system_properties(frozenset({"app"}), app.rules, tc, classes,
                             which=("algebraic",)).algebraic \
        == fails("app is neither a predicate symbol nor a constructor of "
                 "a primitive predicate")


def test_partition_int(intf):
    fa, fna = partition(intf)[:2]
    assert fa == frozenset({"s", "p", "plus", "times"})
    assert fna == frozenset()


def test_partition_demotes_with_reasons(natf):
    fa, fna, reasons = partition(natf)
    assert "WElim_nat" in fna
    assert reasons["WElim_nat"]  # a concrete demotion reason is recorded


def test_partition_force_non_algebraic(intf):
    fa, fna = partition(intf, force_non_algebraic=frozenset({"plus"}))[:2]
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


A3_HEAD = """\
inductive nat : * := zero : nat | succ : nat -> nat .
symbol P : nat -> * .
symbol Q : * .
"""


@pytest.mark.parametrize("rules, branch, positive, recursive", [
    ("rule P(x) -> (y : nat) -> P(y) .\n",
     "simple+positive", "HOLDS", "FAILS"),
    ("pragma prec P > Q .\nrule P(succ(x)) -> P(x) -> Q .\n",
     "simple+recursive", "FAILS", "HOLDS"),
    # both hold: the positive branch is tried first
    ("pragma prec P > Q .\nrule P(succ(x)) -> Q -> P(x) .\n",
     "simple+positive", "HOLDS", "HOLDS"),
    ("rule P(x) -> P(x) -> Q .\n", "none", "FAILS", "FAILS"),
])
def test_a3_branches_of_a_simple_system(rules, branch, positive, recursive):
    report = _admissibility(A3_HEAD + rules)
    props = report.a3_properties
    assert report.a3_branch == branch
    assert props.primitive.status == "FAILS"
    assert props.simple.status == "HOLDS"
    assert props.positive.status == positive
    assert props.recursive.status == recursive
    assert f"A3 predicate-level rules: branch = {branch}" in report.to_text()


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
    fa, fna, reasons = partition(lf, lf.non_algebraic)
    assert fa == frozenset()
    assert fna == frozenset({"g", "h", "k"})
    assert reasons == {
        "k": "excluded by pragma",
        "h": "rules mention the non-algebraic symbol k",
        "g": "rules mention the non-algebraic symbol h",
    }
    # without the pragma nothing is demoted
    assert partition(lf)[:2] == (
        frozenset({"g", "h", "k"}), frozenset())


def test_partition_builds_no_mention_index_when_nothing_is_demoted():
    # synthetic(160) demotes no symbol before the fixpoint loop, which
    # then never runs, so what the rules mention is never read
    from tests.test_acceptance import _calls, _synthetic
    lf = load(_synthetic(160))
    got = []
    calls = _calls(lambda: got.append(partition(lf)), only=symbols_of)
    assert calls == 0
    assert len(got[0][0]) == 160 and got[0][1:] == (frozenset(), {})


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
    assert Orientation(lf.signature).terminates(lf.rules) is None
    assert "cyclic" in report.a4_non_algebraic_props.recursive.witness


# ---------------------------------------------------------------------------
# what the partition guarantees of the algebraic part


def reference_algebraic_part(sig, rules, fa, fna):
    """Reference checks of the algebraic part fa, computed from its rules
    rather than read from the partition: (algebraic, non_duplicating,
    separation)."""
    fa_rules = [r for r in rules if r.head_name() in fa]
    props = system_properties(fa, fa_rules, TypeChecker(sig, rules),
                              predicate_classes(sig, rules),
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
    fa, fna, reasons = partition(lf, lf.non_algebraic, lf.assume_terminating)
    assert set(reasons) == fna
    assert reference_algebraic_part(lf.signature, lf.rules, fa, fna) \
        == (HOLDS, HOLDS, HOLDS), src


def test_one_run_classifies_the_free_predicates_once(ndm, monkeypatch):
    # A3's properties and A4's partition read the same classes, which
    # the run computes once and hands to both
    calls = []
    classify = admissibility.predicate_classes
    monkeypatch.setattr(admissibility, "predicate_classes",
                        lambda *a: calls.append(a) or classify(*a))
    report = check_admissible(ndm.signature, ndm.rules)
    assert len(calls) == 1
    assert report.a3_branch == "primitive"
