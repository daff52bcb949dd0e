"""Accessibility, derived types, well-formed rules, the closure
judgment, and the termination-schema verdict."""

import pytest

from cac import (App, Environment, Orientation, RewriteRule, STAR, Symb,
                 TypeChecker, Var, Variable, acc_step, args_greater, cc_check,
                 check_admissible, check_well_formed, confluence_check, load,
                 replay, satisfies_general_schema)
from cac.rewriting import UNDECIDED
from cac.schema import AccPair, SchemaError, acc_reachable, typed_subterms
from cac.terms import FuelExhausted, Sort
from tests.conftest import corpus_source


def _app_rule2(app):
    return next(r for r in app.rules if r.name == "rule2")


def test_acc_step_list(app):
    sig = app.signature
    a = Variable.fresh("A", Sort.BOX)
    x = Variable.fresh("x", Sort.STAR)
    l = Variable.fresh("l", Sort.STAR)
    t = Symb("cons", (Var(a), Var(x), Var(l)))
    pairs = acc_step(t, Symb("list", (Var(a),)), sig)
    # Acc(cons) = {1,2,3}: the element type, the head, and the tail
    rendered = {str(p) for p in pairs}
    assert rendered == {"⟨A, ★⟩", "⟨x, A⟩", "⟨l, list(A)⟩"}


def test_acc_step_requires_constructor_head(app):
    sig = app.signature
    a = Variable.fresh("A", Sort.BOX)
    assert acc_step(Var(a), Symb("list", (Var(a),)), sig) == []
    assert acc_step(Symb("nil", (Var(a),)), STAR, sig) == []


def test_acc_step_refuses_undeclared_and_misapplied_symbols(app):
    sig = app.signature
    a = Var(Variable.fresh("A", Sort.BOX))
    list_a = Symb("list", (a,))
    assert acc_step(Symb("zz", (a,)), list_a, sig) == []
    assert acc_step(Symb("cons", (a,)), list_a, sig) == []


def test_acc_step_reads_the_head_of_an_applied_type(app):
    # a type given as an application is a type of the predicate at its
    # head
    sig = app.signature
    a = Var(Variable.fresh("A", Sort.BOX))
    x = Var(Variable.fresh("x", Sort.STAR))
    nil = Symb("nil", (a,))
    assert acc_step(nil, App(Symb("list", (a,)), x), sig) \
        == acc_step(nil, Symb("list", (a,)), sig) == [AccPair(a, STAR)]


def test_acc_reachable_transitive(app):
    sig = app.signature
    a = Variable.fresh("A", Sort.BOX)
    x = Variable.fresh("x", Sort.STAR)
    l = Variable.fresh("l", Sort.STAR)
    nested = Symb("cons", (Var(a), Var(x),
                           Symb("cons", (Var(a), Var(x), Var(l)))))
    start = AccPair(nested, Symb("list", (Var(a),)))
    reached = acc_reachable(start, sig)
    assert any(p.term == Var(l) for p in reached)
    # first-reached order; the inner cons reaches A and x a second time
    assert [str(p) for p in reached] == [
        str(start), "⟨A, ★⟩", "⟨x, A⟩", "⟨cons(A, x, l), list(A)⟩",
        "⟨l, list(A)⟩"]
    assert acc_reachable(start, sig, limit=5) == reached
    with pytest.raises(FuelExhausted):
        acc_reachable(start, sig, limit=4)


def test_derived_type_app_rule(app):
    rule = _app_rule2(app)
    # lhs = app(A, cons(A', x, l), l')
    typed = {p: tau for p, _, tau in typed_subterms(rule.lhs, app.signature)}
    assert typed[(1,)] == STAR
    a_prime = rule.lhs.args[1].args[0]
    assert typed[(2, 3)] == Symb("list", (a_prime,))
    # the walk visits the proper positions alone, in prefix order
    assert list(typed) == [(1,), (2,), (2, 1), (2, 2), (2, 3), (3,)]


def test_an_argument_past_a_symbols_binders_has_no_derived_type():
    # a rule built through the API may apply a symbol to more arguments
    # than it has binders; the walk gives them an arity-error, so x has
    # no derived type there, and the rule fails S4 and well-formedness
    from cac import check_type_preservation
    from cac.admissibility import Outcome
    lf = load("symbol o : * .\nsymbol a : o .\nsymbol s : o -> o .\n"
              "symbol f : o -> o .\n")
    o, x = Symb("o", ()), Variable.fresh("x", Sort.STAR)
    rule = RewriteRule("r", Symb("f", (Symb("s", (Symb("a", ()), Var(x))),)),
                       Var(x), Environment.of([(x, o)]))
    typed = {p: tau for p, _, tau in typed_subterms(rule.lhs, lf.signature)}
    assert typed[(1,)] == o
    assert [(typed[p].code, typed[p].message) for p in [(1, 1), (1, 2)]] \
        == [("arity-error", "s expects 1 argument(s), got 2")] * 2
    assert check_well_formed(rule, lf.signature).failures == [
        "r: variable x has no accessible occurrence in the left-hand side "
        "with derived type matching o"]
    s4 = check_type_preservation(rule, TypeChecker(lf.signature, lf.rules))
    assert s4["s4"] == ("s4", Outcome.FAIL, "no derived-type occurrence for x")
    # substituted there, x is no parameter of s, which has no binder for it
    rule = rule._replace(ann_env=Environment(), ann_subst={x: Symb("a", ())})
    s5 = check_type_preservation(rule, TypeChecker(lf.signature, lf.rules))
    assert s5["s5"] == ("s5", Outcome.FAIL, "no parameter linkage for x")


def test_well_formed_app_rules(app):
    for rule in app.rules:
        wf = check_well_formed(rule, app.signature)
        assert wf.ok, wf.failures
    # the witness for l' in rule2 is the third argument itself
    rule = _app_rule2(app)
    wf = check_well_formed(rule, app.signature)
    by_name = {v.name: w for v, w in wf.witnesses.items()}
    assert by_name["l'"].arg_index == 3
    assert by_name["l"].position == (2, 3)
    # its derived type mentions A', and rho maps A' to A
    assert by_name["l"].derived == Symb("list",
                                        (rule.lhs.args[1].args[0],))


def test_well_formedness_refuses_undeclared_symbols(app):
    # rules built through the API may mention symbols no file declares
    a = Variable.fresh("A", Sort.BOX)
    l, l2 = (Variable.fresh(n, Sort.STAR) for n in ("l", "l2"))
    list_a = Symb("list", (Var(a),))
    env = Environment().extend(a, STAR).extend(l, list_a).extend(l2, list_a)
    head = RewriteRule("r", Symb("zz", (Var(l),)), Var(l),
                       Environment().extend(l, list_a))
    assert check_well_formed(head, app.signature) \
        == (False, {}, ["undeclared head symbol zz"])
    # l's one occurrence sits below zz, so it has no derived type
    inner = RewriteRule("r", Symb("app", (Var(a), Symb("zz", (Var(l),)),
                                          Var(l2))), Var(l2), env)
    wf = check_well_formed(inner, app.signature)
    assert wf.failures == [f"r: variable l has no accessible occurrence in "
                           f"the left-hand side with derived type matching "
                           f"{list_a}"]
    assert set(wf.witnesses) == {a, l2}


def test_closure_refuses_undeclared_and_misapplied_symbols():
    lf = load("symbol o : * .\nsymbol a : o .\nsymbol h : o -> o .\n"
              "symbol f : o -> o .\npragma prec f > a .\nrule f(x) -> a .\n")
    (rule,) = lf.rules
    tc = TypeChecker(lf.signature, lf.rules)
    a = Symb("a", ())
    # h is not below f in the precedence, yet its arity decides first
    for rhs, why in ((Symb("zz", ()), "undeclared symbol zz"),
                     (Symb("h", (a, a)), "h expects 1 argument(s), got 2")):
        bad = RewriteRule(rule.name, rule.lhs, rhs, rule.ann_env, {})
        with pytest.raises(SchemaError) as e:
            cc_check(bad, tc)
        assert e.value.message == f"rule1: no closure derivation: {why}"


def test_args_greater_strict_decrease(app):
    sig = app.signature
    rule = _app_rule2(app)
    a = rule.lhs.args[0]
    cons = rule.lhs.args[1]
    lp = rule.lhs.args[2]
    l = cons.args[2]
    list_a = Symb("list", (a,))
    lhs_pairs = [AccPair(a, STAR), AccPair(cons, list_a), AccPair(lp, list_a)]
    callee = [AccPair(a, STAR), AccPair(l, list_a), AccPair(lp, list_a)]
    ok, note = args_greater(lhs_pairs, callee, sig)
    assert ok
    assert "⟨cons(A', x, l), list(A)⟩ > ⟨l, list(A)⟩" in note
    # not greater than itself
    ok2, _ = args_greater(lhs_pairs, lhs_pairs, sig)
    assert not ok2


def test_cc_derivation_for_app(app):
    rule = _app_rule2(app)
    deriv = cc_check(rule, TypeChecker(app.signature, app.rules))
    tags = {n.rule_tag for n in deriv.nodes()}
    assert "symb=" in tags  # the guarded recursive call
    assert "acc" in tags or "var" in tags
    assert any("⟨cons(A', x, l), list(A)⟩ > ⟨l, list(A)⟩" in n.note
               for n in deriv.nodes())


def test_cc_derivation_replays(app):
    rule = _app_rule2(app)
    tc = TypeChecker(app.signature, app.rules)
    deriv = cc_check(rule, tc)
    assert replay(deriv, tc)
    assert not replay(deriv._replace(typ=STAR), tc)


# g(x) -> k needs el(pair(add(3, 0), add(3, 0))) converted to
# el(pair(3, 3)): six leftmost-outermost steps, but the breadth-first
# search walks every interleaving of the two independent additions
CONVERSION_UNDER_CONFLUENCE = """
symbol nat : * .
symbol zero : nat .
symbol s : nat -> nat .
symbol add : nat -> nat -> nat .
symbol pair : nat -> nat -> nat .
symbol el : nat -> * .
pragma acc(s) = {1} .
pragma prec add > s .
rule add(zero, y) -> y .
rule add(s(x), y) -> s(add(x, y)) .
symbol k : el(pair(add(s(s(s(zero))), zero), add(s(s(s(zero))), zero))) .
symbol g : nat -> el(pair(s(s(s(zero))), s(s(s(zero))))) .
pragma prec g > k .
pragma non_algebraic g .
rule g(x) -> k .
"""


def test_cc_converts_by_normalizing_under_confluence():
    # the two types have one normal form, which a conversion finds
    # after its early meet also without confluence
    lf = load(CONVERSION_UNDER_CONFLUENCE)
    rule = next(r for r in lf.rules if r.head_name() == "g")
    a1 = confluence_check(lf.rules, Orientation(lf.signature), 20)
    assert a1.positive
    for verdict in (UNDECIDED, a1):
        deriv = cc_check(rule, TypeChecker(lf.signature, lf.rules, 20,
                                           verdict))
        assert deriv.rule_tag == "conv"
    # el(pair(3, 2)) is another normal form: without confluence the
    # search goes on, and runs out of fuel in the interleavings
    lf = load(CONVERSION_UNDER_CONFLUENCE.replace(
        "nat -> el(pair(s(s(s(zero))), s(s(s(zero)))))",
        "nat -> el(pair(s(s(s(zero))), s(s(zero))))"))
    rule = next(r for r in lf.rules if r.head_name() == "g")
    with pytest.raises(SchemaError, match="fuel exhausted during "
                                          "joinability search"):
        cc_check(rule, TypeChecker(lf.signature, lf.rules, fuel=20))
    a1 = confluence_check(lf.rules, Orientation(lf.signature), 20)
    assert a1.positive
    with pytest.raises(SchemaError, match="expected el"):
        cc_check(rule, TypeChecker(lf.signature, lf.rules, 20, a1))


def test_admissibility_gives_the_closure_its_confluence_verdict():
    lf = load(CONVERSION_UNDER_CONFLUENCE)
    report = check_admissible(lf.signature, lf.rules, fuel=20,
                              force_non_algebraic=lf.non_algebraic)
    assert report.a1.positive
    assert report.a4_non_algebraic == {"g"}
    assert report.a4_non_algebraic_props.recursive.holds


def test_the_closure_judgment_shares_the_memo_of_its_run(monkeypatch):
    # a count, not a time: the closure checks of g and h, then S3 of
    # each, convert k's declared type, one object, against one rule
    # type, so its normal form takes 4 contractions in the whole run,
    # as many as with g alone: each check after the first finds it in
    # the memo of the run's checker
    import cac.rewriting
    redex_above, contractions = cac.rewriting._redex_above, []

    def counting(*args):
        contractions.append(args[0])
        return redex_above(*args)

    def run(source):
        lf = load(source)
        contractions.clear()
        monkeypatch.setattr(cac.rewriting, "_redex_above", counting)
        report = check_admissible(lf.signature, lf.rules, fuel=20,
                                  force_non_algebraic=lf.non_algebraic)
        monkeypatch.setattr(cac.rewriting, "_redex_above", redex_above)
        assert report.a4_non_algebraic_props.recursive.holds
        return len(contractions)

    one = run(CONVERSION_UNDER_CONFLUENCE)
    two = run(CONVERSION_UNDER_CONFLUENCE + """
symbol h : nat -> el(pair(s(s(s(zero))), s(s(s(zero))))) .
pragma prec h > k .
pragma non_algebraic h .
rule h(x) -> k .
""")
    assert (one, two) == (4, 4)


def test_general_schema_app(app):
    for rule in app.rules:
        v = satisfies_general_schema(rule,
                                     TypeChecker(app.signature, app.rules))
        assert v.ok, v.failure


def test_general_schema_rejects_self_loop():
    lf = load(corpus_source("neg_schema"))
    (rule,) = lf.rules
    v = satisfies_general_schema(rule, TypeChecker(lf.signature, lf.rules))
    assert not v.ok
    assert "not smaller" in v.failure


def test_cc_rejects_symbols_above_the_head():
    lf = load(corpus_source("neg_dup"))
    (rule,) = lf.rules
    v = satisfies_general_schema(rule, TypeChecker(lf.signature, lf.rules))
    assert not v.ok
    assert "precedence" in v.failure


def test_schema_ndm_shallow_rules(ndm):
    # the ground simplification rules satisfy the schema outright; the
    # deep negation rules do not (their variables sit under defined
    # connectives, which grant no accessibility) and the system is
    # certified through the primitive branch instead
    for rule in ndm.rules:
        v = satisfies_general_schema(rule,
                                     TypeChecker(ndm.signature, ndm.rules))
        deep = rule.name in ("rule7", "rule8")
        assert v.ok != deep, (rule.name, v.failure)
