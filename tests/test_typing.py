"""The type checker: inference, checking, conversion, environments."""

import pytest

from cac import (App, BOX, Environment, Orientation, STAR, Symb, TypeChecker,
                 Var, Variable, arrow, confluence_check, lam, pi)
from cac.terms import CacError, Sort
from cac.typing import A1Pending, TypingError, replay


def test_axiom():
    tc = TypeChecker(_empty_sig())
    typ, d = tc.infer(Environment(), STAR)
    assert typ == BOX
    assert d.rule_tag == "ax"


def _empty_sig():
    from cac import Signature
    return Signature()


def test_box_has_no_type():
    tc = TypeChecker(_empty_sig())
    with pytest.raises(TypingError):
        tc.infer(Environment(), BOX)


def test_variable_lookup():
    tc = TypeChecker(_empty_sig())
    a = Variable.fresh("A", Sort.BOX)
    env = Environment().extend(a, STAR)
    typ, _ = tc.infer(env, Var(a))
    assert typ == STAR
    with pytest.raises(TypingError):
        tc.infer(Environment(), Var(a))


def test_product_and_abstraction():
    tc = TypeChecker(_empty_sig())
    a = Variable.fresh("A", Sort.BOX)
    x = Variable.fresh("x", Sort.STAR)
    env = Environment().extend(a, STAR)
    # (x:A)A is a type of sort *
    t = pi(x, Var(a), Var(a))
    typ, _ = tc.infer(env, t)
    assert typ == STAR
    # the identity on A inhabits it
    ident = lam(x, Var(a), Var(x))
    tc.check(env, ident, t)
    # polymorphic identity: (A:*)(x:A)A
    poly = lam(a, STAR, ident)
    tc.check(Environment(), poly, pi(a, STAR, t))


def test_application_and_beta_conversion():
    tc = TypeChecker(_empty_sig())
    a = Variable.fresh("A", Sort.BOX)
    x = Variable.fresh("x", Sort.STAR)
    env = Environment().extend(a, STAR).extend(x, Var(a))
    ident = lam(a, STAR, lam(x, Var(a), Var(x)))
    applied = App(App(ident, Var(a)), Var(x))
    typ, _ = tc.infer(env, applied)
    assert tc.convertible(typ, Var(a))
    # checking against the beta-reduced type succeeds via conversion
    d = tc.check(env, applied, Var(a))
    assert replay(d, tc)


def test_symbol_application(app):
    tc = TypeChecker(app.signature, app.rules)
    sig = app.signature
    a = Variable.fresh("A", Sort.BOX)
    env = Environment().extend(a, STAR)
    t = Symb("nil", (Var(a),))
    typ, _ = tc.infer(env, t)
    assert typ == Symb("list", (Var(a),))
    # wrong argument type is rejected
    with pytest.raises(TypingError):
        tc.infer(env, Symb("nil", (t,)))


def test_symbol_arity_is_exact(app):
    tc = TypeChecker(app.signature)
    with pytest.raises(CacError):
        tc.infer(Environment(), Symb("nil", ()))


def test_conversion_uses_rewrite_rules(intf):
    a1 = confluence_check(intf.rules, Orientation(intf.signature))
    tc = TypeChecker(intf.signature, intf.rules, a1=a1)
    assert a1.positive
    two_ways = Symb("s", (Symb("p", (Symb("0", ()),)),))
    assert tc.convertible(two_ways, Symb("0", ()))


def test_a_checker_without_a1_raises_at_a_conversion(intf):
    # a checker whose A1 verdict is not set types and normalizes; only a
    # conversion waits for A1
    tc = TypeChecker(intf.signature, intf.rules, 10000, None)
    zero, intt = Symb("0", ()), Symb("int", ())
    two_ways = Symb("s", (Symb("p", (zero,)),))
    assert tc.infer(Environment(), two_ways)[0] == intt
    assert tc.check(Environment(), two_ways, intt).rule_tag == "symb"
    assert tc.normal_form(two_ways) == zero
    with pytest.raises(A1Pending):
        tc.convertible(two_ways, zero)
    tc.a1 = confluence_check(intf.rules, Orientation(intf.signature))
    assert tc.convertible(two_ways, zero)


def test_env_valid_checks_prefix_and_sort_class():
    tc = TypeChecker(_empty_sig())
    a = Variable.fresh("A", Sort.BOX)
    x = Variable.fresh("x", Sort.STAR)
    good = Environment().extend(a, STAR).extend(x, Var(a))
    tc.env_valid(good)
    # x declared before its type's variable
    bad = Environment().extend(x, Var(a)).extend(a, STAR)
    with pytest.raises(TypingError):
        tc.env_valid(bad)
    # sort-class mismatch: a star-class variable with a kind type
    y = Variable.fresh("y", Sort.STAR)
    with pytest.raises(TypingError):
        tc.env_valid(Environment().extend(y, STAR))


def test_derivation_replay_detects_tampering(app):
    tc = TypeChecker(app.signature, app.rules)
    a = Variable.fresh("A", Sort.BOX)
    env = Environment().extend(a, STAR)
    d = tc.check(env, Symb("nil", (Var(a),)), Symb("list", (Var(a),)))
    assert replay(d, tc)
    corrupted = d._replace(typ=STAR)
    assert not replay(corrupted, tc)


def test_typed_rule_environments(app, ndm, natf, intf):
    # every corpus rule's annotated environment is valid and both sides
    # type at the rule's type
    for lf in (app, ndm, natf, intf):
        tc = TypeChecker(lf.signature, lf.rules)
        for r in lf.rules:
            tc.env_valid(r.ann_env)


# A type family F whose rule turns F(zero) into a product: applying g
# needs its type reduced before it is a product.
TYPE_LEVEL_RULE = """
symbol nat : * .
symbol zero : nat .
symbol F : nat -> * .
rule F(x) -> nat -> nat .
symbol g : F(zero) .
symbol h : nat .
"""

NAT, ZERO = Symb("nat", ()), Symb("zero", ())
G_ZERO = App(Symb("g", ()), ZERO)


def _type_level():
    from cac import load
    lf = load(TYPE_LEVEL_RULE)
    return TypeChecker(lf.signature, lf.rules)


def test_application_reduces_the_head_type_to_a_product():
    tc = _type_level()
    d = tc.check(Environment(), G_ZERO, NAT)
    assert d.rule_tag == "app"
    assert d.premises[0].typ == Symb("F", (ZERO,))


def test_application_of_a_non_function_is_rejected():
    tc = _type_level()
    with pytest.raises(TypingError, match="expected a product type, "
                                          "found nat") as e:
        tc.infer(Environment(), App(Symb("h", ()), ZERO))
    assert e.value.code == "not-a-product"


def test_reduction_to_a_product_runs_on_fuel():
    from cac import FuelExhausted, load
    lf = load(TYPE_LEVEL_RULE.replace("rule F(x) -> nat -> nat",
                                      "rule F(x) -> F(x)"))
    tc = TypeChecker(lf.signature, lf.rules, fuel=5)
    with pytest.raises(FuelExhausted, match="reduction to product"):
        tc.infer(Environment(), G_ZERO)


def test_replay_checks_a_product():
    tc = _type_level()
    _, d = tc.infer(Environment(), arrow(NAT, NAT))
    assert d.rule_tag == "prod"
    assert replay(d, tc)
    assert not replay(d._replace(typ=NAT), tc)


def test_replay_checks_an_abstraction():
    tc = _type_level()
    x = Variable.fresh("x", Sort.STAR)
    _, d = tc.infer(Environment(), lam(x, NAT, Var(x)))
    assert d.rule_tag == "abs"
    assert replay(d, tc)
    # the body's judgment, then the product's with its two sorts
    assert [(n.rule_tag, str(n.term)) for n in d.nodes()] == [
        ("abs", "fun (x:nat) => x"), ("var", "x"),
        ("prod", "nat -> nat"), ("symb", "nat"), ("symb", "nat")]
    # the product's domain must be the abstraction's
    assert not replay(d._replace(typ=arrow(Symb("F", (ZERO,)), NAT)), tc)


def test_replay_checks_an_application():
    tc = _type_level()
    d = tc.check(Environment(), G_ZERO, NAT)
    assert replay(d, tc)
    assert not replay(d._replace(typ=ZERO), tc)
    # a head whose type is no product, with a premise that replays
    _, h = tc.infer(Environment(), Symb("h", ()))
    assert replay(h, tc)
    assert not replay(d._replace(premises=(h, d.premises[1])), tc)


def test_replay_rejects_malformed_nodes():
    tc = _type_level()
    d = tc.check(Environment(), G_ZERO, NAT)
    head, arg = d.premises
    assert arg.rule_tag == "symb" and replay(arg, tc)
    # a premise that does not replay, under a node that would
    bad_arg = arg._replace(typ=Symb("F", (ZERO,)))
    assert not replay(bad_arg, tc)
    assert not replay(d._replace(premises=(head, bad_arg)), tc)
    # a symb node over no symbol, an undeclared one, or a misapplied one
    x = Variable.fresh("x", Sort.STAR)
    for term in (Var(x), Symb("zz", ()), Symb("zero", (ZERO,))):
        assert not replay(arg._replace(term=term), tc), term
    # an app node over no application
    assert not replay(d._replace(term=ZERO), tc)
    # a rule that does not exist
    assert not replay(arg._replace(rule_tag="weak"), tc)


def test_replay_checks_a_conversion():
    tc = _type_level()
    d = tc.check(Environment(), Symb("g", ()), arrow(NAT, NAT))
    assert d.rule_tag == "conv"
    assert replay(d, tc)
    assert not replay(d._replace(typ=NAT), tc)
    assert not replay(d._replace(premises=()), tc)


def test_a_type_whose_type_rewrites_to_a_sort():
    # t's type G(a) is a sort only after G(a) -> *, so each product over
    # t is sorted through a conversion node, and the abstraction's
    # product judgment takes its sort from that node
    from cac import load
    lf = load("symbol o : * .\nsymbol a : o .\nsymbol G : o -> * .\n"
              "rule G(a) -> * .\nsymbol t : G(a) .\n"
              "check fun (x:t) => x : t -> t .\n"
              "check fun (x:t) => fun (y:t) => x : t -> t -> t .\n")
    tc = TypeChecker(lf.signature, lf.rules)
    for directive, convs in zip(lf.directives, (2, 5)):
        d = tc.check(Environment(), *directive.terms)
        assert d.rule_tag == "abs" and d.premises[1].typ == STAR
        assert replay(d, tc)
        assert sum(n.rule_tag == "conv" for n in d.nodes()) == convs


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="replay checks each node's conclusion against "
                          "its rule, not that the premises are the "
                          "judgments the rule needs (ROADMAP item 9)")
def test_replay_rejects_a_forged_derivation():
    from cac import load
    lf = load("symbol o : * .\nsymbol n : * .\nsymbol a : o .\n"
              "symbol b : n .\nsymbol f : o -> o .\n")
    tc = TypeChecker(lf.signature, lf.rules)
    a, b = Symb("a", ()), Symb("b", ())
    _, d = tc.infer(Environment(), Symb("f", (a,)))
    assert replay(d, tc)
    forged = d._replace(term=Symb("f", (b,)))
    with pytest.raises(TypingError, match="b has type n, expected o"):
        tc.infer(Environment(), forged.term)
    assert not replay(forged, tc)
