"""The type checker: inference, checking, conversion, environments."""

import pytest

from cac import (App, BOX, Environment, STAR, Symb, TypeChecker, Var,
                 Variable, alpha_eq, arrow, lam, pi)
from cac.terms import CacError, Sort
from cac.typing import TypingError, replay


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
    assert alpha_eq(typ, Symb("list", (Var(a),)))
    # wrong argument type is rejected
    with pytest.raises(TypingError):
        tc.infer(env, Symb("nil", (t,)))


def test_symbol_arity_is_exact(app):
    tc = TypeChecker(app.signature)
    with pytest.raises(CacError):
        tc.infer(Environment(), Symb("nil", ()))


def test_conversion_uses_rewrite_rules(intf):
    tc = TypeChecker(intf.signature, intf.rules, confluent=True)
    two_ways = Symb("s", (Symb("p", (Symb("0", ()),)),))
    assert tc.convertible(two_ways, Symb("0", ()))


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


def test_check_substitution(app):
    tc = TypeChecker(app.signature, app.rules)
    a = Variable.fresh("A", Sort.BOX)
    l = Variable.fresh("l", Sort.STAR)
    gamma = Environment().extend(a, STAR).extend(l, Symb("list", (Var(a),)))
    b = Variable.fresh("B", Sort.BOX)
    delta = Environment().extend(b, STAR)
    theta = {a: Var(b), l: Symb("nil", (Var(b),))}
    tc.check_substitution(theta, gamma, delta)
    with pytest.raises(TypingError):
        tc.check_substitution({a: Var(b), l: Var(b)}, gamma, delta)


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
