"""Symbol declarations, precedence, inductive structure bookkeeping."""

import pytest

from cac import (Environment, RewriteRule, RuleSet, Signature, STAR, Symb,
                 TypeChecker, arrow, load)
from cac.cli import _parse_expr
from cac.terms import CacError, Sort
from tests.test_acceptance import _calls


def base_sig():
    sig = Signature()
    sig.declare("o", 0, STAR)
    return sig


def test_declare_and_lookup():
    sig = base_sig()
    sig.declare("f", 1, arrow(Symb("o", ()), Symb("o", ())))
    d = sig.decls["f"]
    assert d.arity == 1
    assert d.sort == Sort.STAR
    assert d.output == Symb("o", ())


def test_declare_rejects_arity_beyond_products():
    sig = base_sig()
    with pytest.raises(CacError):
        sig.declare("f", 2, arrow(Symb("o", ()), Symb("o", ())))


def test_declare_rejects_duplicates():
    sig = base_sig()
    with pytest.raises(CacError):
        sig.declare("o", 0, STAR)


def test_declare_rejects_undeclared_symbols():
    # the parser refuses an unknown name first, so only the API gets here
    sig = base_sig()
    with pytest.raises(CacError) as e:
        sig.declare("f", 1, arrow(Symb("q", ()), Symb("p", ())))
    assert (e.value.code, e.value.message) == (
        "unknown-symbol", "type of f mentions undeclared symbol(s) ['p', 'q']")
    assert "f" not in sig


def test_predicate_symbols_have_box_sort():
    sig = base_sig()
    assert sig.decls["o"].sort == Sort.BOX


def test_default_precedence_edges():
    sig = base_sig()
    sig.declare("f", 1, arrow(Symb("o", ()), Symb("o", ())))
    # declared symbols sit above the symbols of their type
    assert sig.precedence.gt("f", "o")
    assert not sig.precedence.gt("o", "f")


def test_user_precedence_and_equivalence():
    sig = base_sig()
    sig.declare("f", 1, arrow(Symb("o", ()), Symb("o", ())))
    sig.declare("g", 1, arrow(Symb("o", ()), Symb("o", ())))
    sig.precedence.add_gt("f", "g")
    assert sig.precedence.gt("f", "g")
    assert not sig.precedence.gt("g", "f")
    sig.precedence.add_eq("f", "h")
    assert sig.precedence.eq("h", "f")
    assert sig.precedence.gt("h", "g")


def test_precedence_cycle_detection():
    sig = base_sig()
    sig.declare("f", 0, Symb("o", ()))
    sig.declare("g", 0, Symb("o", ()))
    sig.precedence.add_gt("f", "g")
    sig.precedence.add_gt("g", "f")
    assert sig.precedence.find_cycle() is not None


def test_precedence_queries_see_later_pragmas():
    sig = base_sig()
    sig.declare("f", 0, Symb("o", ()))
    sig.declare("g", 0, Symb("o", ()))
    prec = sig.precedence
    assert not prec.gt("f", "g")
    assert prec.find_cycle() is None
    prec.add_gt("f", "g")
    assert prec.gt("f", "g") and not prec.gt("g", "f")
    assert prec.find_cycle() is None
    prec.add_gt("g", "f")
    assert prec.gt("g", "f")
    assert prec.find_cycle() == ["f", "g", "f"]
    # f > g with f ~ g puts the merged class strictly above itself
    prec.add_eq("f", "g")
    assert not prec.gt("f", "g")
    assert prec.find_cycle() == ["g", "g"]
    # a declaration adds default edges below the new symbol
    assert not prec.gt("k", "f")
    sig.declare("k", 0, Symb("o", ()))
    prec.add_gt("k", "g")
    assert prec.gt("k", "f") and prec.gt("k", "o")


def test_long_precedence_chain_has_no_cycle():
    prec = base_sig().precedence
    for i in range(3000):
        prec.add_gt(f"s{i}", f"s{i + 1}")
    assert prec.find_cycle() is None
    assert prec.gt("s0", "s3000")
    prec.add_gt("s3000", "s0")
    assert len(prec.find_cycle()) == 3002


def test_long_precedence_equivalence_chain():
    # add_eq links root to root in pragma order, so p0 sits 1,200 links
    # below its class representative
    prec = base_sig().precedence
    for i in range(1200):
        prec.add_eq(f"p{i}", f"p{i + 1}")
    assert prec.find("p0") == "p1200"
    assert all(prec.find(f"p{i}") == "p1200" for i in range(1201))
    assert prec.eq("p0", "p1200") and not prec.gt("p0", "p1200")


def test_constructors_of_includes_non_free_symbols(intf):
    sig = intf.signature
    names = set(sig.constructors_of("int"))
    # [PAPER] constructors need not be free: defined symbols with an
    # int-valued output count as constructors of int.
    assert {"0", "s", "p", "plus", "times"} <= names


def test_constructors_are_indexed_in_declaration_order():
    sig = Signature()
    sig.declare("A", 0, STAR)
    sig.declare("B", 0, STAR)
    sig.declare("a1", 0, Symb("A", ()))
    sig.declare("b1", 1, arrow(Symb("A", ()), Symb("B", ())))
    sig.declare("a2", 1, arrow(Symb("B", ()), Symb("A", ())))
    assert sig.constructors_of("A") == ["a1", "a2"]
    assert sig.constructors_of("B") == ["b1"]
    assert sig.constructors_of("a1") == []
    # each call hands out its own list
    sig.constructors_of("A").append("x")
    assert sig.constructors_of("A") == ["a1", "a2"]


def test_free_and_defined(intf):
    free, defined = intf.signature.free_and_defined(intf.rules)
    assert defined == frozenset({"s", "p", "plus", "times"})
    assert "0" in free and "int" in free


def test_constructor_target(app):
    sig = app.signature
    assert sig.constructor_target("nil") == "list"
    assert sig.constructor_target("cons") == "list"
    assert sig.constructor_target("list") is None


def test_a_declared_type_is_kind_checked_once():
    # the closed terms of a file share one table, so both declarations
    # hold one type object, and the second reuses the first's sort
    one = "symbol o : * .\nsymbol f : o -> o -> o .\n"
    two = one + "symbol g : o -> o -> o .\n"
    decls = load(two).signature.decls
    assert decls["f"].typ is decls["g"].typ
    assert decls["g"].sort == Sort.STAR
    infer = TypeChecker.infer
    assert _calls(lambda: load(two), only=infer) \
        == _calls(lambda: load(one), only=infer) > 0


# a : o where p is expected, which the rule o -> p alone converts
MEMO_FILE = ["symbol o : * .", "symbol p : * .", "symbol q : * .",
             "symbol a : o .", "symbol F : p -> * .", "rule o -> p .",
             "symbol T1 : F(a) .", "rule o -> q .", "symbol T2 : F(a) ."]


def test_a_kind_is_checked_again_after_a_rule():
    # o -> q makes o -> p one of two reducts, which fuel 1 cannot search
    with pytest.raises(CacError) as e:
        load("\n".join(MEMO_FILE), fuel=1)
    assert (e.value.code, e.value.message) == (
        "fuel-exhausted", "fuel exhausted during joinability search")
    for left_out in ("rule o -> q .", "symbol T2 : F(a) ."):
        decls = load("\n".join(line for line in MEMO_FILE
                               if line != left_out), fuel=1).signature.decls
        assert decls["T1"].sort == Sort.STAR


def test_a_kind_is_checked_again_under_other_rules_or_fuel():
    typ = Symb("F", (Symb("a"),))
    to_p = RuleSet([RewriteRule("r1", Symb("o"), Symb("p"))])
    to_q = RuleSet([RewriteRule("r2", Symb("o"), Symb("q"))])
    outcomes = []
    for rules, fuel in ((to_p, 1), (to_q, 1), (to_p, 0)):
        sig = Signature()
        for name in "opq":
            sig.declare(name, 0, STAR)
        sig.declare("a", 0, Symb("o"))
        sig.declare("F", 1, arrow(Symb("p"), STAR))
        sig.declare("T1", 0, typ, to_p, fuel=1)
        try:
            outcomes.append(sig.declare("T2", 0, typ, rules, fuel=fuel).sort)
        except CacError as e:
            outcomes.append(e.code)
    assert outcomes == [Sort.STAR, "type-mismatch", "fuel-exhausted"]


def test_inst_is_empty_unless_the_telescope_is_dependent(natf):
    sig = load("symbol o : * .\nsymbol a : o .\nsymbol f : o -> o -> o .\n"
               "symbol g : (A : *) -> A -> o .\n").signature
    a = Symb("a")
    f, g = sig.decls["f"], sig.decls["g"]
    assert not f.dependent and f.inst((a, a)) == {}
    # A occurs in the second binder's type only
    assert g.dependent
    assert g.inst((Symb("o"), a)) == {g.binders[0][0]: Symb("o"),
                                      g.binders[1][0]: a}
    welim = natf.signature.decls["WElim_nat"]
    t = _parse_expr(natf, "WElim_nat(nat, zero, fun (x : nat) => "
                          "fun (y : nat) => succ(y), succ(zero))")
    assert welim.dependent
    assert welim.inst(t.args) == {v: u for (v, _), u in zip(welim.binders,
                                                            t.args)}
    tc = TypeChecker(natf.signature, natf.rules)
    assert tc.infer(Environment(), t)[0] == Symb("nat")
