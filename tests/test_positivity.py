"""Polarity of occurrences, inductive-structure conditions, predicate
classification."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import cac

from cac import (PredicateClass, Prod, STAR, Signature, Symb, Term, Var,
                 Variable, arrow, check_inductive_structure, load, pi,
                 polarity, predicate_classes)
from cac.terms import Sort, symbols_of
from tests.conftest import corpus_source


def test_polarity_product_flips_domain():
    sig = Signature()
    sig.declare("A", 0, STAR)
    sig.declare("B", 0, STAR)
    x = Variable.fresh("x", Sort.STAR)
    t = pi(x, Symb("A", ()), Symb("B", ()))
    rep = polarity(t, sig)
    # the codomain occurs positively, the domain negatively
    assert () in rep.positive and (2,) in rep.positive
    assert (1,) in rep.negative
    assert rep.positive.isdisjoint(rep.negative)


def test_polarity_variable_is_positive_root():
    sig = Signature()
    a = Variable.fresh("A", Sort.BOX)
    rep = polarity(Var(a), sig)
    assert () in rep.positive
    assert rep.negative == frozenset()


def test_polarity_double_flip():
    sig = Signature()
    sig.declare("A", 0, STAR)
    x = Variable.fresh("x", Sort.STAR)
    a = Symb("A", ())
    t = pi(x, pi(x, a, a), a)  # ((A)A)A
    rep = polarity(t, sig)
    # the inner domain flips back to positive
    assert (1, 1) in rep.positive
    assert (1,) in rep.negative and (1, 2) in rep.negative


def test_polarity_no_recursion_without_inductive_positions():
    sig = Signature()
    sig.declare("C", 1, arrow(STAR, STAR))  # Ind(C) = empty
    a = Variable.fresh("A", Sort.BOX)
    rep = polarity(Symb("C", (Var(a),)), sig)
    assert rep.positive == frozenset({()})
    assert rep.negative == frozenset()


def test_polarity_recurses_into_inductive_positions(app):
    sig = app.signature  # Ind(list) = {1}
    a = Variable.fresh("A", Sort.BOX)
    rep = polarity(Symb("list", (Var(a),)), sig)
    assert () in rep.positive and (1,) in rep.positive


def test_inductive_structure_accepts_list(app):
    assert check_inductive_structure(app.signature, app.rules) == []


def test_i6_violation_for_heterogeneous_list():
    lf = load(corpus_source("listh"))
    violations = check_inductive_structure(lf.signature, lf.rules)
    assert len(violations) == 1
    v = violations[0]
    assert v.condition == "I6"
    assert v.predicate == "listh"
    assert v.constructor == "consh"
    assert v.arg_index == 2


def test_negative_recursion_violates_i3():
    # c : (x : (C)A) C  recurses negatively through its argument: the
    # predicate (equivalent to itself) occurs in a domain position
    sig = Signature()
    sig.declare("A", 0, STAR)
    sig.declare("C", 0, STAR)
    x = Variable.fresh("x", Sort.STAR)
    sig.declare("c", 1, pi(x, arrow(Symb("C", ()), Symb("A", ())),
                           Symb("C", ())))
    sig.structure.acc["c"] = frozenset({1})
    violations = check_inductive_structure(sig, [])
    assert any(v.condition == "I3" and v.constructor == "c"
               and v.arg_index == 1 for v in violations)


def test_i2_violation_inductive_variable_negative():
    # list-like predicate whose constructor uses the inductive output
    # parameter A negatively: c : (A:*)(x:(A)A) C(A)
    sig = Signature()
    sig.declare("C", 1, arrow(STAR, STAR))
    sig.structure.ind["C"] = frozenset({1})
    a = Variable.fresh("A", Sort.BOX)
    x = Variable.fresh("x", Sort.STAR)
    sig.declare("c", 2, pi(a, STAR, pi(x, arrow(Var(a), Var(a)),
                                       Symb("C", (Var(a),)))))
    sig.structure.acc["c"] = frozenset({2})
    violations = check_inductive_structure(sig, [])
    assert any(v.condition == "I2" and v.constructor == "c"
               and v.arg_index == 2 for v in violations)


def test_classification_primitive(intf):
    assert predicate_classes(intf.signature, intf.rules)["int"] \
        == PredicateClass.PRIMITIVE


def test_classification_list_is_basic_not_primitive(app):
    # cons stores elements of a predicate-variable type, so list is not
    # primitive, but recursion is through list itself: basic
    cls = predicate_classes(app.signature, app.rules)["list"]
    assert cls == PredicateClass.BASIC


def test_classification_strictly_positive():
    # ord-style: a constructor argument (nat)ord is strictly positive
    # but not basic
    sig = Signature()
    sig.declare("nat", 0, STAR)
    sig.declare("ordt", 0, STAR)
    x = Variable.fresh("x", Sort.STAR)
    sig.declare("lim", 1, pi(x, arrow(Symb("nat", ()), Symb("ordt", ())),
                             Symb("ordt", ())))
    sig.structure.acc["lim"] = frozenset({1})
    cls = predicate_classes(sig, [])["ordt"]
    assert cls == PredicateClass.STRICTLY_POSITIVE



def test_primitive_needs_basic_predicates_below():
    # d's constructors store a box (primitive) and an ordt (strictly
    # positive, not basic), both below d: d is primitive until the ordt
    # argument becomes accessible
    sig = Signature()
    sig.declare("nat", 0, STAR)
    sig.declare("ordt", 0, STAR)
    sig.declare("box", 0, STAR)
    x = Variable.fresh("x", Sort.STAR)
    sig.declare("lim", 1, pi(x, arrow(Symb("nat", ()), Symb("ordt", ())),
                             Symb("ordt", ())))
    sig.structure.acc["lim"] = frozenset({1})
    sig.declare("d", 0, STAR)
    sig.declare("cb", 1, arrow(Symb("box", ()), Symb("d", ())))
    sig.declare("co", 1, arrow(Symb("ordt", ()), Symb("d", ())))
    sig.structure.acc["cb"] = frozenset({1})
    sig.precedence.add_gt("d", "ordt")
    sig.precedence.add_gt("d", "box")
    classes = predicate_classes(sig)
    assert classes["ordt"] is PredicateClass.STRICTLY_POSITIVE
    assert classes["d"] is PredicateClass.PRIMITIVE
    sig.structure.acc["co"] = frozenset({1})
    assert predicate_classes(sig)["d"] is PredicateClass.BASIC

CYCLIC_FREE_PREDICATES = """
symbol a : * .
symbol b : * .
symbol ca : b -> a .
symbol cb : a -> b .
pragma acc(ca) = {1} .
pragma acc(cb) = {1} .
pragma prec a > b .
pragma prec b > a .
symbol f : a -> a .
rule f(x) -> x .
"""


def test_classification_terminates_under_cyclic_precedence():
    # each of a and b is built from the other and sits above it, so
    # deciding one asks for the other while the first is still open
    lf = load(CYCLIC_FREE_PREDICATES)
    classes = predicate_classes(lf.signature, lf.rules)
    assert sorted(classes) == ["a", "b"]
    for name in ("a", "b"):
        assert predicate_classes(lf.signature, lf.rules)[name] \
            is classes[name]


# ---------------------------------------------------------------------------
# the classifier against a per-call reference


def reference_classify(sig, cname, rules=()):
    """The classifier as one recursive function per predicate: it
    rebuilds the free predicates and the equivalence class on every
    call and asks again for every basic predicate below."""
    prec = sig.precedence
    frees = sig.free_predicate_symbols(rules)
    cls = {d for d in frees if prec.eq(d, cname)}

    def eq_occurs(u, dname):
        return any(prec.eq(e, dname) for e in symbols_of(u) if e in frees)

    primitive = basic = strictly = True
    for dname in sorted(cls):
        for con in sig.constructors_of(dname):
            decl = sig.decls[con]
            for j in sorted(sig.structure.acc_of(con)):
                if not (1 <= j <= decl.arity):
                    continue
                uj = decl.binders[j - 1][1]
                if isinstance(uj, Symb) and uj.name in frees:
                    e = uj.name
                    if not (prec.eq(e, dname)
                            or prec.gt(dname, e) and reference_classify(
                                sig, e, rules) in (PredicateClass.PRIMITIVE,
                                                   PredicateClass.BASIC)):
                        primitive = False
                else:
                    primitive = False
                if eq_occurs(uj, dname):
                    if not (isinstance(uj, Symb) and uj.name in frees
                            and prec.eq(uj.name, dname)):
                        basic = False
                    elif any(eq_occurs(a, dname) for a in uj.args):
                        basic = False
                    core = uj
                    domains = []
                    while isinstance(core, Prod):
                        domains.append(core.domain)
                        core = core.codomain
                    if not (isinstance(core, Symb) and core.name in frees
                            and prec.eq(core.name, dname)
                            and not any(eq_occurs(v, dname) for v in domains)
                            and not any(eq_occurs(a, dname)
                                        for a in core.args)):
                        strictly = False
    if primitive and basic:
        return PredicateClass.PRIMITIVE
    if basic:
        return PredicateClass.BASIC
    if strictly:
        return PredicateClass.STRICTLY_POSITIVE
    return PredicateClass.GENERAL


def random_signature(rng):
    """1-4 free predicates, nullary ones and some of type * -> *, plus
    a base type B; constructors take arguments built from them by
    arrows and application (so occurrences nest), with random
    accessible positions and an acyclic precedence: predicates of one
    rank are equivalent, and a higher rank is sometimes declared
    greater."""
    sig = Signature()
    preds = [(f"P{i}", rng.random() < 0.3) for i in range(rng.randint(1, 4))]
    for name, unary in preds:
        sig.declare(name, int(unary), arrow(STAR, STAR) if unary else STAR)
    sig.declare("B", 0, STAR)  # a base type outside the precedence
    nullary = ["B"] + [n for n, unary in preds if not unary]

    def atom(depth) -> Term:
        name, unary = rng.choice(preds)
        if not unary:
            return Symb(name, ())
        arg = atom(depth + 1) if depth < 2 and rng.random() < 0.5 \
            else Symb(rng.choice(nullary), ())
        return Symb(name, (arg,))

    def typ(depth=0) -> Term:
        if depth < 2 and rng.random() < 0.3:
            dom = Symb("B", ()) if rng.random() < 0.5 else typ(depth + 1)
            return arrow(dom, typ(depth + 1))
        return atom(depth)

    k = 0
    for name, unary in preds:
        for _ in range(rng.randint(0, 2)):
            args = [typ() for _ in range(rng.randint(0, 3))]
            out = Symb(name, (Symb(rng.choice(nullary), ()),) if unary
                       else ())
            t = out
            for u in reversed(args):
                t = arrow(u, t)
            con = f"c{k}"
            k += 1
            sig.declare(con, len(args), t)
            sig.structure.acc[con] = frozenset(
                j for j in range(1, len(args) + 2) if rng.random() < 0.7)
    rank = {name: rng.randint(0, 2) for name, _ in preds}
    names = sorted(rank)
    for a in names:
        for b in names:
            if a < b and rank[a] == rank[b]:
                sig.precedence.add_eq(a, b)
            elif rank[a] > rank[b] and rng.random() < 0.7:
                sig.precedence.add_gt(a, b)
    assert sig.precedence.find_cycle() is None
    return sig


def test_predicate_classes_match_reference():
    rng = random.Random(20061)
    seen = set()
    for _ in range(300):
        sig = random_signature(rng)
        classes = predicate_classes(sig)
        expected = {d: reference_classify(sig, d)
                    for d in sig.free_predicate_symbols(())}
        assert classes == expected
        seen |= set(classes.values())
    assert seen == set(PredicateClass)


def test_classification_of_a_long_descending_chain():
    # the predicates are declared top-first, so deciding the top one
    # asks for every class below it before any of them is decided
    n = 1200
    sig = Signature()
    for i in reversed(range(n)):
        sig.declare(f"p{i}", 0, STAR)
    sig.declare("c0", 0, Symb("p0", ()))
    for i in range(1, n):
        sig.declare(f"c{i}", 1, arrow(Symb(f"p{i - 1}", ()),
                                      Symb(f"p{i}", ())))
        sig.structure.acc[f"c{i}"] = frozenset({1})
        sig.precedence.add_gt(f"p{i}", f"p{i - 1}")
    classes = predicate_classes(sig)
    assert sig.free_predicate_symbols(())[0] == f"p{n - 1}"
    assert len(classes) == n
    assert set(classes.values()) == {PredicateClass.PRIMITIVE}


def test_i5_violations_follow_declaration_order_under_any_hash_seed(tmp_path):
    # both defined predicates occur in the one accessible argument; the
    # report must not depend on the order of a set of strings
    f = tmp_path / "i5.cac"
    f.write_text(
        "symbol o : * . symbol a : o . symbol F : o -> * . "
        "symbol G : o -> * . rule F(x) -> o . rule G(x) -> o . "
        "symbol D : * . symbol c : (F(a) -> G(a)) -> D . "
        "pragma acc(c) = {1} .\n", encoding="utf-8")
    src = str(pathlib.Path(cac.__file__).parents[1])
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "cac.cli", "admissibility", str(f)],
            env=env, capture_output=True, check=False)
        assert run.returncode == 1
        outputs.add(run.stdout)
    (out,) = outputs
    i5 = [line for line in out.decode().splitlines()
          if line.startswith("  I5 ")]
    assert [line.split("defined predicate ")[1][0] for line in i5] \
        == ["F", "G"]
