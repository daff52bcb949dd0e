"""Polarity of occurrences, inductive-structure conditions, predicate
classification."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import cac

from cac import (Abs, App, BVar, PredicateClass, Prod, STAR, Signature,
                 SortT, Symb, Term, Var, Variable, arrow, check_admissible,
                 check_inductive_structure, free_vars, is_algebraic, load,
                 pi, predicate_classes)
from cac import positivity
from cac.positivity import is_predicate_term, signed_occurrences
from cac.terms import Sort, occurrences, symbols_of
from tests.conftest import _unless_recursion_error, corpus_source


def test_polarity_product_flips_domain():
    sig = Signature()
    sig.declare("A", 0, STAR)
    sig.declare("B", 0, STAR)
    x = Variable.fresh("x", Sort.STAR)
    t = pi(x, Symb("A", ()), Symb("B", ()))
    # the codomain occurs positively, the domain negatively
    assert _signs(signed_occurrences(t, sig)) == {(): 1, (2,): 1, (1,): -1}


def test_polarity_variable_is_positive_root():
    sig = Signature()
    a = Variable.fresh("A", Sort.BOX)
    assert _signs(signed_occurrences(Var(a), sig)) == {(): 1}


def test_polarity_double_flip():
    sig = Signature()
    sig.declare("A", 0, STAR)
    x = Variable.fresh("x", Sort.STAR)
    a = Symb("A", ())
    t = pi(x, pi(x, a, a), a)  # ((A)A)A
    signs = _signs(signed_occurrences(t, sig))
    # the inner domain flips back to positive
    assert signs[(1, 1)] == 1
    assert signs[(1,)] == signs[(1, 2)] == -1


def test_polarity_no_recursion_without_inductive_positions():
    sig = Signature()
    sig.declare("C", 1, arrow(STAR, STAR))  # Ind(C) = empty
    a = Variable.fresh("A", Sort.BOX)
    assert _signs(signed_occurrences(Symb("C", (Var(a),)), sig)) == {(): 1}


def test_polarity_recurses_into_inductive_positions(app):
    sig = app.signature  # Ind(list) = {1}
    a = Variable.fresh("A", Sort.BOX)
    signs = _signs(signed_occurrences(Symb("list", (Var(a),)), sig))
    assert signs[()] == signs[(1,)] == 1


def _pred_sig():
    """A : *, B : *, o : A, f : A -> A, and L : * -> *, P : * -> * -> *
    with Ind(L) = {1}, Ind(P) = {2, 3} (3 is beyond P's arity)."""
    sig = Signature()
    sig.declare("A", 0, STAR)
    sig.declare("B", 0, STAR)
    sig.declare("o", 0, Symb("A", ()))
    sig.declare("f", 1, arrow(Symb("A", ()), Symb("A", ())))
    sig.declare("L", 1, arrow(STAR, STAR))
    sig.declare("P", 2, arrow(STAR, arrow(STAR, STAR)))
    sig.structure.ind["L"] = frozenset({1})
    sig.structure.ind["P"] = frozenset({2, 3})
    return sig


def _signs(walk):
    """The sign of each position of a signed walk that has one."""
    return {p: s for p, _, s in walk if s}


def test_polarity_object_argument_takes_the_application_sign():
    sig = _pred_sig()
    f = Variable.fresh("F", Sort.BOX)
    y = Variable.fresh("y", Sort.STAR)
    a = Symb("A", ())
    # (A -> F f(y)) : the object argument f(y) sits in a domain
    t = arrow(App(Var(f), Symb("f", (Var(y),))), a)
    assert _signs(signed_occurrences(t, sig)) == {
        (): 1, (2,): 1, (1,): -1, (1, 1): -1, (1, 2): -1, (1, 2, 1): -1}
    # a variable of sort * is an object argument too
    assert _signs(signed_occurrences(App(Var(f), Var(y)), sig)) \
        == {(): 1, (1,): 1, (2,): 1}


@pytest.mark.parametrize("arg", [
    "symbol", "variable", "abstraction", "application", "product", "sort"])
def test_polarity_predicate_argument_has_no_sign(arg):
    sig = _pred_sig()
    f = Variable.fresh("F", Sort.BOX)
    g = Variable.fresh("G", Sort.BOX)
    y = Variable.fresh("y", Sort.STAR)
    a = Symb("A", ())
    u = {"symbol": Symb("L", (a,)),
         "variable": Var(g),
         "abstraction": Abs(a, Symb("B", ())),
         "application": App(Abs(a, Var(g)), Var(y)),
         "product": arrow(a, a),
         "sort": STAR}[arg]
    assert _signs(signed_occurrences(App(Var(f), u), sig)) \
        == {(): 1, (1,): 1}


def test_polarity_object_abstraction_is_an_object_argument():
    sig = _pred_sig()
    f = Variable.fresh("F", Sort.BOX)
    # fun (x : A) => x is no predicate: its body is a bound variable
    t = App(Var(f), Abs(Symb("A", ()), BVar(0)))
    assert _signs(signed_occurrences(t, sig)) \
        == {(): 1, (1,): 1, (2,): 1, (2, 1): 1, (2, 2): 1}


def test_polarity_abstraction_domain_under_a_product_domain():
    sig = _pred_sig()
    t = Prod(Abs(Symb("A", ()), BVar(0)), Symb("B", ()))
    assert _signs(signed_occurrences(t, sig)) == {
        (): 1, (2,): 1, (1,): -1, (1, 1): -1, (1, 2): -1}


def test_polarity_symbol_outside_the_free_set_passes_no_sign():
    sig = _pred_sig()
    a = Variable.fresh("A", Sort.BOX)
    t = Symb("L", (Var(a),))
    assert _signs(signed_occurrences(t, sig)) == {(): 1, (1,): 1}
    assert _signs(signed_occurrences(t, sig, frozenset())) == {(): 1}


def test_polarity_inductive_position_beyond_the_arity_has_no_sign():
    sig = _pred_sig()
    x = Variable.fresh("X", Sort.BOX)
    a = Symb("A", ())
    t = Symb("P", (arrow(Var(x), a), arrow(Var(x), a)))
    # argument 1 is not inductive; 2 is; Ind(P) names a 3 that P lacks
    assert _signs(signed_occurrences(t, sig)) \
        == {(): 1, (2,): 1, (2, 1): -1, (2, 2): 1}


def _prefixed(i, ps):
    return {(i,) + p for p in ps}


def _reference_polarity(u, sig, free_set):
    """The recursive definition signed_occurrences replaced: (same-sign
    positions, flipped-sign positions) of u."""
    if isinstance(u, (SortT, Var, BVar)):
        return {()}, set()
    if isinstance(u, Symb):
        pos, neg = {()}, set()
        if u.name in free_set:
            for i in sig.structure.ind_of(u.name):
                if 1 <= i <= len(u.args):
                    p, n = _reference_polarity(u.args[i - 1], sig, free_set)
                    pos |= _prefixed(i, p)
                    neg |= _prefixed(i, n)
        return pos, neg
    if isinstance(u, Prod):
        dp, dn = _reference_polarity(u.domain, sig, free_set)
        cp, cn = _reference_polarity(u.codomain, sig, free_set)
        return ({()} | _prefixed(1, dn) | _prefixed(2, cp),
                _prefixed(1, dp) | _prefixed(2, cn))
    if isinstance(u, Abs):
        bp, bn = _reference_polarity(u.body, sig, free_set)
        return ({()} | _prefixed(1, {p for p, _ in occurrences(u.domain)})
                | _prefixed(2, bp), _prefixed(2, bn))
    if isinstance(u, App):
        hp, hn = _reference_polarity(u.head, sig, free_set)
        pos = {()} | _prefixed(1, hp)
        if not is_predicate_term(u.arg, sig):
            pos |= _prefixed(2, {p for p, _ in occurrences(u.arg)})
        return pos, _prefixed(1, hn)
    return {()}, set()


def _random_term(rng, xs, depth):
    if depth == 0 or rng.random() < 0.15:
        return rng.choice([STAR, Symb("A", ()), Symb("o", ()), BVar(0)]
                          + [Var(x) for x in xs])
    c = rng.randrange(8)
    sub = [_random_term(rng, xs, depth - 1) for _ in range(2)]
    if c == 0:
        return Symb("L", sub[:1])
    if c == 1:
        return Symb("P", tuple(sub))
    if c == 2:
        return Symb("f", sub[:1])
    if c in (3, 4):
        return Prod(*sub)
    if c == 5:
        return Abs(*sub)
    return App(*sub)


def test_polarity_matches_the_recursive_definition():
    rng = random.Random(2024)
    sig = _pred_sig()
    xs = [Variable.fresh("X", Sort.BOX), Variable.fresh("y", Sort.STAR)]
    frees = [None, frozenset({"L"}), frozenset({"L", "P"}), frozenset()]
    seen = set()
    for _ in range(400):
        t = _random_term(rng, xs, rng.randrange(1, 7))
        free_set = rng.choice(frees)
        pos, neg = _reference_polarity(
            t, sig, free_set if free_set is not None
            else frozenset({"A", "B", "L", "P"}))
        assert not pos & neg, t
        assert _signs(signed_occurrences(t, sig, free_set)) \
            == dict.fromkeys(pos, 1) | dict.fromkeys(neg, -1), t
        seen.update(type(u).__name__ for _, u in occurrences(t))
    assert seen >= {"App", "Abs", "Prod", "Symb", "Var", "BVar", "SortT"}


def test_term_walks_have_no_depth_limit():
    x = Variable.fresh("x", Sort.STAR)
    t = Var(x)
    for _ in range(5000):
        t = Symb("s", (t,))
    assert _unless_recursion_error(free_vars, t) == {x}
    assert _unless_recursion_error(is_algebraic, t) is True
    assert not is_algebraic(Symb("s", (t, BVar(0))))
    sig = Signature()
    sig.declare("A", 0, STAR)
    a = Symb("A", ())
    chain = a
    for _ in range(1500):
        chain = arrow(a, chain)
    walk = _unless_recursion_error(list, signed_occurrences(chain, sig))
    assert walk != "RecursionError"
    assert _signs(walk) == (dict.fromkeys(((2,) * k for k in range(1501)), 1)
                            | dict.fromkeys(((2,) * k + (1,)
                                             for k in range(1500)), -1))


def test_inductive_structure_walks_each_argument_type_once(app,
                                                          monkeypatch):
    sig, rules = app.signature, app.rules
    walks = []
    walk = positivity.signed_occurrences

    def counted(t, *args):
        walks.append(t)
        return walk(t, *args)

    def forbidden(*args):
        raise AssertionError("walks the argument type again")

    monkeypatch.setattr(positivity, "signed_occurrences", counted)
    for module, name in [(positivity, "occurrences"),
                         (cac.terms, "occurrences")]:
        monkeypatch.setattr(module, name, forbidden)
    assert check_inductive_structure(sig, rules) == []
    expected = [sig.decls[con].binders[j - 1][1]
                for c in sig.free_predicate_symbols(rules)
                for con in sig.constructors_of(c)
                for j in sorted(sig.structure.acc_of(con))
                if 1 <= j <= sig.decls[con].arity]
    assert walks and walks == expected


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


def test_i1_i2_i5_violations_in_one_constructor():
    lf = load("symbol o : * . symbol a : o . symbol F : o -> * . "
              "rule F(x) -> o . symbol C : * -> o -> * . "
              "symbol c : (A : *) -> (y : o) -> A -> F(a) -> C(A, y) . "
              "pragma ind(C) = {1, 2, 5} . pragma acc(c) = {3, 4, 7} .\n")
    got = [str(v) for v in
           check_inductive_structure(lf.signature, lf.rules)]
    assert sorted(got) == [
        "I1 violated for C at constructor c: inductive position 5 "
        "exceeds the output arity",
        "I1 violated for C at constructor c: output argument 2 is y, not "
        "a predicate variable",
        "I2 violated for C at constructor c, argument 7: accessible index "
        "exceeds the arity",
        "I5 violated for C at constructor c, argument 4: defined "
        "predicate F occurs at () in F(a)"]


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
    # each of a and b is built from the other and sits above it, so a
    # class that waited for the other's would wait for ever; either
    # declaration order gives both the same class and the same report
    # (the A2 violations follow declaration order, so they are sorted)
    swapped = CYCLIC_FREE_PREDICATES.replace(
        "symbol a : * .\nsymbol b : * .", "symbol b : * .\nsymbol a : * .")
    assert swapped != CYCLIC_FREE_PREDICATES
    texts = []
    for source in (CYCLIC_FREE_PREDICATES, swapped):
        lf = load(source)
        classes = predicate_classes(lf.signature, lf.rules)
        assert classes == {"a": PredicateClass.PRIMITIVE,
                           "b": PredicateClass.PRIMITIVE}
        report = check_admissible(lf.signature, lf.rules)
        texts.append(report._replace(
            a2_violations=sorted(report.a2_violations)).to_text())
    assert texts[0] == texts[1]
    assert "f is non-algebraic: rule rule1 admits no recursive-path-order " \
        "orientation" in texts[0]


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
