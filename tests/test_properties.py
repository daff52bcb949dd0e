"""Randomized, seed-fixed property suites (500 cases each):
substitution composition, one-step subject reduction, polarity
disjointness, match/substitute round trips, normalization idempotence,
agreement of `step` with the first one-step reduct under binders, and
agreement of `str` with the printer."""

import random

import pytest

from cac import (Environment, STAR, Symb, TypeChecker, Var, Variable,
                 match_first_order, normalize, pp, step, subst_apply)
from cac.positivity import signed_occurrences
from cac.printer import _Printer
from cac.terms import (Abs, App, Prod, arrow, free_vars, lam, map_children,
                       occurrences, pi, Sort)
from tests.conftest import reference_reduce_one

CASES = 500


def _int_vars(rng, n=4):
    return [Variable.fresh(f"v{i}", Sort.STAR) for i in range(n)]


def random_int_term(rng, vars_, depth):
    """A term of type int over the integer signature."""
    if depth == 0 or rng.random() < 0.25:
        if vars_ and rng.random() < 0.5:
            return Var(rng.choice(vars_))
        return Symb("0", ())
    choice = rng.randrange(4)
    if choice == 0:
        return Symb("s", (random_int_term(rng, vars_, depth - 1),))
    if choice == 1:
        return Symb("p", (random_int_term(rng, vars_, depth - 1),))
    name = "plus" if choice == 2 else "times"
    return Symb(name, (random_int_term(rng, vars_, depth - 1),
                       random_int_term(rng, vars_, depth - 1)))


def compose_subst(theta, sigma):
    """theta;sigma — apply theta first, then sigma."""
    out = {v: subst_apply(u, sigma) for v, u in theta.items()}
    for v, u in sigma.items():
        out.setdefault(v, u)
    return out


def test_substitution_composition(intf):
    rng = random.Random(20260824)
    for _ in range(CASES):
        vars_ = _int_vars(rng)
        t = random_int_term(rng, vars_, rng.randrange(1, 5))
        theta = {v: random_int_term(rng, vars_, 2)
                 for v in vars_ if rng.random() < 0.7}
        sigma = {v: random_int_term(rng, [], 2)
                 for v in vars_ if rng.random() < 0.7}
        lhs = subst_apply(subst_apply(t, theta), sigma)
        rhs = subst_apply(t, compose_subst(theta, sigma))
        assert lhs == rhs, pp(t)


def test_substitution_composition_under_binders(intf):
    rng = random.Random(7)
    intt = Symb("int", ())
    for _ in range(CASES):
        vars_ = _int_vars(rng, 3)
        x = Variable.fresh("x", Sort.STAR)
        body = random_int_term(rng, vars_ + [x], rng.randrange(1, 4))
        t = lam(x, intt, body)
        theta = {v: random_int_term(rng, vars_, 1)
                 for v in vars_ if rng.random() < 0.7}
        sigma = {v: random_int_term(rng, [], 1)
                 for v in vars_ if rng.random() < 0.7}
        assert subst_apply(subst_apply(t, theta), sigma) \
            == subst_apply(t, compose_subst(theta, sigma))


def test_one_step_subject_reduction(intf):
    rng = random.Random(99)
    tc = TypeChecker(intf.signature, intf.rules, confluent=True)
    intt = Symb("int", ())
    checked = 0
    for _ in range(CASES):
        t = random_int_term(rng, [], rng.randrange(1, 6))
        tc.check(Environment(), t, intt)
        for u in reference_reduce_one(t, intf.rules):
            tc.check(Environment(), u, intt)
            checked += 1
    assert checked >= CASES // 2  # plenty of reducible cases


def random_type(rng, sig, preds, depth):
    """A random predicate-level term of bounded depth."""
    if depth == 0 or rng.random() < 0.3:
        if preds and rng.random() < 0.5:
            return Var(rng.choice(preds))
        return STAR
    c = rng.randrange(3)
    if c == 0:
        x = Variable.fresh("x", Sort.STAR)
        return pi(x, random_type(rng, sig, preds, depth - 1),
                  random_type(rng, sig, preds, depth - 1))
    if c == 1:
        return Symb("list", (random_type(rng, sig, preds, depth - 1),))
    x = Variable.fresh("A", Sort.BOX)
    return lam(x, STAR, random_type(rng, sig, preds + [x], depth - 1))


def test_polarity_disjointness(app):
    rng = random.Random(4242)
    sig = app.signature
    for _ in range(CASES):
        preds = [Variable.fresh("P", Sort.BOX)]
        t = random_type(rng, sig, preds, rng.randrange(1, 7))
        walk = list(signed_occurrences(t, sig))
        # one sign per position, and the root's is positive
        assert len({p for p, _, _ in walk}) == len(walk)
        assert walk[0][0] == () and walk[0][2] == 1


def test_match_then_substitute_round_trip(intf):
    rng = random.Random(31337)
    for _ in range(CASES):
        rule = rng.choice(intf.rules)
        fv = sorted(free_vars(rule.lhs), key=lambda v: v.id)
        sigma = {v: random_int_term(rng, [], rng.randrange(0, 3))
                 for v in fv}
        instance = subst_apply(rule.lhs, sigma)
        m = match_first_order(rule.lhs, instance)
        assert m is not None
        assert m == sigma
        # and matching reproduces the instance
        assert subst_apply(rule.lhs, m) == instance


def test_normalize_idempotent(intf):
    rng = random.Random(2718)
    for _ in range(CASES):
        t = random_int_term(rng, [], rng.randrange(1, 6))
        nf = normalize(t, intf.rules)
        assert step(nf, intf.rules) is None
        assert normalize(nf, intf.rules) == nf


def random_binder_term(rng, vars_, depth):
    """An int term that may also hold abstractions, products and
    beta-redexes; the binder domains are int terms too, so they can
    reduce."""
    if depth == 0 or rng.random() < 0.2:
        return random_int_term(rng, vars_, 0)
    choice = rng.randrange(7)
    if choice < 4:
        name = ("s", "p", "plus", "times")[choice]
        arity = 1 if choice < 2 else 2
        return Symb(name, tuple(random_binder_term(rng, vars_, depth - 1)
                                for _ in range(arity)))
    x = Variable.fresh("x", Sort.STAR)
    dom = random_int_term(rng, vars_, rng.randrange(0, 3))
    body = random_binder_term(rng, vars_ + [x], depth - 1)
    if choice == 4:
        return lam(x, dom, body)
    if choice == 5:
        return pi(x, dom, body)
    return App(lam(x, dom, body), random_binder_term(rng, vars_, depth - 1))


def test_step_is_first_of_reduce_one(intf):
    rng = random.Random(1610)
    under_binder = 0
    for _ in range(CASES):
        t = random_binder_term(rng, _int_vars(rng, 2), rng.randrange(1, 6))
        reducts = reference_reduce_one(t, intf.rules)
        s = step(t, intf.rules)
        if not reducts:
            assert s is None, pp(t)
            continue
        assert s is not None and s == reducts[0], pp(t)
        under_binder += not isinstance(t, (Symb, App))
    assert under_binder >= CASES // 20  # binders with a redex inside


def _unshared(t):
    """A copy of t in which no node object occurs twice."""
    return map_children(t, _unshared)


def random_shared_term(rng, size):
    """A term built bottom-up from a pool of its own subterms, so one
    object recurs at many places, under binders too.  Binder hints and
    free variable names are all drawn from x, y and x', so the printer
    renames binders against free variables and against each other."""
    names = ("x", "y", "x'")
    pool = [Var(Variable.fresh(n, Sort.STAR)) for n in names[:2]]
    pool.append(Symb("0", ()))
    for _ in range(size):
        a, b = rng.choice(pool), rng.choice(pool)
        choice = rng.randrange(6)
        if choice == 0:
            t = Symb("plus", (a, b))
        elif choice == 1:
            t = App(a, b)
        elif choice == 2:  # a occurs twice more
            t = Symb("plus", (a, Symb("s", (a,))))
        else:
            v = Variable.fresh(rng.choice(names), Sort.STAR)
            used = Symb("s", (Var(v),))
            body = rng.choice((Var(v), used, Symb("plus", (used, used)),
                               Symb("plus", (a, Var(v))), Symb("plus", (a, a)),
                               a))
            t = (lam if choice == 3 else pi)(v, b, body)
        pool.append(t)
    return Symb("plus", (pool[-1], rng.choice(pool)))


def test_shared_terms_print_as_their_unshared_copies(corpus):
    forms = [normalize(d.terms[0], lf.rules)
             for lf in corpus.values() for d in lf.directives
             if d.kind == "normalize"]
    assert len(forms) == 3
    rng = random.Random(2506)
    forms += [random_shared_term(rng, rng.randrange(2, 14))
              for _ in range(CASES)]
    kept = 0
    for t in forms:
        copy = _unshared(t)
        assert copy == t
        assert pp(t) == pp(copy)
        # every id the printer remembers is the id of a subterm it holds,
        # so no id is reused by a freed temporary while it prints
        printer = _Printer(t)
        printer._pp(t, None, top=True)
        # the tables are built at the first binder-free subterm below
        # the root, so a term with none has neither
        seen, texts = printer.seen or {}, printer.texts or {}
        assert all(id(u) == k for k, u in seen.items())
        assert texts.keys() <= seen.keys()
        assert id(t) not in seen
        kept += len(texts)
    assert kept > CASES // 2  # texts were kept for reuse


def test_str_is_pp():
    # `str` of a term is the printer's text, also for a symbol applied to
    # an application or a binder
    rng = random.Random(3207)
    arg_classes = set()
    for i in range(CASES):
        if i % 2:
            t = random_shared_term(rng, rng.randrange(2, 10))
        else:
            t = random_binder_term(rng, _int_vars(rng, 2), rng.randrange(1, 6))
        assert str(t) == pp(t)
        arg_classes.update(a.__class__ for _, u in occurrences(t)
                           if isinstance(u, Symb) for a in u.args)
    assert {App, Abs, Prod} <= arg_classes
