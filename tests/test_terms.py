"""Term substrate: binding, substitution, positions, sort classes."""

import random
from collections import Counter

import pytest

from cac import (Abs, App, BOX, BVar, Environment, Prod, STAR, Symb, Var,
                 Variable, arrow, free_vars, is_algebraic, lam, pi, pp,
                 replace_at, subst_apply)
from cac.terms import (InvalidPosition, Sort, SortT, Term, _children,
                       is_kind, occurrences, sort_class_of_type, symbols_of,
                       var_counts)
from tests.test_properties import _int_vars, random_binder_term


def v(name, sort=Sort.STAR):
    return Variable.fresh(name, sort)


def subterm_at(t, p):
    """The raw subterm of t at p, read child by child: the reference the
    positions of `occurrences` are checked against."""
    for i in p:
        t = _children(t)[i - 1]
    return t


def test_alpha_eq_ignores_names():
    x, y = v("x"), v("y")
    t1 = lam(x, STAR, Var(x))
    t2 = lam(y, STAR, Var(y))
    assert t1 == t2  # names are excluded from comparison


def test_alpha_eq_distinguishes_structure():
    x = v("x")
    assert lam(x, STAR, Var(x)) != lam(x, STAR, STAR)
    assert STAR != BOX


def test_bound_variables_shift():
    x, y = v("x"), v("y")
    inner = lam(y, STAR, App(Var(x), Var(y)))
    outer = lam(x, STAR, inner)
    # x is bound at distance 1 inside the inner body
    assert outer == Abs(STAR, Abs(STAR, App(BVar(1), BVar(0))))


def test_subst_capture_avoiding():
    x, y, z = v("x"), v("y"), v("z")
    t = lam(y, STAR, App(Var(x), Var(y)))
    s = subst_apply(t, {x: Var(z)})
    assert s == lam(y, STAR, App(Var(z), Var(y)))
    # substituting a term mentioning the bound name does not capture
    s2 = subst_apply(t, {x: Var(y)})
    assert s2 == lam(x, STAR, App(Var(y), Var(x)))


def test_positions_and_subterms():
    t = Symb("f", (Symb("g", (Var(v("x")),)), STAR))
    subs = dict(occurrences(t))
    assert list(subs) == [(), (1,), (1, 1), (2,)]
    assert subs[(1, 1)] == Var(t.args[0].args[0].var)
    r = replace_at(t, (2,), BOX)
    assert dict(occurrences(r))[(2,)] == BOX
    for p in ((3,), (1, 2), (2, 1)):
        with pytest.raises(InvalidPosition):
            replace_at(t, p, BOX)


def test_occurrences_pair_positions_with_subterms():
    x = v("x")
    t = Symb("f", (lam(x, STAR, App(Var(x), Symb("c"))), Var(x)))
    assert all(s is subterm_at(t, p) for p, s in occurrences(t))
    assert [p for p, _ in occurrences(t)] == [
        (), (1,), (1, 1), (1, 2), (1, 2, 1), (1, 2, 2), (2,)]
    assert var_counts(Symb("f", (Var(x), Symb("g", (Var(x),))))) == {x: 2}


def test_symbol_and_variable_walks_keep_the_prefix_order():
    # symbols_of and var_counts walk without positions; their sets and
    # counters are filled in the order occurrences gives, so iteration
    # order and the first-occurrence order of variables stay put
    rng = random.Random(17)
    for _ in range(500):
        vars_ = _int_vars(rng)
        t = random_binder_term(rng, vars_, rng.randrange(1, 6))
        if rng.random() < 0.3:
            t = Symb("f", (t, Var(rng.choice(vars_)), t))
        subs = [s for _, s in occurrences(t)]
        names = frozenset(s.name for s in subs if isinstance(s, Symb))
        counts = Counter(s.var for s in subs if isinstance(s, Var))
        assert list(symbols_of(t)) == list(names)
        assert list(var_counts(t).items()) == list(counts.items())


def test_occurrence_walks_survive_deep_terms():
    # the walk keeps its own stack, so depth is not bounded by the
    # interpreter's recursion limit
    x = v("x")
    t = Var(x)
    for _ in range(3000):
        t = Symb("s", (t,))
    assert symbols_of(t) == {"s"}
    assert var_counts(t) == {x: 1}
    assert [p for p, u in occurrences(t) if u == Var(x)] == [(1,) * 3000]


def test_subst_apply_reaches_the_bottom_of_a_deep_term():
    # one interpreter frame per term level; walked level by level, so
    # the bottom is seen to be the image itself
    x, zero = v("x"), Symb("zero", ())
    t = Var(x)
    for _ in range(700):
        t = Symb("succ", (t,))
    u = subst_apply(t, {x: zero})
    for _ in range(700):
        assert u.name == "succ"
        u = u.args[0]
    assert u is zero


def test_str_is_the_printer_at_any_depth_it_reaches():
    # the printer takes one frame per level, so `str` reaches 900 levels
    t = Symb("zero", ())
    for _ in range(900):
        t = Symb("succ", (t,))
    assert str(t) == pp(t)
    assert str(t).startswith("succ(succ(")


def test_str_of_a_symbol_parenthesizes_an_application_or_binder():
    # a binder's name avoids the free names of the whole term
    x, y = v("x"), v("x")
    h_a = App(Symb("h"), Symb("a"))
    assert str(Symb("f", (h_a,))) == "f((h a))"
    assert str(Symb("f", (lam(y, STAR, App(Var(x), Var(y))), Var(x)))) \
        == "f((fun (x':★) => x x'), x)"


def test_alpha_eq_is_structural_equality_at_any_depth():
    rng = random.Random(20261020)
    vars_ = _int_vars(rng, 2)
    equal = 0
    for _ in range(2000):
        t = random_binder_term(rng, vars_, rng.randrange(0, 4))
        u = random_binder_term(rng, vars_, rng.randrange(0, 4))
        assert (t == u) == (u == t)
        if t == u:
            assert hash(t) == hash(u)
            equal += 1
    assert equal > 100  # equal but distinct objects occur too
    # two separately built 5000-deep terms, equal and unequal at the bottom
    x, y = v("x"), v("y")
    deep = []
    for bottom in (Var(x), Var(x), Var(y)):
        t = bottom
        for k in range(5000):
            t = Abs(STAR, t) if k % 2 else Symb("s", (t,))
        deep.append(t)
    assert deep[0] == deep[1] and deep[0] is not deep[1]
    assert deep[0] != deep[2]


def test_equality_has_no_depth_limit():
    # two distinct but equal 10^4-deep terms, and two that differ only at
    # the bottom, compared under the default recursion limit
    from cac.schema import AccPair

    def succs(bottom):
        t = bottom
        for _ in range(10 ** 4):
            t = Symb("succ", (t,))
        return t

    a, b = succs(Symb("zero", ())), succs(Symb("zero", ()))
    c = succs(Symb("one", ()))
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    assert AccPair(a, c) == AccPair(b, c) and AccPair(a, a) != AccPair(b, c)


def test_variable_hash_is_its_id():
    x = v("x")
    renamed = Variable(x.id, x.sort, "y")
    assert renamed == x and hash(renamed) == hash(x) == hash(x.id)
    assert Variable(x.id, Sort.BOX, "x") != x
    assert v("x") != x
    assert {Var(x): 1}[Var(renamed)] == 1


def _one_of_each():
    """A value of every term class, of Variable and of Environment."""
    x = v("x")
    return [x, STAR, Var(x), BVar(0), Symb("f", (Var(x),)),
            Abs(STAR, BVar(0), "y"), Prod(STAR, BVar(0), "y"),
            App(Var(x), STAR), Environment.of([(x, STAR)])]


def test_terms_variables_and_environments_are_read_only():
    samples = _one_of_each()
    assert set(Term.__subclasses__()) <= {type(t) for t in samples}
    for t in samples:
        for name in t.__slots__:
            before = getattr(t, name)
            with pytest.raises(AttributeError):
                setattr(t, name, None)
            with pytest.raises(AttributeError):
                delattr(t, name)
            assert getattr(t, name) is before
        with pytest.raises(AttributeError):
            t.extra = 1


def test_equality_and_hash_leave_out_hints_and_variable_names():
    x = v("x")
    renamed = Variable(x.id, x.sort, "other")
    for make in (lambda w, h: Abs(Var(w), BVar(0), h),
                 lambda w, h: Prod(Var(w), BVar(0), h)):
        a, b = make(x, "a"), make(renamed, "b")
        assert a == b and hash(a) == hash(b) and not a != b
    assert Abs(STAR, BVar(0)) != Prod(STAR, BVar(0))
    assert Var(x) != v("x") and STAR != BOX
    assert Environment() != object() and not Environment() == object()
    # each hash is that of the tuple of the compared fields, so sets of
    # terms iterate in the same order as with generated methods
    for t in _one_of_each()[1:]:
        fields = tuple(getattr(t, k) for k in t.__slots__ if k != "hint")
        assert hash(t) == hash(fields)


def test_equality_tells_each_compared_field_apart():
    # pairs that differ in one compared field alone, met at the root and
    # one and two levels down
    x, y = v("x"), v("y")
    pairs = [(STAR, BOX), (Var(x), Var(y)),
             (Var(x), Var(Variable(x.id, Sort.BOX, "x"))), (BVar(0), BVar(1)),
             (Symb("f", ()), Symb("g", ())), (Symb("f", ()), Symb("f", (STAR,))),
             (Abs(STAR, BVar(0)), Prod(STAR, BVar(0))),
             (App(STAR, STAR), App(STAR, BOX))]
    for a, b in pairs:
        for wrap in (lambda t: t, lambda t: Symb("s", (STAR, t)),
                     lambda t: Abs(STAR, App(t, STAR))):
            assert wrap(a) != wrap(b) and not wrap(a) == wrap(b)
            assert wrap(a) == wrap(a) and not wrap(b) != wrap(b)


def test_equality_stops_at_shared_subterms():
    # the shared 5000-deep subterm answers by identity, unwalked
    deep = Symb("zero", ())
    for k in range(5000):
        deep = Abs(STAR, deep) if k % 2 else Symb("s", (deep,))
    assert App(deep, STAR) == App(deep, STAR)
    assert Symb("f", (deep, STAR)) != Symb("f", (deep, BOX))


def test_repr_lists_every_field():
    x = Variable(7, Sort.STAR, "x")
    star = "SortT(sort=<Sort.STAR: '*'>)"
    var = "Variable(id=7, sort=<Sort.STAR: '*'>, name='x')"
    assert repr(Symb("f", ())) == "Symb(name='f', args=())"
    assert repr(Abs(STAR, Var(x), "y")) == \
        f"Abs(domain={star}, body=Var(var={var}), hint='y')"
    assert repr(Prod(STAR, BVar(0))) == \
        f"Prod(domain={star}, codomain=BVar(index=0), hint='x')"
    assert repr(App(BVar(0), STAR)) == f"App(head=BVar(index=0), arg={star})"
    assert repr(Environment.of([(x, STAR)])) == \
        f"Environment(bindings=(({var}, {star}),))"
    assert repr(SortT(Sort.BOX)) == "SortT(sort=<Sort.BOX: '[]'>)"


def test_abs_prod_positions_domain_is_1_body_is_2():
    x = v("x")
    t = pi(x, STAR, Var(x))
    assert subterm_at(t, (1,)) == STAR
    assert subterm_at(t, (2,)) == BVar(0)


def test_is_kind():
    x = v("x")
    assert is_kind(STAR)
    assert is_kind(pi(x, STAR, STAR))
    assert not is_kind(Var(x))
    assert not is_kind(pi(x, STAR, Var(x)))


def test_sort_class_of_type():
    # a variable whose type is a kind is a predicate variable
    assert sort_class_of_type(STAR) == Sort.BOX
    x = v("A", Sort.BOX)
    assert sort_class_of_type(Var(x)) == Sort.STAR


def test_free_vars_with_sort_filter():
    a = v("A", Sort.BOX)
    x = v("x", Sort.STAR)
    t = Symb("f", (Var(a), Var(x)))
    assert free_vars(t) == {a, x}
    assert free_vars(t, Sort.BOX) == {a}
    assert free_vars(t, Sort.STAR) == {x}


def test_is_algebraic():
    x = v("x")
    assert is_algebraic(Symb("f", (Var(x),)))
    assert not is_algebraic(lam(x, STAR, Var(x)))
    assert not is_algebraic(App(Var(x), Var(x)))


def test_arrow_is_nondependent_product():
    t = arrow(STAR, STAR)
    assert isinstance(t, Prod)
    assert t.codomain == STAR  # no reference to the bound variable
