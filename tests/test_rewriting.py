"""Matching, unification, reduction, critical pairs, confluence."""

import functools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cac import (ConfluenceLevel, Orientation, RewriteRule, STAR, Signature,
                 Symb, Var, Variable, confluence_check, critical_pairs,
                 joinable, match_first_order, normalize, pp,
                 step, unify)
from cac.rewriting import (ReachableShape, RuleError, RuleSet, _overlaps,
                           _reducts, _Search, rename_apart)
from cac.terms import (Abs, App, BVar, CacError, FuelExhausted, Prod, Sort,
                       _children, free_vars, lam, map_children, occurrences,
                       pi, replace_at, subst_apply, symbols_of)
from tests.conftest import _unless_recursion_error, reference_reduce_one
from tests.test_properties import _int_vars, random_binder_term


def v(name):
    return Variable.fresh(name, Sort.STAR)


def sy(name, *args):
    return Symb(name, tuple(args))


def test_match_basic():
    x = v("x")
    sigma = match_first_order(sy("f", Var(x)), sy("f", sy("a")))
    assert sigma == {x: sy("a")}
    assert match_first_order(sy("f", Var(x)), sy("g", sy("a"))) is None


def test_match_nonlinear_requires_equal_images():
    x = v("x")
    pat = sy("f", Var(x), Var(x))
    assert match_first_order(pat, sy("f", sy("a"), sy("a"))) is not None
    assert match_first_order(pat, sy("f", sy("a"), sy("b"))) is None


def test_unify_with_occurs_check():
    x, y = v("x"), v("y")
    sigma = unify(sy("f", Var(x)), sy("f", sy("g", Var(y))))
    assert sigma is not None and sigma[x] == sy("g", Var(y))
    assert unify(Var(x), sy("f", Var(x))) is None  # occurs check


def test_rule_validation():
    x, y = v("x"), v("y")
    with pytest.raises(RuleError):
        RewriteRule("r", Var(x), Var(x))  # lhs must be symbol-headed
    with pytest.raises(RuleError):
        RewriteRule("r", sy("f", Var(x)), Var(y))  # rhs var not in lhs


def test_every_way_to_build_a_rule_checks_it():
    x, y = v("x"), v("y")
    good = RewriteRule("r", sy("f", Var(x)), Var(x))
    fields = good._asdict()
    builders = [
        lambda **kw: RewriteRule(*{**fields, **kw}.values()),
        lambda **kw: RewriteRule(**{**fields, **kw}),
        lambda **kw: good._replace(**kw),
        lambda **kw: RewriteRule._make({**fields, **kw}.values()),
    ]
    for build in builders:
        assert build() == good
        with pytest.raises(RuleError) as bad:
            build(lhs=Var(x))
        assert bad.value.code == "bad-lhs"
        with pytest.raises(RuleError) as bad:
            build(rhs=Var(y))
        assert bad.value.code == "bad-rhs"


def test_rule_fields_are_read_only():
    x = v("x")
    rule = RewriteRule("r", sy("f", Var(x)), Var(x))
    # each rule has its own annotation substitution, as with a factory
    assert rule.ann_subst == {} \
        and rule.ann_subst is not RewriteRule("r", rule.lhs, Var(x)).ann_subst
    for name in rule._fields:
        with pytest.raises(AttributeError):
            setattr(rule, name, None)
        with pytest.raises(AttributeError):
            delattr(rule, name)
    with pytest.raises(AttributeError):
        rule.extra = 1


def int_rules():
    x, y1, y2 = v("x"), v("y"), v("y")
    return [
        RewriteRule("r1", sy("s", sy("p", Var(x))), Var(x)),
        RewriteRule("r2", sy("p", sy("s", Var(x))), Var(x)),
        RewriteRule("r3", sy("plus", sy("0"), Var(y1)), Var(y1)),
        RewriteRule("r4", sy("times", sy("0"), Var(y2)), sy("0")),
    ]


def test_step_and_normalize_int():
    rules = int_rules()
    # [DERIVED] hand reduction: p(s(p(s(0)))) -> p(s(0)) -> 0
    t = sy("p", sy("s", sy("p", sy("s", sy("0")))))
    s1 = step(t, rules)
    assert s1 == sy("p", sy("s", sy("0")))
    assert normalize(t, rules) == sy("0")


def test_normal_form_is_irreducible():
    rules = int_rules()
    t = sy("plus", sy("0"), sy("p", sy("s", sy("0"))))
    nf = normalize(t, rules)
    assert step(nf, rules) is None
    assert nf == sy("0")


def test_beta_step():
    x = v("x")
    t = App(lam(x, STAR, Var(x)), sy("a"))
    assert step(t, []) == sy("a")
    assert normalize(t, []) == sy("a")


def test_reduce_one_collects_all_redexes():
    rules = int_rules()
    t = sy("plus", sy("s", sy("p", sy("0"))), sy("p", sy("s", sy("0"))))
    reducts = reference_reduce_one(t, rules)
    assert sy("plus", sy("0"), sy("p", sy("s", sy("0")))) in reducts
    assert sy("plus", sy("s", sy("p", sy("0"))), sy("0")) in reducts


def test_reduce_one_keeps_first_occurrences():
    # the raw stream repeats f(c): the root's first rule gives it, and
    # so does the first rule at position 1, after the root's e
    x, y = v("x"), v("y")
    rules = [RewriteRule("drop", sy("f", Var(x)), Var(x)),
             RewriteRule("const", sy("f", Var(y)), sy("e"))]
    t = sy("f", sy("f", sy("c")))
    fc, e = sy("f", sy("c")), sy("e")
    assert list(_reducts(t, RuleSet.of(rules))) == [fc, e, fc, sy("f", e)]
    assert reference_reduce_one(t, rules) == [fc, e, sy("f", e)]


def test_rules_at_a_position_come_before_beta_below_it():
    # a symbol position is never a beta-redex, so rules and beta meet
    # only as outer and inner redexes: the outer one comes first, and
    # the rules of one head come in declaration order
    x, y = v("x"), v("y")
    first = RewriteRule("first", sy("f", Var(x)), sy("a"))
    second = RewriteRule("second", sy("f", Var(x)), sy("b"))
    ident = lam(y, STAR, Var(y))
    t = sy("f", App(ident, sy("c")))
    assert step(t, [first, second]) == sy("a")
    assert reference_reduce_one(t, [first, second]) == [sy("a"), sy("b"),
                                              sy("f", sy("c"))]
    u = App(ident, sy("f", sy("c")))
    assert step(u, [first, second]) == sy("f", sy("c"))
    assert reference_reduce_one(u, [first, second]) == [
        sy("f", sy("c")), App(ident, sy("a")), App(ident, sy("b"))]


def test_binder_domain_reduces_before_body():
    rules = int_rules()
    x = v("x")
    redex = sy("p", sy("s", sy("int")))
    for make, node in ((lam, Abs), (pi, Prod)):
        t = make(x, redex, sy("p", sy("s", Var(x))))
        domain_first = node(sy("int"), sy("p", sy("s", BVar(0))))
        assert step(t, rules) == domain_first
        assert reference_reduce_one(t, rules) == [domain_first, node(redex, BVar(0))]


def test_step_reaches_the_bottom_of_a_deep_term():
    # built in Python, since the parser and the printer stop far higher;
    # walked level by level, so the bottom is seen to be the rule's rhs
    one = sy("one")
    t = sy("zero")
    for _ in range(700):
        t = sy("succ", t)
    r = step(t, [RewriteRule("z", sy("zero"), one)])
    for _ in range(700):
        assert r.name == "succ"
        r = r.args[0]
    assert r is one


def test_fuel_exhaustion():
    x = v("x")
    loop = RewriteRule("loop", sy("f", Var(x)), sy("f", Var(x)))
    with pytest.raises(FuelExhausted):
        normalize(sy("f", sy("a")), [loop], fuel=50)


def test_critical_pairs_int_exactly_two():
    rules = int_rules()
    cps = critical_pairs(rules)
    # [DERIVED] the only overlaps are s/p cancellation inside each other
    assert len(cps) == 2
    peaks = sorted(str(cp.peak) for cp in cps)
    assert peaks == ["p(s(p(x)))", "s(p(s(x)))"]
    for cp in cps:
        assert cp.overlap_position == (1,)
        assert joinable(cp.left_reduct, cp.right_reduct, rules, 10000,
                        terminating=False, by_normal_forms=True)


def test_confluence_newman_for_int():
    from cac import load
    from tests.conftest import corpus_source
    lf = load(corpus_source("int"))
    verdict = confluence_check(lf.rules, Orientation(lf.signature))
    assert verdict.level == ConfluenceLevel.NEWMAN


def test_confluence_orthogonal():
    rules = [RewriteRule("r", sy("f", sy("a")), sy("b"))]
    verdict = confluence_check(rules, Orientation(Signature()))
    assert verdict.level == ConfluenceLevel.ORTHOGONAL


def test_confluence_unknown_and_asserted():
    # non-terminating, non-orthogonal: two root-overlapping rules
    rules = [RewriteRule("r1", sy("f", sy("a")), sy("f", sy("a"))),
             RewriteRule("r2", sy("f", sy("a")), sy("b"))]
    orientation = Orientation(Signature())
    assert confluence_check(rules, orientation).level \
        == ConfluenceLevel.UNKNOWN
    assert confluence_check(rules, orientation, assume_confluent=True).level \
        == ConfluenceLevel.ASSERTED


def test_left_linear():
    # the walk of critical_pairs names the first rule whose lhs repeats
    # a variable, also when an earlier rule has that variable object too
    x, y = v("x"), v("y")
    linear = RewriteRule("r", sy("f", Var(x)), Var(x))
    eq = RewriteRule("e", sy("eq", Var(x), Var(x)), sy("a"))
    eq2 = RewriteRule("e2", sy("g", Var(y), sy("h", Var(y))), sy("a"))
    assert critical_pairs([linear]).nonlinear is None
    assert critical_pairs([eq]).nonlinear is eq
    assert critical_pairs([linear, eq2, eq]).nonlinear is eq2
    assert critical_pairs([linear, eq]).nonlinear is eq


def test_joinable_without_confluence_uses_search():
    rules = int_rules()
    a = sy("s", sy("p", sy("plus", sy("0"), sy("0"))))
    b = sy("plus", sy("0"), sy("0"))
    assert joinable(a, b, rules, 10000, terminating=False,
                    by_normal_forms=True)
    assert not joinable(sy("0"), sy("s", sy("0")), rules, 10000,
                        terminating=False, by_normal_forms=True)


def test_rename_apart_is_fresh():
    x = v("x")
    r = RewriteRule("r", sy("f", Var(x)), Var(x))
    r2 = rename_apart(r)
    fv = r2.lhs.args[0].var
    assert fv != x  # fresh variable, same shape
    assert r2.rhs == Var(fv)
    assert match_first_order(r2.lhs, r.lhs) is not None


def test_rename_apart_builds_the_copy_without_checking_it():
    # renaming keeps the lhs algebraic and FV(rhs) within FV(lhs), so
    # the copy skips RewriteRule.__new__, yet passes its checks
    x, y = v("x"), v("y")
    r = RewriteRule("r", sy("f", Var(x), sy("g", Var(y))), sy("h", Var(y)))
    checks = 0

    def hook(frame, event, arg):
        nonlocal checks
        checks += event == "call" and frame.f_code is \
            RewriteRule.__new__.__code__

    sys.setprofile(hook)
    try:
        r2 = rename_apart(r)
    finally:
        sys.setprofile(None)
    assert checks == 0
    assert type(r2) is RewriteRule and RewriteRule(*r2) == r2
    assert r2.ann_env == r.ann_env and r2.ann_subst == {}
    assert free_vars(r2.lhs).isdisjoint(free_vars(r.lhs))


def test_confluence_unknown_keeps_count_when_not_left_linear():
    x, y = v("x"), v("y")
    rules = [RewriteRule("r1", sy("eq", Var(x), Var(x)), sy("a")),
             RewriteRule("r2", sy("eq", Var(y), sy("a")), sy("b"))]
    verdict = confluence_check(rules, Orientation(Signature()))
    assert verdict.level == ConfluenceLevel.UNKNOWN
    assert verdict.evidence == ["1 critical pair(s); non-left-linear"]


def test_rule_set_index():
    rules = int_rules()
    rs = RuleSet.of(rules)
    assert RuleSet.of(rs) is rs
    assert list(rs) == rules and len(rs) == 4 and rs[2] is rules[2]
    assert rs.heads == frozenset({"s", "p", "plus", "times"})
    assert rs.by_head["plus"] == (rules[2],)
    assert "0" not in rs.by_head


# -- critical pairs against an all-pairs reference ---------------------------

# symbol -> arity of the random first-order signature
RANDOM_SIG = {"a": 0, "b": 0, "f": 1, "h": 1, "g": 2}


def random_lhs(rng, pool, depth):
    """A symbol-headed algebraic term; variables come from `pool`, so a
    variable may repeat (non-left-linear rules occur too)."""
    name = rng.choice([n for n, k in RANDOM_SIG.items() if k or depth == 0])
    args = []
    for _ in range(RANDOM_SIG[name]):
        if depth == 0 or rng.random() < 0.4:
            args.append(Var(rng.choice(pool)))
        else:
            args.append(random_lhs(rng, pool, depth - 1))
    return Symb(name, tuple(args))


def random_rhs(rng, lhs_vars, depth):
    if lhs_vars and (depth == 0 or rng.random() < 0.4):
        return Var(rng.choice(lhs_vars))
    if depth == 0:
        return sy(rng.choice(["a", "b"]))
    name = rng.choice(list(RANDOM_SIG))
    return Symb(name, tuple(random_rhs(rng, lhs_vars, depth - 1)
                            for _ in range(RANDOM_SIG[name])))


def random_rules(rng):
    rules = []
    for k in range(rng.randrange(1, 7)):
        pool = [v(n) for n in "xyz"]
        lhs = random_lhs(rng, pool, rng.randrange(0, 3))
        lhs_vars = sorted(free_vars(lhs), key=lambda w: w.id)
        rules.append(RewriteRule(f"q{k}", lhs,
                                 random_rhs(rng, lhs_vars, 2)))
    return rules


def all_pairs_critical_pairs(rules):
    """Reference enumeration: every ordered pair of renamed-apart rules,
    every non-variable position, no index (self-overlaps at proper
    positions only)."""
    out = []

    def overlaps(r1, r2, include_root):
        for p, sub in occurrences(r1.lhs):
            if not isinstance(sub, Symb) or (p == () and not include_root):
                continue
            sigma = unify(sub, r2.lhs)
            if sigma is None:
                continue
            peak = subst_apply(r1.lhs, sigma)
            left = subst_apply(r1.rhs, sigma)
            right = subst_apply(replace_at(r1.lhs, p, r2.rhs), sigma)
            out.append(f"peak {peak} -> {left} | {right} "
                       f"(rules {r1.name}/{r2.name} at {list(p)})")

    for i, rule in enumerate(rules):
        ri = rename_apart(rule)
        overlaps(ri, rename_apart(rule), include_root=False)
        for rule_j in rules[i + 1:]:
            rj = rename_apart(rule_j)
            overlaps(ri, rj, include_root=True)
            overlaps(rj, ri, include_root=False)
    return out


def test_critical_pairs_match_all_pairs_reference():
    rng = random.Random(20261017)
    found = 0
    for _ in range(300):
        rules = random_rules(rng)
        got = [str(cp) for cp in critical_pairs(rules)]
        assert got == all_pairs_critical_pairs(rules), \
            [str(r) for r in rules]
        found += len(got)
    assert found > 100  # the generator does produce overlaps


def proper_occurrences(rule):
    """Every (position, subterm) pair of the lhs below its root, which
    `_overlaps` narrows to the partner's head."""
    return [(p, u) for p, u in occurrences(rule.lhs) if p]


def renamed_first_critical_pairs(rules):
    """Reference enumeration with the index of `critical_pairs`, but
    every rule renamed apart before any pair is tried, each copy serving
    every pair of its rule."""
    rules = RuleSet.of(rules)
    renamed = [rename_apart(r) for r in rules]
    syms = [symbols_of(r.lhs) for r in rules]
    out = []
    for i, ri in enumerate(renamed):
        head = ri.head_name()
        if any(head in symbols_of(a) for a in ri.lhs_args()):
            out.extend(_overlaps(ri, rename_apart(rules[i]),
                                 proper_occurrences(ri), include_root=False))
        for j, rj in enumerate(renamed):
            if j > i and (head in syms[j] or rj.head_name() in syms[i]):
                out.extend(_overlaps(ri, rj, proper_occurrences(ri),
                                     include_root=True))
                out.extend(_overlaps(rj, ri, proper_occurrences(rj),
                                     include_root=False))
    return out


def printed_pairs(cps):
    return [(pp(cp.peak), pp(cp.left_reduct), pp(cp.right_reduct),
             cp.overlap_position, cp.rules) for cp in cps]


def test_critical_pairs_match_renaming_every_rule_first(corpus):
    # renaming per pair must give the pairs, their printed terms,
    # positions, rule names and order that renaming up front gave
    from cac import load
    from tests.test_acceptance import _synthetic
    x = v("x")
    systems = {name: lf.rules for name, lf in corpus.items()}
    systems["synthetic_20"] = load(_synthetic(20)).rules
    systems["self_overlap"] = [
        RewriteRule("ff", sy("f", sy("f", Var(x))), Var(x))]
    # rules built through the API may share one variable object
    systems["shared_variable"] = [
        RewriteRule("s1", sy("f", sy("g", Var(x))), Var(x)),
        RewriteRule("s2", sy("g", Var(x)), sy("h", Var(x))),
        RewriteRule("s3", sy("f", Var(x)), sy("g", Var(x)))]
    # g1 shares x with f1, its partner, though the first rule with x is
    # a1; overlapping g1 into f1 unrenamed meets x against h(x) and
    # finds no pair
    systems["shared_by_three"] = [
        RewriteRule("a1", sy("a", Var(x)), Var(x)),
        RewriteRule("f1", sy("f", sy("g", Var(x))), Var(x)),
        RewriteRule("g1", sy("g", sy("h", Var(x))), Var(x))]
    counts = {}
    for name, rules in systems.items():
        got = printed_pairs(critical_pairs(rules))
        assert got == printed_pairs(renamed_first_critical_pairs(rules)), \
            name
        counts[name] = len(got)
    assert counts["synthetic_20"] == 20
    assert counts["self_overlap"] == 1 and counts["shared_variable"] == 2
    assert counts["shared_by_three"] == 1
    assert counts["int"] == 2 and counts["ndm_prop"] > 2


def test_critical_pairs_rename_only_where_variables_are_shared(corpus):
    # a loaded file gives each rule its own variables, so it needs no
    # rename; ff overlaps itself once, and of shared_variable's partner
    # pairs, s1/s2 and s1/s3 share x (s2 and s3 are no partners)
    from cac import load
    from tests.test_acceptance import _calls, _synthetic
    x = v("x")
    systems = {name: lf.rules for name, lf in corpus.items()}
    systems["synthetic_20"] = load(_synthetic(20)).rules
    systems["self_overlap"] = [
        RewriteRule("ff", sy("f", sy("f", Var(x))), Var(x))]
    systems["shared_variable"] = [
        RewriteRule("s1", sy("f", sy("g", Var(x))), Var(x)),
        RewriteRule("s2", sy("g", Var(x)), sy("h", Var(x))),
        RewriteRule("s3", sy("f", Var(x)), sy("g", Var(x)))]
    renames = {name: _calls(lambda: critical_pairs(rules), only=rename_apart)
               for name, rules in systems.items()}
    expected = dict.fromkeys(systems, 0)
    expected.update(self_overlap=1, shared_variable=2)
    assert renames == expected


def test_newman_attempt_with_a_pair_that_does_not_join():
    # RPO orients both rules, so NEWMAN is tried; the one critical pair,
    # at f(a), ends in the distinct normal forms b and c
    from cac import load
    lf = load("symbol o : * .\nsymbol a : o .\nsymbol b : o .\n"
              "symbol c : o .\nsymbol d : o .\nsymbol f : o -> o .\n"
              "pragma prec f > b .\npragma prec f > c .\n"
              "pragma prec b > d .\n"
              "rule f(a) -> b .\nrule f(x) -> c .\nrule b -> d .\n")
    orientation = Orientation(lf.signature)
    assert orientation.terminates(RuleSet(lf.rules)) is not None
    (cp,) = critical_pairs(lf.rules)
    assert str(cp) == "peak f(a) -> b | c (rules rule1/rule2 at [])"
    assert not joinable(cp.left_reduct, cp.right_reduct, lf.rules, 10000,
                        terminating=False, by_normal_forms=True)
    # the verdict hands out the pair that did not join
    unknown = (ConfluenceLevel.UNKNOWN, ["1 critical pair(s); left-linear"],
               (cp,))
    assert confluence_check(lf.rules, orientation) == unknown
    # with no fuel for the one reduct of b, the search runs out, and
    # running out means NOT joinable too
    with pytest.raises(FuelExhausted):
        joinable(cp.left_reduct, cp.right_reduct, lf.rules, 0,
                 terminating=False, by_normal_forms=True)
    assert confluence_check(lf.rules, orientation, fuel=0) == unknown
    assert confluence_check(lf.rules, orientation, fuel=0,
                            assume_confluent=True).level \
        == ConfluenceLevel.ASSERTED


# -- joinability search against a list-based reference -----------------------

def reference_joinable(t, u, rules, fuel, terminating, by_normal_forms):
    """Breadth-first search for a common reduct with the visited terms
    in lists, each new reduct compared with every visited one.  When
    its first level does not meet and `by_normal_forms` is set, the
    normal forms of t and u by `reference_normalize`, each under
    `fuel`: equal ones answer True, and different ones False when
    `terminating`; otherwise, or when either side runs out of fuel, the
    search goes on."""
    if t == u:
        return True
    seen_t, seen_u = [t], [u]
    frontier_t, frontier_u = [t], [u]
    budget = fuel
    level = 0

    def meets(xs, ys):
        return any(x == y for x in xs for y in ys)

    while frontier_t or frontier_u:
        if meets(seen_t, seen_u):
            return True
        if level == 1 and by_normal_forms:
            try:
                same = (reference_normalize(t, rules, fuel)
                        == reference_normalize(u, rules, fuel))
            except FuelExhausted:
                pass
            else:
                if same or terminating:
                    return same
        level += 1
        nxt_t, nxt_u = [], []
        for x in frontier_t:
            for r in reference_reduce_one(x, rules):
                budget -= 1
                if budget < 0:
                    raise FuelExhausted("joinability search")
                if all(r != s for s in seen_t):
                    seen_t.append(r)
                    nxt_t.append(r)
        for y in frontier_u:
            for r in reference_reduce_one(y, rules):
                budget -= 1
                if budget < 0:
                    raise FuelExhausted("joinability search")
                if all(r != s for s in seen_u):
                    seen_u.append(r)
                    nxt_u.append(r)
        frontier_t, frontier_u = nxt_t, nxt_u
    return meets(seen_t, seen_u)


def join_rules():
    """The int rules plus the truncating p(0) -> 0, under which s(p(0))
    reduces to both 0 and s(0): not confluent, so `joinable` searches."""
    from cac import load
    from tests.conftest import corpus_source
    return load(corpus_source("int") + "rule p(0) -> 0 .\n").rules


def random_int_term(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return sy("0")
    head = rng.choice(["s", "p", "s", "p", "plus", "times"])
    arity = 1 if head in ("s", "p") else 2
    return Symb(head, tuple(random_int_term(rng, depth - 1)
                            for _ in range(arity)))


def outcome(search, t, u, rules, fuel, terminating=False,
            by_normal_forms=True):
    try:
        return search(t, u, rules, fuel, terminating=terminating,
                      by_normal_forms=by_normal_forms)
    except FuelExhausted:
        return "fuel"


def assert_search_matches_reference(t, u, rules, fuel, ran_out):
    """joinable and the reference agree at `fuel` and at each smaller
    fuel in `ran_out`, which counts the conversions that run out there,
    both as a conversion and under `terminating`, and as a conversion
    that normalizes nothing; returns the reference's outcome at `fuel`
    as a conversion."""
    want = outcome(reference_joinable, t, u, rules, fuel)
    assert outcome(joinable, t, u, rules, fuel) == want, (pp(t), pp(u))
    assert outcome(joinable, t, u, rules, fuel, True) \
        == outcome(reference_joinable, t, u, rules, fuel, True)
    assert outcome(joinable, t, u, rules, fuel, False, False) \
        == outcome(reference_joinable, t, u, rules, fuel, False, False)
    # the fuel runs out at the same level as in the reference,
    # whichever order the reducts of a level are paid for in
    for small_fuel in ran_out:
        small = outcome(reference_joinable, t, u, rules, small_fuel)
        assert outcome(joinable, t, u, rules, small_fuel) == small, \
            (pp(t), pp(u), small_fuel)
        assert outcome(joinable, t, u, rules, small_fuel, True) \
            == outcome(reference_joinable, t, u, rules, small_fuel, True)
        assert outcome(joinable, t, u, rules, small_fuel, False, False) \
            == outcome(reference_joinable, t, u, rules, small_fuel, False,
                       False)
        ran_out[small_fuel] += small == "fuel"
    return want


def assert_memo_matches_reduce_one(t, rules):
    """Three levels of one search from t: every canonical term it
    expanded has reference_reduce_one's reducts, as a set and in number,
    and an alpha-equal copy of t under other binder hints has t's
    handle.  Returns how many terms were expanded."""
    search = _Search(RuleSet.of(rules))
    frontier = [search.intern(t)]
    assert search.intern(rehinted(t, "z")) == frontier[0]
    for _ in range(3):
        if len(frontier) > 100:
            break
        frontier, _ = search.next_level(frontier, 1, 10 ** 6)
    expanded = 0
    for h, reducts in enumerate(search.memo):
        if reducts is not None:
            expected = reference_reduce_one(search.term(h), rules)
            assert len(reducts) == len(expected), pp(search.term(h))
            assert {search.term(r) for r in reducts} == set(expected)
            expanded += 1
    return expanded


def rehinted(t, hint):
    """An alpha-equal copy of t, built from new nodes, whose binders all
    carry `hint`."""
    if isinstance(t, (Abs, Prod)):
        return type(t)(*(rehinted(c, hint) for c in _children(t)), hint)
    return map_children(t, lambda c: rehinted(c, hint))


def test_joinable_matches_list_reference():
    rules = join_rules()
    rng = random.Random(20261018)
    results = {True: 0, False: 0}
    ran_out = dict.fromkeys((1, 2, 3, 5, 8, 13), 0)
    expanded = 0
    for _ in range(300):
        t = random_int_term(rng, 4)
        if rng.random() < 0.5:
            u = random_int_term(rng, 3)
        else:  # a reduct of t, wrapped or not: joinable more often
            u = t
            for _ in range(rng.randrange(1, 4)):
                reducts = reference_reduce_one(u, rules)
                u = rng.choice(reducts) if reducts else u
            if rng.random() < 0.5:
                u = sy(rng.choice(["s", "p"]), u)
        want = assert_search_matches_reference(t, u, rules, 10000, ran_out)
        results[want] += 1
        expanded += assert_memo_matches_reduce_one(t, rules)
    assert min(results.values()) > 50, results  # both outcomes occur
    assert 20 < ran_out[8] < 280, ran_out  # fuel 8 runs out on some pairs
    assert expanded > 1500, expanded


def binder_pair(rng, rules):
    """A term with abstractions, products and beta-redexes, sometimes
    plus(a, a') with a' an alpha-equal copy of a under other binder
    hints (the dup rule's non-left-linear match), and a second term:
    random, or a rehinted reduct of the first, wrapped or not."""
    vars_ = _int_vars(rng, 2)
    t = random_binder_term(rng, vars_, rng.randrange(1, 4))
    if rng.random() < 0.3:
        t = sy("plus", t, rehinted(t, "y"))
    if rng.random() < 0.5:
        return t, random_binder_term(rng, vars_, rng.randrange(0, 3))
    u = t
    for _ in range(rng.randrange(1, 4)):
        reducts = reference_reduce_one(u, rules)
        u = rng.choice(reducts) if reducts else u
    u = rehinted(u, "w")
    if rng.random() < 0.5:
        u = sy(rng.choice(["s", "p"]), u)
    return t, u


def test_joinable_matches_list_reference_on_binders(intf):
    # the join rules plus dup (non-left-linear), unit and mul (whose
    # right-hand side is a beta-redex)
    rules = RuleSet.of(list(join_rules())
                       + extended_int_rules(intf)[len(intf.rules):])
    rng = random.Random(20261020)
    results = {True: 0, False: 0, "fuel": 0}
    ran_out = dict.fromkeys((1, 2, 3, 5, 8, 13), 0)
    expanded = 0
    for _ in range(150):
        t, u = binder_pair(rng, rules)
        want = assert_search_matches_reference(t, u, rules, 300, ran_out)
        results[want] += 1
        expanded += assert_memo_matches_reduce_one(t, rules)
    assert min(results[True], results[False]) > 30, results
    assert 10 < ran_out[8] < 100, ran_out  # fuel 8 runs out on some pairs
    assert expanded > 1000, expanded


# -- normalize against the restart-at-root reference --------------------------

def reference_normalize(t, rules, fuel):
    """Leftmost-outermost normalization by `step` from the root, one
    step at a time: FuelExhausted exactly when more than `fuel` steps
    are needed."""
    for _ in range(fuel):
        r = step(t, rules)
        if r is None:
            return t
        t = r
    if step(t, rules) is None:
        return t
    raise FuelExhausted("normalization")


def extended_int_rules(int_file):
    """The int rules plus a non-left-linear rule, a rule that overlaps
    r4, and a rule whose right-hand side is a beta-redex."""
    x, y, z, w, k = v("x"), v("y"), v("z"), v("w"), v("k")
    return int_file.rules + [
        RewriteRule("dup", sy("plus", Var(x), Var(x)),
                    sy("times", Var(x), Var(x))),
        RewriteRule("unit", sy("times", Var(y), sy("0")), Var(y)),
        RewriteRule("mul", sy("times", sy("s", Var(z)), Var(w)),
                    App(lam(k, sy("int"), sy("plus", Var(k), Var(w))),
                        sy("times", Var(z), Var(w))))]


def head_becomes_abstraction(rng):
    """(g(u) a) under 0-2 of s/p, with g(x) -> fun (y:int) =>
    plus(y, x): the contraction at the head makes its parent a
    beta-redex."""
    vars_ = _int_vars(rng, 2)
    t = App(sy("g", random_binder_term(rng, vars_, rng.randrange(0, 4))),
            random_binder_term(rng, vars_, rng.randrange(0, 4)))
    for _ in range(rng.randrange(0, 3)):
        t = sy(rng.choice(["s", "p"]), t)
    return t


def g_rule():
    x, y = v("x"), v("y")
    return RewriteRule("g", sy("g", Var(x)),
                       lam(y, sy("int"), sy("plus", Var(y), Var(x))))


def outer_ancestor_becomes_redex(rng):
    """q(s(u)) under 0-2 of s/p, with q(s(s(x))) -> x: a contraction
    in u that leaves an s at its root makes q a redex two levels up,
    above an s that has rules but stays normal."""
    t = sy("q", sy("s", random_binder_term(rng, _int_vars(rng, 2),
                                          rng.randrange(0, 5))))
    for _ in range(rng.randrange(0, 3)):
        t = sy(rng.choice(["s", "p"]), t)
    return t


def q_rule():
    x = v("x")
    return RewriteRule("q", sy("q", sy("s", sy("s", Var(x)))), Var(x))


def normalize_outcome(norm, t, rules, fuel):
    try:
        return norm(t, rules, fuel)
    except FuelExhausted:
        return "fuel"


def test_normalize_matches_restart_reference(intf):
    systems = [intf.rules, join_rules(), extended_int_rules(intf)]
    rng = random.Random(20261019)
    cases = ran_out = 0
    for rules in systems:
        rules = RuleSet.of(rules + [g_rule(), q_rule()])
        for k in range(1000):
            if k % 4 == 0:
                t = head_becomes_abstraction(rng)
            elif k % 4 == 1:
                t = outer_ancestor_becomes_redex(rng)
            else:
                t = random_binder_term(rng, _int_vars(rng, 2),
                                       rng.randrange(1, 7))
            for fuel in (0, 1, 3, 8, 10000):
                want = normalize_outcome(reference_normalize, t, rules, fuel)
                got = normalize_outcome(normalize, t, rules, fuel)
                if want == "fuel":
                    assert got == "fuel", pp(t)
                    ran_out += 1
                else:
                    assert got == want and pp(got) == pp(want), pp(t)
                cases += 1
    assert cases == 15000
    assert 2000 < ran_out < 10000, ran_out  # the fuel limit is exercised


def shared_placements(w, u):
    """Terms that hold the one object w in several slots: slots that no
    ancestor can react to (under `node`, which has no rules), the head
    of an application, slots under symbols with rules, and a binder
    body."""
    return [sy("node", w, sy("node", u, w)),
            sy("node", w, App(w, u)),
            sy("node", w, sy("s", w)),
            sy("node", w, sy("p", sy("plus", w, u))),
            sy("node", w, sy("times", u, w)),
            sy("node", w, Abs(sy("int"), sy("node", w, u), "x")),
            sy("node", App(w, u), w)]


def test_normalize_on_shared_terms_matches_restart_reference(intf):
    # normalize remembers the normal form of a subterm that fills a slot
    # no ancestor can react to; wherever else the same object sits, the
    # walk must go on as if nothing were remembered
    rules = RuleSet.of(extended_int_rules(intf) + [g_rule(), q_rule()])
    rng = random.Random(20261019)
    cases = ran_out = 0
    for k in range(150):
        vars_ = _int_vars(rng, 2)
        if k % 3 == 0:  # w reduces to an abstraction
            w = sy("g", random_binder_term(rng, vars_, rng.randrange(0, 4)))
        else:
            w = random_binder_term(rng, vars_, rng.randrange(1, 6))
        u = random_binder_term(rng, vars_, rng.randrange(0, 3))
        for t in shared_placements(w, u):
            for fuel in (0, 1, 3, 8, 10000):
                want = normalize_outcome(reference_normalize, t, rules, fuel)
                got = normalize_outcome(normalize, t, rules, fuel)
                if want == "fuel":
                    assert got == "fuel", pp(t)
                    ran_out += 1
                else:
                    assert got == want and pp(got) == pp(want), pp(t)
                cases += 1
    assert cases == 5250
    assert 1000 < ran_out < 4000, ran_out  # the fuel limit is exercised


def test_normalize_through_one_memo_matches_restart_reference(intf):
    # a memo passed to many calls remembers each call's root too; after
    # w has been normalized through it, every term holding w, and w
    # itself at any fuel, must come out as the reference gives it
    rules = RuleSet.of(extended_int_rules(intf) + [g_rule(), q_rule()])
    rng = random.Random(20261020)
    cases = ran_out = hits = 0
    for k in range(150):
        vars_ = _int_vars(rng, 2)
        if k % 3 == 0:  # w reduces to an abstraction
            w = sy("g", random_binder_term(rng, vars_, rng.randrange(0, 4)))
        else:
            w = random_binder_term(rng, vars_, rng.randrange(1, 6))
        u = random_binder_term(rng, vars_, rng.randrange(0, 3))
        memo = {}

        def through_memo(t, rules, fuel):
            return normalize(t, rules, fuel, memo)

        normalize_outcome(through_memo, w, rules, 10000)
        hits += id(w) in memo
        for t in [w] + shared_placements(w, u):
            for fuel in (0, 1, 3, 8, 10000):
                want = normalize_outcome(reference_normalize, t, rules, fuel)
                got = normalize_outcome(through_memo, t, rules, fuel)
                if want == "fuel":
                    assert got == "fuel", pp(t)
                    ran_out += 1
                else:
                    assert got == want and pp(got) == pp(want), pp(t)
                cases += 1
    assert cases == 6000
    assert hits > 75, hits  # most roots took a contraction
    assert 1000 < ran_out < 4500, ran_out  # the fuel limit is exercised


@pytest.mark.parametrize("n, fuel", [(9, 6401), (10, 14337)])
def test_joinable_minimal_fuel_is_pinned(n, fuel):
    # one unit per distinct reduct of each frontier term: bfs-chain(n)
    # against s(0) answers at exactly this fuel and runs out one below
    from tests.test_acceptance import _bfs_chain
    t, u, rules = _bfs_chain(n)
    assert joinable(t, u, rules, fuel, terminating=False,
                    by_normal_forms=True) is False
    with pytest.raises(FuelExhausted):
        joinable(t, u, rules, fuel - 1, terminating=False,
                 by_normal_forms=True)


def test_joinable_hashes_a_deep_reduct():
    # the search keys terms by their children's handles and walks them
    # with its own stacks, so a reduct 600 deep is never hashed whole
    from cac import load
    lf = load("symbol o : * .\nsymbol zero : o .\nsymbol succ : o -> o .\n"
              "symbol f : o -> o .\nrule f(x) -> zero .\nrule f(x) -> x .\n")
    t = Symb("zero", ())
    for _ in range(600):
        t = Symb("succ", (t,))
    assert joinable(Symb("f", (t,)), Symb("zero", ()), lf.rules, 10000,
                    terminating=False, by_normal_forms=True)


def test_joinable_contracts_a_beta_redex_on_a_deep_argument():
    # a beta step is taken on terms built from the search's nodes, and
    # those are built children first with the search's own stack, so an
    # argument 2000 deep, past the recursion limit, is built and interned
    from cac import load
    lf = load("symbol nat : * .\nsymbol zero : nat .\n"
              "symbol succ : nat -> nat .\nsymbol f : nat -> nat .\n"
              "rule f(x) -> zero .\nrule f(x) -> x .\n")
    assert confluence_check(lf.rules, Orientation(lf.signature)).level \
        == ConfluenceLevel.UNKNOWN
    t = Symb("zero", ())
    for _ in range(2000):
        t = Symb("succ", (t,))
    redex = App(Abs(Symb("nat", ()), BVar(0), "x"), t)
    join = functools.partial(joinable, fuel=10000, terminating=False,
                             by_normal_forms=True)
    assert _unless_recursion_error(join, redex, t, lf.rules) is True
    assert _unless_recursion_error(join, redex, Symb("succ", (t,)),
                                   lf.rules) is False


def test_reduce_one_dedupes_a_deep_reduct():
    # the third rule rebuilds the second one's reduct as a distinct but
    # equal term, which is dropped: the two share their 599-deep
    # argument, so comparing them is never a walk of 600 levels
    from cac import load
    lf = load("symbol o : * .\nsymbol zero : o .\nsymbol succ : o -> o .\n"
              "symbol f : o -> o .\nrule f(x) -> zero .\nrule f(x) -> x .\n"
              "rule f(succ(x)) -> succ(x) .\n")
    t = Symb("zero", ())
    for _ in range(600):
        t = Symb("succ", (t,))
    reducts = reference_reduce_one(Symb("f", (t,)), lf.rules)
    assert len(reducts) == 2
    assert reducts[0] == Symb("zero", ()) and reducts[1] is t
    assert step(Symb("f", (t,)), lf.rules) == Symb("zero", ())


# -- conversion by normal forms where no unjoined peak is reachable ----------

@st.composite
def algebraic_systems(draw):
    """A first-order system with no inductive type, so that every rule
    may be algebraic: constants a and b and two or three symbols of
    arity 1 or 2 over o, one to four rules whose sides are small terms
    (each lhs headed by a symbol, each rhs over its lhs's variables and
    mostly over symbols ranked below the lhs head), `prec` pragmas that
    mostly follow a random ranking of the symbols, so that many systems
    are oriented by RPO, and two ground terms of depth at most 3.
    Returns the source and the texts of the two terms."""
    arity = {"a": 0, "b": 0}
    for i in range(draw(st.integers(1, 3))):
        arity[f"f{i}"] = draw(st.integers(1, 2))
    # lowest rank first; a is the lowest, so every higher lhs head has a
    # constant below it
    names = ["a"] + draw(st.permutations(sorted(arity)[1:]))

    def term(depth, xs, below):
        leaves = [n for n in below if not arity[n]] + xs
        heads = [n for n in below if arity[n]]
        if depth == 0 or not heads or draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(leaves or ["a"]))
        head = draw(st.sampled_from(heads))
        args = [term(depth - 1, xs, below) for _ in range(arity[head])]
        return f"{head}({', '.join(args)})"

    lines = ["symbol o : * ."]
    lines += [f"symbol {n} : " + "o -> " * arity[n] + "o ."
              for n in sorted(arity)]
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, len(names) - 1))
        head = names[k]
        xs = ["x", "y"][:arity[head]]
        lhs = head
        if xs:
            lhs += f"({', '.join(term(1, [x], names) for x in xs)})"
        used = [x for x in xs if x in lhs]
        below = names[:k] if draw(st.integers(0, 4)) else names
        lines.append(f"rule {lhs} -> {term(2, used, below)} .")
    for k, g in enumerate(names):
        lines += [f"pragma prec {g} > {h} ." for h in names[:k]
                  if draw(st.integers(0, 7))]
    return ("\n".join(lines) + "\n", term(3, [], names),
            term(3, [], names))


def test_reachable_shape_closes_under_each_kind_of_step():
    # q -> p(a) puts its rhs in q's place under s; s(p(x)) -> x then
    # puts x's heads, a, in s's place under h; h(x) -> g(x) puts x's
    # heads under g, and a second round adds the a that came later
    from cac import load
    lf = load("symbol o : * .\nsymbol a : o .\nsymbol q : o .\n"
              "symbol p : o -> o .\nsymbol s : o -> o .\n"
              "symbol h : o -> o .\nsymbol g : o -> o .\n"
              "pragma prec q > p .\npragma prec q > a .\n"
              "pragma prec h > g .\n"
              "rule h(x) -> g(x) .\nrule q -> p(a) .\n"
              "rule s(p(x)) -> x .\n")
    shape = ReachableShape([sy("h", sy("s", sy("q")))], lf.rules)
    assert shape.symbols == {"h", "s", "q", "p", "a", "g"}
    assert shape.below == {("h", 1): {"s", "a"}, ("s", 1): {"q", "p"},
                           ("p", 1): {"a"}, ("g", 1): {"s", "a"}}
    x = Var(v("x"))
    assert shape.fits(sy("s", sy("p", x))) and shape.fits(x)
    assert not shape.fits(sy("p", sy("s", x)))
    assert not shape.fits(sy("g", sy("g", x)))


def expansion(t, rules, data):
    """t with a subterm s replaced by an instance of a rule's lhs that
    steps to s at its root, its other variables set to a; t when no
    rule's rhs matches a subterm of t."""
    sites = []
    for p, s in occurrences(t):
        for r in rules:
            sigma = ({r.rhs.var: s} if isinstance(r.rhs, Var)
                     else match_first_order(r.rhs, s))
            if sigma is not None:
                sites.append((p, r, sigma))
    if not sites:
        return t
    p, r, sigma = sites[data.draw(st.integers(0, len(sites) - 1))]
    for x in free_vars(r.lhs) - sigma.keys():
        sigma[x] = sy("a")
    return replace_at(t, p, subst_apply(r.lhs, sigma))


def test_normal_forms_agree_with_the_search_where_no_unjoined_peak_fits():
    # wherever a conversion compares normal forms without a positive A1,
    # the search agrees when it answers at fuel 10^5.  t is a random
    # term or, a third of the time, one or two expansions of a ground
    # instance of a pair's peak that A1 did not show joined, so that the
    # peak arises only after a step; u is a random term or a reduct of
    # t, so both answers occur
    from cac import TypeChecker, load
    from cac.cli import _parse_expr
    seen = dict.fromkeys(("unknown", "applied", True, False), 0)

    @settings(derandomize=True, max_examples=400, deadline=None,
              database=None)
    @given(algebraic_systems(), st.data())
    def agree(system, data):
        source, t_text, u_text = system
        try:
            lf = load(source)
        except CacError:  # a rule the loader refuses
            return
        a1 = confluence_check(lf.rules, Orientation(lf.signature), 10000)
        if a1.unjoined is None:  # not every rule is oriented by RPO
            return
        t, u = _parse_expr(lf, t_text), _parse_expr(lf, u_text)
        steps = 3
        if a1.unjoined and data.draw(st.integers(0, 2)) == 0:
            cp = a1.unjoined[data.draw(
                st.integers(0, len(a1.unjoined) - 1))]
            xs = dict.fromkeys(w.var for _, w in occurrences(cp.peak)
                               if isinstance(w, Var))  # in prefix order
            t = subst_apply(cp.peak, {x: sy(data.draw(st.sampled_from("ab")))
                                      for x in xs})
            for _ in range(data.draw(st.integers(1, 2))):
                t = expansion(t, lf.rules, data)
            steps = 30  # u a normal form of t, on a random path
        if steps == 30 or data.draw(st.booleans()):
            u = t
            for _ in range(data.draw(st.integers(1, steps))):
                reducts = reference_reduce_one(u, lf.rules)
                if reducts:
                    u = reducts[data.draw(st.integers(0, len(reducts) - 1))]
        # every symbol and edge of a reduct is in the shape
        shape = ReachableShape((t, u), lf.rules)
        todo, reached = [t, u], {t, u}
        while todo and len(reached) < 100:
            w = todo.pop()
            assert shape.fits(w), (source, pp(t), pp(u), pp(w))
            for r in reference_reduce_one(w, lf.rules):
                if r not in reached:
                    reached.add(r)
                    todo.append(r)
        if a1.positive:
            return
        seen["unknown"] += 1
        tc = TypeChecker(lf.signature, lf.rules, 10000, a1)
        if not tc._confluent_on(t, u):
            return
        seen["applied"] += 1
        try:
            by_normal_forms = tc.normal_form(t) == tc.normal_form(u)
            searched = joinable(t, u, lf.rules, 10 ** 5, terminating=False,
                                by_normal_forms=False)
        except FuelExhausted:
            return
        assert by_normal_forms == searched, (source, pp(t), pp(u))
        seen[searched] += 1

    agree()
    # of the systems whose A1 is UNKNOWN under an RPO trace, the shortcut
    # applied to at least a quarter, and both answers occur
    assert seen["applied"] * 4 >= seen["unknown"] > 50, seen
    assert min(seen[True], seen[False]) >= 5, seen
