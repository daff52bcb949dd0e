"""The first-order rule walks against the recursive ones they replaced.

`ref_reducts`, `ref_match`, `ref_unify` (with `ref_walk`, `ref_occurs`
and `ref_resolve`), `ref_replace_at` and `ref_derived_type` are the
recursive generator chain, matcher, triangular unifier, position
replacement and derived type that `rewriting._reducts`,
`match_first_order`, `unify`, `terms.replace_at` and
`schema.typed_subterms` replaced, kept here to compare against; so are
the well-formed rule test and S5's parameter test, taking each derived
type from `ref_derived_type` position by position.  Every case must
give the same terms in the same order, with the same binder hints, the
same bindings in the same order, or the same error class, code and
message.  The depth tests at the end fail with the recursive walks,
which stop near 990 levels."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cac.terms
from cac import (Environment, RewriteRule, STAR, Signature, Symb,
                 TypeChecker, Var, Variable, check_type_preservation,
                 check_well_formed, load, match_first_order, pp, step,
                 translate_inductive, unify)
from cac.admissibility import (ConditionResult, Outcome, S5_SUFFICIENT,
                               S5_VACUOUS, _parameter_linked)
from cac.rewriting import RuleError, RuleSet, _reducts, _RuleFields
from cac.schema import (AccPair, AccessWitness, SchemaError, WellFormedness,
                        acc_reachable, typed_subterms)
from cac.terms import (Abs, App, BVar, CacError, EPSILON, InvalidPosition,
                       Prod, Sort, SortT, _children, _rebuild, close,
                       occurrences, open_, open_fresh, replace_at,
                       subst_apply)
from tests.conftest import _unless_recursion_error, reference_reduce_one
from tests.test_admissibility import first_order_systems
from tests.test_cic import list_decl


# ---------------------------------------------------------------------------
# the references


def ref_match(pattern, subject, sigma=None):
    if sigma is None:
        sigma = {}
    if isinstance(pattern, Var):
        bound = sigma.get(pattern.var)
        if bound is None:
            sigma[pattern.var] = subject
            return sigma
        return sigma if bound == subject else None
    if isinstance(pattern, Symb):
        if not (isinstance(subject, Symb) and subject.name == pattern.name
                and len(subject.args) == len(pattern.args)):
            return None
        for p, s in zip(pattern.args, subject.args):
            if ref_match(p, s, sigma) is None:
                return None
        return sigma
    raise RuleError("bad-pattern", "pattern must be algebraic")


def ref_walk(t, sigma):
    while isinstance(t, Var) and t.var in sigma:
        t = sigma[t.var]
    return t


def ref_occurs(v, t, sigma):
    t = ref_walk(t, sigma)
    if isinstance(t, Var):
        return t.var == v
    if isinstance(t, Symb):
        return any(ref_occurs(v, a, sigma) for a in t.args)
    return False


def ref_resolve(t, sigma):
    t = ref_walk(t, sigma)
    if isinstance(t, Symb):
        return Symb(t.name, tuple(ref_resolve(a, sigma) for a in t.args))
    return t


def ref_unify(a, b):
    sigma = {}
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        x, y = ref_walk(x, sigma), ref_walk(y, sigma)
        if isinstance(x, Var) and isinstance(y, Var) and x.var == y.var:
            continue
        if isinstance(y, Var) and not isinstance(x, Var):
            x, y = y, x
        if isinstance(x, Var):
            if ref_occurs(x.var, y, sigma):
                return None
            sigma[x.var] = y
        elif isinstance(x, Symb) and isinstance(y, Symb) \
                and x.name == y.name and len(x.args) == len(y.args):
            todo += reversed(tuple(zip(x.args, y.args)))
        else:
            return None
    return {v: ref_resolve(u, sigma) for v, u in sigma.items()}


def ref_root_reducts(t, rules):
    if isinstance(t, Symb):
        for rule in rules.by_head.get(t.name, ()):
            sigma = ref_match(rule.lhs, t)
            if sigma is not None:
                yield subst_apply(rule.rhs, sigma)
    elif isinstance(t, App) and isinstance(t.head, Abs):
        yield open_(t.head.body, t.arg)


def ref_reducts(t, rules):
    if isinstance(t, Symb):
        if t.name in rules.by_head:
            yield from ref_root_reducts(t, rules)
        args = t.args
        for i, a in enumerate(args):
            for r in ref_reducts(a, rules):
                yield Symb(t.name, args[:i] + (r,) + args[i + 1:])
    elif isinstance(t, App):
        if isinstance(t.head, Abs):
            yield from ref_root_reducts(t, rules)
        for r in ref_reducts(t.head, rules):
            yield App(r, t.arg)
        for r in ref_reducts(t.arg, rules):
            yield App(t.head, r)
    elif isinstance(t, (Abs, Prod)):
        node = type(t)
        raw = t.body if node is Abs else t.codomain
        for r in ref_reducts(t.domain, rules):
            yield node(r, raw, t.hint)
        v, body = open_fresh(t)
        for r in ref_reducts(body, rules):
            yield node(t.domain, close(r, v), t.hint)


def ref_replace_at(t, p, u):
    if p == EPSILON:
        return u
    i = p[0]
    kids = _children(t)
    if not 1 <= i <= len(kids):
        raise InvalidPosition(t, p)
    kids[i - 1] = ref_replace_at(kids[i - 1], p[1:], u)
    return _rebuild(t, kids)


def ref_derived_type(l, p, sig):
    if p == EPSILON:
        raise InvalidPosition(l, p)
    if not isinstance(l, Symb):
        raise SchemaError("bad-path",
                          f"derived type requires a symbol node, found {l}")
    decl = sig.decls.get(l.name)
    if decl is None:
        raise SchemaError("unknown-symbol", f"undeclared symbol {l.name}")
    i = p[0]
    if not 1 <= i <= len(l.args):
        raise InvalidPosition(l, p)
    if len(p) == 1:
        gamma = decl.inst(l.args)
        return subst_apply(decl.binders[i - 1][1], gamma)
    return ref_derived_type(l.args[i - 1], p[1:], sig)


def ref_positions(l, x):
    """The positions of the variable x in l, sorted."""
    return sorted(p for p, u in occurrences(l)
                  if isinstance(u, Var) and u.var == x)


def ref_subterm_at(l, p):
    for i in p:
        l = _children(l)[i - 1]
    return l


def ref_well_formed(rule, sig):
    l = rule.lhs
    decl = sig.decls.get(l.name)
    if decl is None:
        return WellFormedness(False, {}, [f"undeclared head symbol {l.name}"])
    gamma = decl.inst(l.args)
    witnesses, failures = {}, []
    for x, xtyp in rule.ann_env:
        for p in ref_positions(l, x):
            try:
                tau = ref_derived_type(l, p, sig)
            except CacError:
                continue
            if subst_apply(tau, rule.ann_subst) != xtyp:
                continue
            i = p[0]
            reach = acc_reachable(AccPair(
                l.args[i - 1], subst_apply(decl.binders[i - 1][1], gamma)),
                sig)
            if AccPair(Var(x), tau) in reach:
                witnesses[x] = AccessWitness(x, i, p, tau)
                break
        else:
            failures.append(
                f"{rule.name}: variable {x} has no accessible occurrence "
                f"in the left-hand side with derived type matching {xtyp}")
    return WellFormedness(not failures, witnesses, failures)


def ref_index_linked(lhs, xp, image, sig):
    head_decl = sig.decls[lhs.name]
    for i, arg in enumerate(lhs.args, start=1):
        if not (isinstance(arg, Var) and arg.var == xp):
            continue
        xi = head_decl.binders[i - 1][0]
        for i2, (_, t2) in enumerate(head_decl.binders, start=1):
            if i2 == i or not isinstance(t2, Symb):
                continue
            ks = [k for k, targ in enumerate(t2.args, start=1)
                  if isinstance(targ, Var) and targ.var == xi]
            actual = lhs.args[i2 - 1]
            if not ks or not isinstance(actual, Symb):
                continue
            d2 = sig.decls.get(actual.name)
            if d2 is None or not isinstance(d2.output, Symb) \
                    or d2.output.name != t2.name:
                continue
            g2 = d2.inst(actual.args)
            for k in ks:
                if k <= len(d2.output.args) and subst_apply(
                        d2.output.args[k - 1], g2) == image:
                    return True
    return False


def ref_parameter_linked(lhs, xp, image, sig):
    if ref_index_linked(lhs, xp, image, sig):
        return True
    for p in ref_positions(lhs, xp):
        q, j = p[:-1], p[-1]
        holder = ref_subterm_at(lhs, q)
        decl = sig.decls.get(holder.name)
        if decl is None or not isinstance(decl.output, Symb):
            continue
        yj = decl.binders[j - 1][0]
        k = next((i for i, v in enumerate(decl.output.args, start=1)
                  if isinstance(v, Var) and v.var == yj), None)
        if k is None:
            continue
        try:
            tau = ref_derived_type(lhs, q, sig)
        except CacError:  # such as the root's, for a top-level p
            continue
        if isinstance(tau, Symb) and len(tau.args) >= k \
                and tau.args[k - 1] == image:
            return True
    return False


def ref_s5(rule, sig):
    rho = rule.ann_subst
    if not rho:
        return S5_VACUOUS
    unlinked = [xp for xp, image in sorted(rho.items(),
                                           key=lambda kv: kv[0].name)
                if not ref_parameter_linked(rule.lhs, xp, image, sig)]
    if not unlinked:
        return S5_SUFFICIENT
    return ConditionResult("s5", Outcome.FAIL, "no parameter linkage for "
                           + ", ".join(v.name for v in unlinked))


# ---------------------------------------------------------------------------
# helpers


def exact(t):
    """t as nested tuples with everything a term holds, binder hints and
    variable names included."""
    cls = t.__class__
    if cls is Symb:
        return ("Symb", t.name, tuple(exact(a) for a in t.args))
    if cls is Var:
        return ("Var", t.var.id, t.var.sort, t.var.name)
    if cls is BVar:
        return ("BVar", t.index)
    if cls is SortT:
        return ("SortT", t.sort)
    return (cls.__name__, getattr(t, "hint", None),
            tuple(exact(c) for c in _children(t)))


def outcome(f, *args):
    """f's result, or the class, code and message of the error it
    raised."""
    try:
        return "ok", f(*args)
    except CacError as e:
        return "error", (type(e), e.code, e.message)


def same_outcome(got, want):
    if got[0] == "error" or want[0] == "error":
        return got == want
    return exact(got[1]) == exact(want[1])


def fresh_made(f, *args):
    """f's result and the number of fresh variables it made."""
    before = next(cac.terms._var_ids)
    result = f(*args)
    return result, next(cac.terms._var_ids) - before - 1


def sy(name, *args):
    return Symb(name, tuple(args))


def tower(name, d, bottom):
    for _ in range(d):
        bottom = sy(name, bottom)
    return bottom


X, Y, Z, W = (Var(Variable.fresh(n, Sort.STAR)) for n in "XYZW")
P = Var(Variable.fresh("P", Sort.BOX))


def rules_with_overlaps():
    """Root overlaps, self-overlaps, a non-left-linear rule, a constant
    with a rule, and right-hand sides that build binders and beta-redexes."""
    x, y = X, Y
    return RuleSet([
        RewriteRule("f1", sy("f", x, y), sy("g", x)),
        RewriteRule("f2", sy("f", sy("a"), y), y),
        RewriteRule("g1", sy("g", sy("g", x)), x),
        RewriteRule("h1", sy("h", x, x), sy("a")),
        RewriteRule("a1", sy("a"), sy("b")),
        RewriteRule("g2", sy("g", sy("a")), sy("h", sy("a"), sy("a"))),
        RewriteRule("k1", sy("k", x),
                    App(Abs(STAR, sy("s", BVar(0)), "w"), x)),
        RewriteRule("k2", sy("k", x), Prod(x, sy("g", BVar(0)), "u")),
    ])


HINTS = ("x", "y", "z", "_")


def random_term(rng, depth, bound=0):
    """A locally closed term over the symbols of `rules_with_overlaps`
    with binders, beta-redexes and equal argument pairs."""
    if depth == 0 or rng.random() < 0.2:
        k = rng.randrange(6 if bound else 5)
        if k == 5:
            return BVar(rng.randrange(bound))
        return (rng.choice((X, Y, P)), STAR, sy("a"), sy("b"), sy("c"))[k]
    k = rng.randrange(11)
    d = depth - 1
    if k < 3:
        return sy(("g", "k", "s")[k], random_term(rng, d, bound))
    if k < 5:
        return sy(("f", "h")[k - 3], random_term(rng, d, bound),
                  random_term(rng, d, bound))
    if k == 5:  # two equal arguments, as distinct objects
        state = rng.getstate()
        u = random_term(rng, d, bound)
        rng.setstate(state)
        return sy("h", u, random_term(rng, d, bound))
    if k == 6:
        return App(random_term(rng, d, bound), random_term(rng, d, bound))
    node = Abs if k in (7, 8) else Prod
    binder = node(random_term(rng, rng.randrange(d + 1), bound),
                  random_term(rng, d, bound + 1), rng.choice(HINTS))
    if k == 8:  # a beta-redex
        return App(binder, random_term(rng, d, bound))
    return binder


def random_algebraic(rng, depth):
    """An algebraic term over f, g, a, b and the variables X, Y, Z, W."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((X, Y, Z, W, sy("a"), sy("b")))
    if rng.random() < 0.5:
        return sy("g", random_algebraic(rng, depth - 1))
    return sy("f", random_algebraic(rng, depth - 1),
              random_algebraic(rng, depth - 1))


# ---------------------------------------------------------------------------
# differential tests

TERMS_PER_EXAMPLE = 10
PAIRS_PER_EXAMPLE = 25


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.randoms(use_true_random=True))
def test_reducts_match_the_generator_chain(rng):
    # 2,000 terms: every reduct in order, equal, with the same text, and
    # step opens the same binders as the chain's first reduct did
    rules = rules_with_overlaps()
    for _ in range(TERMS_PER_EXAMPLE):
        t = random_term(rng, rng.randrange(1, 6))
        got = list(_reducts(t, rules))
        want = list(ref_reducts(t, rules))
        assert [exact(r) for r in got] == [exact(r) for r in want], pp(t)
        assert [pp(r) for r in got] == [pp(r) for r in want]
        first, made = fresh_made(step, t, rules)
        ref_first, ref_made = fresh_made(next, ref_reducts(t, rules), None)
        assert made == ref_made
        assert (first is None and ref_first is None
                or exact(first) == exact(ref_first))


def test_reducts_cover_every_kind_of_step():
    # the generator reaches every rule, beta, and redexes under binders
    rules = rules_with_overlaps()
    rng = random.Random(29)
    fired, under_binder = set(), 0
    for _ in range(500):
        t = random_term(rng, rng.randrange(1, 6))
        for p, u in occurrences(t):
            if isinstance(u, Symb):
                fired.update(r.name for r in rules.by_head.get(u.name, ())
                             if ref_match(r.lhs, u) is not None)
            elif isinstance(u, App) and isinstance(u.head, Abs):
                fired.add("beta")
        under_binder += isinstance(t, (Abs, Prod)) and step(t, rules) \
            is not None
    assert fired == {r.name for r in rules} | {"beta"}
    assert under_binder >= 10


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.randoms(use_true_random=True))
def test_unify_and_match_agree_with_the_references(rng):
    # 5,000 pairs sharing their variables: same keys in the same order,
    # equal images, or None from both
    for _ in range(PAIRS_PER_EXAMPLE):
        a = random_algebraic(rng, rng.randrange(4))
        b = random_algebraic(rng, rng.randrange(4))
        got, want = unify(a, b), ref_unify(a, b)
        assert (got is None) == (want is None), (a, b)
        if got is not None:
            assert list(got) == list(want)
            assert all(got[v] == want[v] for v in got)
        if rng.random() < 0.5:  # a subject that is often an instance
            theta = {v.var: random_term(rng, 2) for v in (X, Y, Z)
                     if rng.random() < 0.8}
            b = subst_apply(a, theta)
            if rng.random() < 0.3:
                b = replace_at(b, rng.choice([p for p, _ in occurrences(b)]),
                               random_term(rng, 2))
        if rng.random() < 0.1:  # a pattern that is not algebraic
            a = replace_at(a, rng.choice([p for p, _ in occurrences(a)]),
                           App(sy("a"), X))
        got, want = outcome(match_first_order, a, b), outcome(ref_match, a, b)
        assert got[0] == want[0]
        if got[0] == "error" or got[1] is None or want[1] is None:
            assert got == want
        else:
            assert list(got[1]) == list(want[1])
            assert all(got[1][v] == want[1][v] for v in got[1])


def test_unify_meets_clashes_occurs_checks_and_chains():
    f, g, a, b = (lambda s, t: sy("f", s, t)), (lambda s: sy("g", s)), \
        sy("a"), sy("b")
    cases = [(X, g(X)), (f(X, Y), f(Y, g(X))), (f(X, a), f(b, Y)),
             (f(X, X), f(Y, g(Y))), (f(X, Y), f(Y, Z)),
             (f(f(X, Y), Z), f(Z, f(W, a))), (g(X), f(X, X))]
    outcomes = set()
    for s, t in cases:
        got, want = unify(s, t), ref_unify(s, t)
        outcomes.add(got is None)
        assert (got is None) == (want is None)
        if got is not None:
            assert list(got) == list(want)
            assert all(got[v] == want[v] for v in got)
    assert outcomes == {True, False}


def test_match_refuses_a_pattern_that_is_not_algebraic():
    for pattern in (App(sy("a"), X), sy("f", X, Abs(STAR, BVar(0))), STAR):
        with pytest.raises(RuleError) as err:
            match_first_order(pattern, pattern)
        assert err.value.code == "bad-pattern"


def positions_to_try(t, rng):
    """Every position of t, and invalid ones next to them."""
    out = []
    for p, u in occurrences(t):
        n = len(_children(u))
        out += [p, p + (0,), p + (n + 1,)]
        if p:
            out.append(p[:-1] + (rng.randrange(-1, 4),))
    return out


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.randoms(use_true_random=True))
def test_replace_at_matches_the_recursive_reference(rng):
    for _ in range(5):
        t = random_term(rng, rng.randrange(0, 5))
        u = random_term(rng, 2)
        for p in positions_to_try(t, rng):
            assert same_outcome(outcome(replace_at, t, p, u),
                                outcome(ref_replace_at, t, p, u)), p


@pytest.fixture(scope="module")
def walks_file():
    return load("symbol o : * .\nsymbol n : * .\nsymbol zero : o .\n"
                "symbol s : o -> o .\nsymbol pair : o -> n -> o .\n"
                "symbol vec : o -> * .\nsymbol cons : (k : o) -> vec(k) -> "
                "vec(s(k)) .\nsymbol len : (k : o) -> vec(k) -> o .\n"
                "symbol c0 : vec(zero) .\n"
                "symbol poly : (A : *) -> A -> o -> o .\n")


def walk_reference(l, sig):
    """(position, subterm, derived type) at each proper position of l,
    in sorted position order, as `ref_derived_type` gives them."""
    return [(p, u, outcome(ref_derived_type, l, p, sig))
            for p, u in sorted(occurrences(l), key=lambda pu: pu[0]) if p]


def walk_outcomes(l, sig):
    return [(p, u, ("error", (type(tau), tau.code, tau.message))
             if isinstance(tau, CacError) else ("ok", tau))
            for p, u, tau in typed_subterms(l, sig)]


def same_walk(got, want):
    return len(got) == len(want) and all(
        p == q and u is w and same_outcome(a, b)
        for (p, u, a), (q, w, b) in zip(got, want))


def hand_made_sides(sig):
    """Left-hand sides that no loaded rule has: below an application, a
    binder or an undeclared symbol, the derived type fails; c0's type
    vec(zero) indexes len's second argument by its first, which is k,
    but not poly's, whose type is a variable of the telescope."""
    k = Var(Variable.fresh("k", Sort.STAR))
    return [sy("len", sy("s", k), sy("cons", k, Var(Variable.fresh("v")))),
            sy("len", k, sy("c0")), sy("poly", sy("vec", k), sy("c0"), k),
            sy("pair", sy("s", X), sy("nope", X, sy("s", X))),
            sy("pair", X, sy("nope", Y)),
            sy("pair", sy("s", sy("zero")), sy("nope", X)),
            sy("pair", App(X, sy("s", X)), Abs(STAR, X)),
            sy("pair", App(sy("zero"), X), Abs(STAR, BVar(0))),
            sy("nope", sy("s", X), X), sy("nope", sy("zero")), X]


def test_typed_walk_matches_derived_type(corpus, walks_file):
    from tests.test_acceptance import _synthetic
    terms = [(r.lhs, lf.signature)
             for lf in [*corpus.values(), load(_synthetic(20))]
             for r in lf.rules]
    sig = walks_file.signature
    terms += [(l, sig) for l in hand_made_sides(sig)]
    kinds = set()
    for l, sig in terms:
        want = walk_reference(l, sig)
        assert same_walk(walk_outcomes(l, sig), want), str(l)
        kinds.update(b[1][1] if b[0] == "error" else "ok" for _, _, b in want)
    assert kinds == {"ok", "bad-path", "unknown-symbol"}


def same_well_formed(rule, sig):
    got, want = check_well_formed(rule, sig), ref_well_formed(rule, sig)
    return (got.ok == want.ok and got.failures == want.failures
            and list(got.witnesses) == list(want.witnesses)
            and all(exact(a.derived) == exact(b.derived) and a[:3] == b[:3]
                    for a, b in zip(got.witnesses.values(),
                                    want.witnesses.values())))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(first_order_systems())
def test_typed_walk_matches_derived_type_on_generated_systems(src):
    lf = load(src)
    for r in lf.rules:
        assert same_walk(walk_outcomes(r.lhs, lf.signature),
                         walk_reference(r.lhs, lf.signature)), src
        assert same_well_formed(r, lf.signature), src


def reference_rules(corpus, walks_file):
    """The rule systems of the corpus, synthetic(20) and the recursors
    of a polymorphic list, whose substitutions S5 links through the
    index of an lhs argument's type, as (signature, rules) pairs; and
    their rules, each with its signature, followed by two rules for
    each hand-made side but the bare variable: in one, each variable is
    typed as at its first occurrence (or o), in the other as n, and in
    both one more variable does not occur."""
    from tests.test_acceptance import _synthetic
    systems = [(lf.signature, lf.rules)
               for lf in [*corpus.values(), load(_synthetic(20))]]
    sig = Signature()
    systems.append((sig, translate_inductive(list_decl(), sig).rules))
    rules = [(r, sig) for sig, rs in systems for r in rs]
    sig = walks_file.signature
    o = sy("o")
    for n, l in enumerate(hand_made_sides(sig)[:-1]):
        first = {}
        for p, u, tau in walk_reference(l, sig):
            if isinstance(u, Var):
                first.setdefault(u.var, tau[1] if tau[0] == "ok" else o)
        for name, types in ((f"h{n}", first), (f"h{n}n", dict.fromkeys(
                first, sy("n")))):
            env = Environment.of([*types.items(), (Variable.fresh("w"), o)])
            rules.append((_RuleFields.__new__(RewriteRule, name, l, l, env,
                                              {}), sig))
    return systems, rules


def test_well_formed_matches_the_derived_type_reference(corpus, walks_file):
    witnessed = set()
    for r, sig in reference_rules(corpus, walks_file)[1]:
        assert same_well_formed(r, sig), r.name
        witnessed.add(bool(check_well_formed(r, sig).witnesses))
    assert witnessed == {True, False}


def test_s5_matches_the_derived_type_reference(corpus, walks_file):
    # app.cac is the corpus file whose substitutions reach the S5 walk
    systems, rules = reference_rules(corpus, walks_file)
    outcomes = set()
    for sig, system in systems:
        tc = TypeChecker(sig, system)
        for r in system:
            got = check_type_preservation(r, tc)["s5"]
            assert got == ref_s5(r, sig), r.name
            outcomes.add(got.outcome)
    assert outcomes == {Outcome.PASS, Outcome.PASS_SUFFICIENT}
    # S5's test for each lhs variable against each argument of a
    # derived type there and each constant, where the lhs is algebraic
    # and its head is declared, as a checked rule's are
    links = set()
    for r, sig in rules:
        if not cac.terms.is_algebraic(r.lhs) or r.head_name() not in sig.decls:
            continue
        typed = {p: (u, tau) for p, u, tau in typed_subterms(r.lhs, sig)}
        images = {a for _, tau in typed.values()
                  if isinstance(tau, Symb) for a in tau.args}
        images.update(sy(c) for c, d in sig.decls.items() if d.arity == 0)
        for x in {u.var for u, _ in typed.values() if isinstance(u, Var)}:
            for image in images:
                got = _parameter_linked(r.lhs, typed, x, image, sig)
                assert got == ref_parameter_linked(r.lhs, x, image, sig), \
                    (r.name, x, image)
                links.add(got)
    assert links == {True, False}


# ---------------------------------------------------------------------------
# depth: each of these raises RecursionError in the recursive walks, which
# `deep` turns into a plain value, so that such a failure is quick to report

DEEP = 2000


def deep(f, *args):
    return _unless_recursion_error(outcome, f, *args)


@pytest.fixture(scope="module")
def deep_rules():
    x = Var(Variable.fresh("x"))
    return [RewriteRule("z", sy("f", x), sy("zero")),
            RewriteRule("i", sy("f", x), x)]


def test_step_reaches_a_redex_2000_deep(deep_rules):
    t = tower("succ", DEEP, sy("f", sy("zero")))
    got = deep(step, t, deep_rules[:1])
    assert got[0] == "ok" and got[1] == tower("succ", DEEP, sy("zero"))


def test_reduce_one_of_a_redex_over_a_2000_deep_argument(deep_rules):
    n = tower("succ", DEEP, sy("zero"))
    got = deep(reference_reduce_one, sy("f", n), deep_rules)
    assert got[0] == "ok" and len(got[1]) == 2
    assert got[1][0] == sy("zero") and got[1][1] is n


def test_unify_of_terms_2000_deep():
    d = tower("s", DEEP, sy("zero"))
    got = deep(unify, sy("f", d, X), sy("f", tower("s", DEEP, sy("zero")), d))
    assert got[0] == "ok" and list(got[1]) == [X.var] and got[1][X.var] is d
    assert deep(unify, X, tower("s", DEEP, X)) == ("ok", None)
    assert deep(unify, tower("s", DEEP, X), tower("s", DEEP, sy("a"))) \
        == ("ok", {X.var: sy("a")})


def test_replace_at_a_position_2000_long():
    t = tower("succ", DEEP, sy("zero"))
    got = deep(replace_at, t, (1,) * DEEP, sy("one"))
    assert got[0] == "ok" and got[1] == tower("succ", DEEP, sy("one"))
    assert deep(replace_at, t, (1,) * DEEP + (1,), sy("one")) \
        == ("error", (InvalidPosition, "invalid-position",
                      "position (1,) not in zero"))


def test_typed_walk_2000_deep(walks_file):
    sig = walks_file.signature
    got = deep(list, typed_subterms(tower("s", DEEP, sy("zero")), sig))
    assert got[0] == "ok" and len(got[1]) == DEEP
    assert [p for p, _, _ in got[1]] == [(1,) * d for d in range(1, DEEP + 1)]
    assert got[1][-1][1:] == (sy("zero"), sy("o"))
    bottom = App(X, sy("zero"))
    got = deep(list, typed_subterms(tower("s", DEEP, bottom), sig))
    assert got[0] == "ok" and len(got[1]) == DEEP + 2
    assert got[1][DEEP - 1][1:] == (bottom, sy("o"))
    p, u, tau = got[1][DEEP]
    assert p == (1,) * (DEEP + 1) and u is X
    assert (tau.code, tau.message) == (
        "bad-path", "derived type requires a symbol node, found X zero")
