"""The recursive path order and the precedence it reads: the memoized
order and the ranked `Precedence.gt` against naive references kept
here, and one orientation per rule and one typing context per
admissibility run."""

import random

import cac.orderings
from cac import (Orientation, Precedence, Symb, TypeChecker, Var, Variable,
                 check_admissible, load, rpo_greater)
from cac.terms import free_vars, is_algebraic
from tests.conftest import CORPUS, plus_family_source


def reference_rpo(prec, s, t):
    """s >_rpo t exactly as the order was first written: no memo, so a
    pair of subterms is decided again each time the recursion meets it."""
    if s == t:
        return False
    if isinstance(t, Var):
        return t.var in free_vars(s)
    if isinstance(s, Var):
        return False
    if any(si == t or reference_rpo(prec, si, t) for si in s.args):
        return True
    if prec.gt(s.name, t.name):
        return all(reference_rpo(prec, s, tj) for tj in t.args)
    if s.name == t.name or prec.eq(s.name, t.name):
        for si, ti in zip(s.args, t.args):
            if si == ti:
                continue
            if reference_rpo(prec, si, ti):
                return all(reference_rpo(prec, s, tj) for tj in t.args)
            return False
        if len(s.args) > len(t.args):
            return all(reference_rpo(prec, s, tj) for tj in t.args)
    return False


def reference_gt(prec, a, b):
    """a >_F b by a fresh depth-first search over the strict class edges."""
    ra, rb = prec.find(a), prec.find(b)
    if ra == rb:
        return False
    edges = prec._strict_edges()
    seen, stack = {ra}, [ra]
    while stack:
        u = stack.pop()
        for x, y in edges:
            if x == u and y not in seen:
                if y == rb:
                    return True
                seen.add(y)
                stack.append(y)
    return False


ARITY = {"a": 0, "b": 0, "s": 1, "g": 1, "f": 2, "h": 2, "k": 3}


def random_quasi_precedence(rng):
    """A precedence over ARITY's symbols with `=` classes and strict
    edges only from a higher level to a lower one, so it is acyclic."""
    names = sorted(ARITY)
    level = {n: rng.randrange(4) for n in names}
    prec = Precedence()
    for x in names:
        for y in names:
            if x < y and level[x] == level[y] and rng.random() < 0.4:
                prec.add_eq(x, y)
            if level[x] > level[y] and rng.random() < 0.5:
                prec.add_gt(x, y)
    return prec


def random_term(rng, depth, xs, pool):
    """A random algebraic term; some subterms are nodes already built,
    so one node can sit at several positions of s and t."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var(rng.choice(xs))
        name = rng.choice(["a", "b"])
    else:
        name = rng.choice(sorted(n for n in ARITY if ARITY[n]))
    t = Symb(name, tuple(random_term(rng, depth - 1, xs, pool)
                         for _ in range(ARITY[name])))
    pool.append(t)
    return t


def test_rpo_matches_reference_on_random_pairs():
    rng = random.Random(11)
    xs = [Variable.fresh(n) for n in "xyz"]
    outcomes = {True: 0, False: 0}
    for trial in range(3000):
        prec = random_quasi_precedence(rng)
        pool = []
        s = random_term(rng, 1 + trial % 4, xs, pool)
        t = random_term(rng, 1 + trial % 4, xs, pool)
        for u, w in ((s, t), (t, s), (s, s)):
            expected = reference_rpo(prec, u, w)
            assert rpo_greater(prec, u, w) == expected, (str(u), str(w))
            outcomes[expected] += 1
    # both answers are well represented, so neither side is vacuous
    assert min(outcomes.values()) > 1000


def test_rpo_matches_reference_on_every_corpus_rule():
    compared = 0
    for path in sorted(CORPUS.glob("*.cac")):
        lf = load(path.read_text(encoding="utf-8"))
        prec = lf.signature.precedence
        for r in lf.rules:
            if is_algebraic(r.lhs) and is_algebraic(r.rhs):
                for u, w in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
                    assert rpo_greater(prec, u, w) \
                        == reference_rpo(prec, u, w), (path.stem, r.name)
                    compared += 1
    assert compared == 34   # 17 algebraic rules, both ways round


def test_precedence_gt_matches_reference_between_pragmas():
    rng = random.Random(12)
    names = [f"p{i}" for i in range(12)]
    answers = {True: 0, False: 0}
    for trial in range(150):
        prec = Precedence()
        level = {n: rng.randrange(6) for n in names}
        acyclic = trial % 5 != 0     # one trial in five may have cycles
        for _ in range(25):
            x, y = rng.sample(names, 2)
            op = rng.random()
            if op < 0.15 and (not acyclic or level[x] == level[y]):
                prec.add_eq(x, y)
            elif not acyclic or level[x] > level[y]:
                (prec.add_gt if op < 0.75 else prec.add_default_gt)(x, y)
            # queries after every pragma, so that a rank or a search
            # left over from the previous pragma state would answer
            for _ in range(8):
                a, b = rng.choice(names), rng.choice(names)
                expected = reference_gt(prec, a, b)
                assert prec.gt(a, b) == expected, (trial, a, b)
                answers[expected] += 1
        if acyclic:
            assert prec.find_cycle() is None
    assert min(answers.values()) > 2000


def test_gt_below_by_rank_needs_no_search():
    # a descending chain: a class never reaches one of a higher rank,
    # so asking upwards starts no search
    prec = Precedence()
    for i in range(1, 400):
        prec.add_gt(f"P{i}", f"P{i - 1}")
    assert not any(prec.gt(f"P{i - 1}", f"P{i}") for i in range(1, 400))
    assert prec._reach == {}
    assert prec.gt("P399", "P0") and not prec.gt("P0", "P399")


def test_rpo_orients_a_long_plus_rule():
    # exponential without the memo: about 24 million calls at k = 20
    lf = load(plus_family_source(30))
    trace = Orientation(lf.signature).terminates(lf.rules)
    assert trace is not None and trace[0].startswith(
        f"{lf.rules[0].name}: plus(")


def test_each_rule_is_oriented_once_per_admissibility_run(monkeypatch):
    # int is not orthogonal, so A1, the partition and A4 all need the
    # orientation of every rule
    lf = load((CORPUS / "int.cac").read_text(encoding="utf-8"))
    oriented = []
    real = cac.orderings.orient

    def counting(prec, rule):
        oriented.append(rule.name)
        return real(prec, rule)

    monkeypatch.setattr(cac.orderings, "orient", counting)
    report = check_admissible(lf.signature, lf.rules)
    assert report.a1.level.value == "NEWMAN"
    assert sorted(oriented) == sorted(r.name for r in lf.rules)


def test_one_type_checker_per_admissibility_run(monkeypatch):
    # A3, A4 and S1-S5 of every rule type in the run's one context; the
    # closure checkers of A3 and A4 are its subclass and are not counted
    lf = load((CORPUS / "int.cac").read_text(encoding="utf-8"))
    built = []
    real = TypeChecker.__init__

    def counting(self, *args, **kwargs):
        if type(self) is TypeChecker:
            built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(TypeChecker, "__init__", counting)
    report = check_admissible(lf.signature, lf.rules)
    assert len(report.s_conditions) == 4
    assert len(built) == 1


def test_orientation_is_none_under_a_cyclic_precedence():
    lf = load("symbol o : * .\nsymbol f : o -> o .\nsymbol g : o -> o .\n"
              "pragma prec f > g .\npragma prec g > f .\n"
              "rule f(x) -> g(x) .\n")
    table = Orientation(lf.signature)
    assert table.line(lf.rules[0]) is None
    assert table.terminates(lf.rules) is None
