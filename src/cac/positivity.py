"""Positive/negative occurrence positions, the admissibility conditions
on the declared inductive structure (I1-I6), and the classification of
free predicate symbols by the shape of their constructors' argument
types."""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .signature import Signature
from .terms import (Abs, App, BVar, EPSILON, Position, Prod, Sort, SortT,
                    Symb, Term, Var, free_vars, occurrences, positions,
                    positions_of, spine, symbols_of)


class PolarityReport(NamedTuple):
    subject: Term
    positive: FrozenSet[Position]
    negative: FrozenSet[Position]


def is_predicate_term(t: Term, sig: Optional[Signature] = None) -> bool:
    """Whether t lives at the predicate level (its type is a kind):
    decided from the head's declared sort class."""
    if isinstance(t, (SortT, Prod)):
        return True
    if isinstance(t, Var):
        return t.var.sort == Sort.BOX
    if isinstance(t, Symb):
        if sig is not None and t.name in sig.decls:
            return sig.decls[t.name].sort == Sort.BOX
        return False
    if isinstance(t, Abs):
        return is_predicate_term(t.body, sig)
    if isinstance(t, App):
        return is_predicate_term(spine(t)[0], sig)
    return False


def _prefixed(i: int, ps: FrozenSet[Position]) -> set:
    return {(i,) + p for p in ps}


def _polarity(u: Term, sig: Signature,
              free_set: FrozenSet[str]) -> Tuple[set, set]:
    """Returns (same-polarity set, flipped-polarity set) of u."""
    if isinstance(u, (SortT, Var, BVar)):
        return {EPSILON}, set()
    if isinstance(u, Symb):
        pos = {EPSILON}
        neg: set = set()
        if u.name in free_set:
            for i in sig.structure.ind_of(u.name):
                if 1 <= i <= len(u.args):
                    p, n = _polarity(u.args[i - 1], sig, free_set)
                    pos |= _prefixed(i, frozenset(p))
                    neg |= _prefixed(i, frozenset(n))
        return pos, neg
    if isinstance(u, Prod):
        dp, dn = _polarity(u.domain, sig, free_set)
        cp, cn = _polarity(u.codomain, sig, free_set)
        pos = {EPSILON} | _prefixed(1, frozenset(dn)) | _prefixed(2, frozenset(cp))
        neg = _prefixed(1, frozenset(dp)) | _prefixed(2, frozenset(cn))
        return pos, neg
    if isinstance(u, Abs):
        bp, bn = _polarity(u.body, sig, free_set)
        pos = {EPSILON} | _prefixed(1, set(positions(u.domain))) \
            | _prefixed(2, frozenset(bp))
        neg = _prefixed(2, frozenset(bn))
        return pos, neg
    if isinstance(u, App):
        hp, hn = _polarity(u.head, sig, free_set)
        pos = {EPSILON} | _prefixed(1, frozenset(hp))
        neg = _prefixed(1, frozenset(hn))
        if not is_predicate_term(u.arg, sig):
            pos |= _prefixed(2, set(positions(u.arg)))
        return pos, neg
    return {EPSILON}, set()


def polarity(t: Term, sig: Signature,
             free_predicates: Optional[FrozenSet[str]] = None) -> PolarityReport:
    """Positive and negative positions of t.

    The two sets follow the mutual definition: products flip the
    polarity of their domain; an application of a free predicate symbol
    with declared inductive positions propagates into exactly those
    arguments.  Positions reachable without a polarity (abstraction
    domains, object arguments of applications) are reported as positive
    so the two sets stay disjoint; no admissibility condition ever
    consults their sign, only membership in the positive set or
    emptiness of occurrence sets.
    """
    free_set = free_predicates
    if free_set is None:
        free_set = frozenset(n for n, d in sig.decls.items()
                             if d.sort == Sort.BOX)
    # at the root the same-polarity set is the positive one
    pos, neg = _polarity(t, sig, free_set)
    overlap = pos & neg
    assert not overlap, f"polarity sets overlap at {sorted(overlap)}"
    return PolarityReport(t, frozenset(pos), frozenset(neg))


# ---------------------------------------------------------------------------
# admissible inductive structure


class PredicateClass(enum.Enum):
    PRIMITIVE = "PRIMITIVE"
    BASIC = "BASIC"
    STRICTLY_POSITIVE = "STRICTLY_POSITIVE"
    GENERAL = "GENERAL"


class StructureViolation(NamedTuple):
    condition: str       # "I1" .. "I6"
    predicate: str       # the free predicate C
    constructor: str
    arg_index: Optional[int]   # the accessible j, when applicable
    detail: str

    def __str__(self):
        where = f", argument {self.arg_index}" if self.arg_index else ""
        return (f"{self.condition} violated for {self.predicate} at "
                f"constructor {self.constructor}{where}: {self.detail}")


def check_inductive_structure(sig: Signature,
                              rules=()) -> List[StructureViolation]:
    """All violations of the six structural conditions; empty means the
    declared (Ind, Acc) structure is admissible."""
    out: List[StructureViolation] = []
    frees = sig.free_predicate_symbols(rules)
    free_set = frozenset(frees)
    defined_preds = frozenset(sig.defined_predicate_symbols(rules))
    rank = {n: k for k, n in enumerate(sig.decls)}   # declaration order
    prec = sig.precedence

    for cname in frees:
        ind = sig.structure.ind_of(cname)
        for con in sig.constructors_of(cname):
            d = sig.decls[con]
            output = d.output
            assert isinstance(output, Symb) and output.name == cname
            vs = output.args
            # I1: inductive output arguments are predicate variables
            for i in ind:
                if not (1 <= i <= len(vs)):
                    out.append(StructureViolation(
                        "I1", cname, con, None,
                        f"inductive position {i} exceeds the output arity"))
                    continue
                vi = vs[i - 1]
                if not (isinstance(vi, Var) and vi.var.sort == Sort.BOX):
                    out.append(StructureViolation(
                        "I1", cname, con, None,
                        f"output argument {i} is {vi}, not a predicate variable"))
            binders = list(d.binders)
            for j in sorted(sig.structure.acc_of(con)):
                if not (1 <= j <= len(binders)):
                    out.append(StructureViolation(
                        "I2", cname, con, j,
                        "accessible index exceeds the arity"))
                    continue
                uj = binders[j - 1][1]
                rep = polarity(uj, sig, free_set)
                # I2: inductive-argument variables occur positively
                for i in ind:
                    if not (1 <= i <= len(vs)):
                        continue
                    vi = vs[i - 1]
                    if not isinstance(vi, Var):
                        continue
                    occ = positions_of(uj, vi.var)
                    bad = occ - rep.positive
                    if bad:
                        out.append(StructureViolation(
                            "I2", cname, con, j,
                            f"variable {vi} occurs non-positively at "
                            f"{sorted(bad)[0]} in {uj}"))
                # the positions of each symbol in uj, from one walk
                where: Dict[str, Set[Position]] = {}
                for p, s in occurrences(uj):
                    if isinstance(s, Symb):
                        where.setdefault(s.name, set()).add(p)
                # I3: equivalent free predicates occur positively
                # I4: strictly greater free predicates do not occur
                for e in sorted(free_set.intersection(where), key=rank.get):
                    occ = where[e]
                    if prec.eq(e, cname):
                        bad = occ - rep.positive
                        if bad:
                            out.append(StructureViolation(
                                "I3", cname, con, j,
                                f"equivalent predicate {e} occurs "
                                f"non-positively at {sorted(bad)[0]} in {uj}"))
                    elif prec.gt(e, cname):
                        out.append(StructureViolation(
                            "I4", cname, con, j,
                            f"greater predicate {e} occurs at "
                            f"{sorted(occ)[0]} in {uj}"))
                # I5: defined predicates do not occur
                for f in sorted(defined_preds.intersection(where),
                                key=rank.get):
                    out.append(StructureViolation(
                        "I5", cname, con, j,
                        f"defined predicate {f} occurs at "
                        f"{min(where[f])} in {uj}"))
                # I6: predicate free variables are output parameters
                for x in sorted(free_vars(uj, Sort.BOX),
                                key=lambda v: v.id):
                    if not any(isinstance(v, Var) and v.var == x for v in vs):
                        out.append(StructureViolation(
                            "I6", cname, con, j,
                            f"predicate variable {x} in {uj} is not a "
                            f"parameter of the output type {output}"))
    return out


def predicate_classes(sig: Signature,
                      rules=()) -> Dict[str, PredicateClass]:
    """Strongest shape class of every free predicate symbol.  A class
    quantifies over all equivalent predicates and their constructors'
    accessible argument types, so it is decided once per equivalence
    class; a primitive class may use basic classes strictly below it.
    A class met again while it is still being decided (which only a
    cyclic precedence allows) counts as not basic."""
    prec = sig.precedence
    frees = sig.free_predicate_symbols(rules)
    free_set = set(frees)
    members: Dict[str, Set[str]] = {}
    for d in frees:
        members.setdefault(prec.find(d), set()).add(d)
    decided: Dict[str, Optional[PredicateClass]] = {}  # None: in progress

    def shape(root: str):
        """Decides the class of root; yields each predicate whose class
        it needs and is sent that class back."""
        cls = members[root]

        def occurs(u: Term) -> bool:
            return not symbols_of(u).isdisjoint(cls)

        primitive = basic = strictly = True
        for dname in sorted(cls):
            for con in sig.constructors_of(dname):
                decl = sig.decls[con]
                for j in sorted(sig.structure.acc_of(con)):
                    if not (1 <= j <= decl.arity):
                        continue
                    uj = decl.binders[j - 1][1]
                    # primitive: U_j is E(t-vec) with E equivalent to D,
                    # or E basic and below D
                    e = uj.name if isinstance(uj, Symb) else None
                    if not (e in cls or e in free_set and prec.gt(dname, e)
                            and (yield e) in (PredicateClass.PRIMITIVE,
                                              PredicateClass.BASIC)):
                        primitive = False
                    if not occurs(uj):
                        continue
                    # basic: equivalent symbols occur only at the root
                    if e not in cls or any(map(occurs, uj.args)):
                        basic = False
                    # strictly positive: (z-vec:V-vec) E(t-vec), no
                    # equivalent symbol in the domains
                    core, domains = uj, []
                    while isinstance(core, Prod):
                        domains.append(core.domain)
                        core = core.codomain
                    if not (isinstance(core, Symb) and core.name in cls
                            and not any(map(occurs, domains))
                            and not any(map(occurs, core.args))):
                        strictly = False
        return (PredicateClass.PRIMITIVE if primitive and basic
                else PredicateClass.BASIC if basic
                else PredicateClass.STRICTLY_POSITIVE if strictly
                else PredicateClass.GENERAL)

    def decide(name: str) -> Optional[PredicateClass]:
        # an explicit stack of open classes, so a long descending chain
        # of predicates cannot overflow the interpreter's stack
        root = prec.find(name)
        if root not in decided:
            decided[root] = None
            stack = [(root, shape(root))]
            reply = None
            while stack:
                top, gen = stack[-1]
                try:
                    e = gen.send(reply)
                except StopIteration as done:
                    stack.pop()
                    decided[top] = reply = done.value
                    continue
                below = prec.find(e)
                reply = decided.get(below)
                if below not in decided:
                    decided[below] = None
                    stack.append((below, shape(below)))
        return decided[root]

    return {d: decide(d) for d in frees}
