"""Positive/negative occurrence positions, the admissibility conditions
on the declared inductive structure (I1-I6), and the classification of
free predicate symbols by the shape of their constructors' argument
types."""

from __future__ import annotations

import enum
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

from .signature import Signature
from .terms import (Abs, App, EPSILON, Position, Prod, Sort, SortT, Symb,
                    Term, Var, Variable, _children, occurrences)


def is_predicate_term(t: Term, sig: Signature) -> bool:
    """Whether t lives at the predicate level (its type is a kind):
    decided from the head's declared sort class."""
    while isinstance(t, (Abs, App)):
        t = t.body if isinstance(t, Abs) else t.head
    if isinstance(t, (SortT, Prod)):
        return True
    if isinstance(t, Var):
        return t.var.sort == Sort.BOX
    if isinstance(t, Symb) and t.name in sig.decls:
        return sig.decls[t.name].sort == Sort.BOX
    return False


def signed_occurrences(t: Term, sig: Signature,
                       free_set: Optional[FrozenSet[str]] = None
                       ) -> Iterator[Tuple[Position, Term, int]]:
    """Every (position, subterm, sign) of t in the prefix order of
    `occurrences`: sign 1 for a positive position, -1 for a negative
    one, 0 for one without a polarity.  The root is positive; a product
    flips the sign of its domain; a free predicate symbol (of free_set,
    by default every predicate symbol) passes its sign into its
    inductive arguments; an application's head and an abstraction's body
    keep it.  Below an abstraction's domain and an application's object
    argument every position has the node's sign; below a predicate
    argument or any other symbol argument, sign 0."""
    if free_set is None:
        free_set = frozenset(n for n, d in sig.decls.items()
                             if d.sort == Sort.BOX)
    # ruled: the sign rules apply below; otherwise every position
    # below takes the same sign
    stack = [(EPSILON, t, 1, True)]
    while stack:
        p, u, s, ruled = stack.pop()
        yield p, u, s
        kids = _children(u)
        if not ruled or not kids:
            signs = [(s, False)] * len(kids)
        elif isinstance(u, Symb):
            ind = (sig.structure.ind_of(u.name) if u.name in free_set
                   else ())
            signs = [(s, True) if i in ind else (0, False)
                     for i in range(1, len(kids) + 1)]
        elif isinstance(u, Prod):
            signs = [(-s, True), (s, True)]
        elif isinstance(u, Abs):
            signs = [(s, False), (s, True)]
        else:  # an application
            signs = [(s, True),
                     (0 if is_predicate_term(u.arg, sig) else s, False)]
        for i in range(len(kids), 0, -1):
            stack.append((p + (i,), kids[i - 1]) + signs[i - 1])


def first_occurrences(t: Term, sig: Signature,
                      free_set: Optional[FrozenSet[str]] = None):
    """From one signed walk of t: the first position in prefix order of
    each free variable (keyed by its Variable) and each symbol (keyed by
    its name), and the first of each that is not positive."""
    first: Dict[object, Position] = {}
    bad: Dict[object, Position] = {}
    for p, u, s in signed_occurrences(t, sig, free_set):
        key = (u.var if isinstance(u, Var)
               else u.name if isinstance(u, Symb) else None)
        if key is not None:
            first.setdefault(key, p)
            if s < 1:
                bad.setdefault(key, p)
    return first, bad


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
            ind_vars = []
            for i in ind:
                if not (1 <= i <= len(vs)):
                    out.append(StructureViolation(
                        "I1", cname, con, None,
                        f"inductive position {i} exceeds the output arity"))
                    continue
                vi = vs[i - 1]
                if isinstance(vi, Var):
                    ind_vars.append(vi)
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
                first, bad = first_occurrences(uj, sig, free_set)
                # I2: inductive-argument variables occur positively
                for vi in ind_vars:
                    if vi.var in bad:
                        out.append(StructureViolation(
                            "I2", cname, con, j,
                            f"variable {vi} occurs non-positively at "
                            f"{bad[vi.var]} in {uj}"))
                # I3: equivalent free predicates occur positively
                # I4: strictly greater free predicates do not occur
                for e in sorted(free_set.intersection(first), key=rank.get):
                    if prec.eq(e, cname):
                        if e in bad:
                            out.append(StructureViolation(
                                "I3", cname, con, j,
                                f"equivalent predicate {e} occurs "
                                f"non-positively at {bad[e]} in {uj}"))
                    elif prec.gt(e, cname):
                        out.append(StructureViolation(
                            "I4", cname, con, j,
                            f"greater predicate {e} occurs at "
                            f"{first[e]} in {uj}"))
                # I5: defined predicates do not occur
                for f in sorted(defined_preds.intersection(first),
                                key=rank.get):
                    out.append(StructureViolation(
                        "I5", cname, con, j,
                        f"defined predicate {f} occurs at "
                        f"{first[f]} in {uj}"))
                # I6: predicate free variables are output parameters
                for x in sorted((v for v in first if isinstance(v, Variable)
                                 and v.sort == Sort.BOX),
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
    class, in two passes: the first reads each class's own argument
    types, and the second marks a class primitive when each of them is
    headed by an equivalent predicate or by a basic one below it."""
    prec = sig.precedence
    frees = sig.free_predicate_symbols(rules)
    free_set = set(frees)
    members: Dict[str, Set[str]] = {}
    for d in frees:
        members.setdefault(prec.find(d), set()).add(d)
    basic: Dict[str, bool] = {}
    strictly: Dict[str, bool] = {}
    heads: Dict[str, List[Tuple[str, Optional[str]]]] = {}
    for root, cls in members.items():
        basic[root] = strictly[root] = True
        heads[root] = []
        for dname in sorted(cls):
            for con in sig.constructors_of(dname):
                decl = sig.decls[con]
                for j in sorted(sig.structure.acc_of(con)):
                    if not (1 <= j <= decl.arity):
                        continue
                    uj = decl.binders[j - 1][1]
                    heads[root].append(
                        (dname, uj.name if isinstance(uj, Symb) else None))
                    at = [p for p, u in occurrences(uj)
                          if isinstance(u, Symb) and u.name in cls]
                    if not at:
                        continue
                    # basic: equivalent symbols occur only at the root
                    if at != [EPSILON]:
                        basic[root] = False
                    # strictly positive: (z-vec:V-vec) E(t-vec), with
                    # equivalent symbols only at the head E
                    k, core = 0, uj
                    while isinstance(core, Prod):
                        k, core = k + 1, core.codomain
                    if at != [(2,) * k]:
                        strictly[root] = False
    classes = {}
    for root, cls in members.items():
        # primitive: each U_j is E(t-vec) with E equivalent to D, or E
        # basic and below D
        primitive = all(e in cls or e in free_set and prec.gt(dname, e)
                        and basic[prec.find(e)]
                        for dname, e in heads[root])
        classes[root] = (
            PredicateClass.PRIMITIVE if primitive and basic[root]
            else PredicateClass.BASIC if basic[root]
            else PredicateClass.STRICTLY_POSITIVE if strictly[root]
            else PredicateClass.GENERAL)
    return {d: classes[prec.find(d)] for d in frees}
