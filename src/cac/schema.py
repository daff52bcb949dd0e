"""Accessibility between (term, type) pairs, derived types of left-hand
side subterms, well-formed rules, the computable-closure judgment and
the termination-schema verdict for a rule."""

from __future__ import annotations

from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .rewriting import RewriteRule
from .signature import Signature
from .terms import (App, CacError, EPSILON, Environment, FuelExhausted,
                    Position, Symb, Term, Var, Variable, _children,
                    subst_apply)
from .typing import TypeChecker, TypingDerivation


class SchemaError(CacError):
    pass


class AccPair(NamedTuple):
    """A term together with its formally assigned type (not re-inferred)."""

    term: Term
    type: Term

    def __str__(self):
        return f"⟨{self.term}, {self.type}⟩"


def acc_step(t: Term, T: Term, sig: Signature) -> List[AccPair]:
    """One accessibility step: when t = c(u-vec) for a constructor c
    with output type headed by the same predicate as T, the accessible
    arguments u_j paired with their instantiated declared types."""
    if not isinstance(t, Symb):
        return []
    decl = sig.decls.get(t.name)
    if decl is None or len(t.args) != decl.arity:
        return []
    cname = sig.constructor_target(t.name)
    if cname is None:
        return []
    head = T
    while isinstance(head, App):
        head = head.head
    if not (isinstance(head, Symb) and head.name == cname):
        return []
    gamma = decl.inst(t.args)
    out = []
    for j in sorted(sig.structure.acc_of(t.name)):
        if 1 <= j <= decl.arity:
            uj = decl.binders[j - 1][1]
            out.append(AccPair(t.args[j - 1], subst_apply(uj, gamma)))
    return out


def acc_reachable(start: AccPair, sig: Signature,
                  limit: int = 10000) -> List[AccPair]:
    """Reflexive-transitive closure of acc_step from `start`, in the
    order the pairs are first reached."""
    # keyed by AccPair, whose equality is alpha equality of term and type;
    # a dict keeps insertion order
    seen = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for q in acc_step(p.term, p.type, sig):
                if q not in seen:
                    seen[q] = None
                    nxt.append(q)
                    if len(seen) > limit:
                        raise FuelExhausted("accessibility closure")
        frontier = nxt
    return list(seen)


def typed_subterms(l: Term, sig: Signature) -> Iterator[
        Tuple[Position, Term, Union[Term, CacError]]]:
    """Each proper subterm of the lhs l, in the prefix order of
    `occurrences`, with its position p and its derived type τ(l, p):
    the type forced on it by its parent symbol's declaration at its
    argument index, computed symbolically at the identity instance.
    Below the first node of a path that is not a declared symbol with
    no more arguments than binders, which only a non-algebraic lhs or a
    rule built outside `load` has, a subterm comes with that node's
    error instead: `bad-path`, `unknown-symbol` or `arity-error`.  One
    walk with its own stack, so any depth."""
    stack: list = [(EPSILON, l, None)]  # (position, subterm, its type)
    while stack:
        p, u, tau = stack.pop()
        if p:
            yield p, u, tau
        kids = _children(u)
        decl = None
        if kids and not isinstance(tau, CacError):
            decl = sig.decls.get(u.name) if u.__class__ is Symb else None
            if decl is not None and len(kids) <= decl.arity:
                gamma = decl.inst(u.args)
            elif decl is not None:  # no binder for an argument past them
                decl, tau = None, SchemaError(
                    "arity-error", f"{u.name} expects {decl.arity} "
                                   f"argument(s), got {len(kids)}")
            elif u.__class__ is Symb:
                tau = SchemaError("unknown-symbol",
                                  f"undeclared symbol {u.name}")
            else:
                tau = SchemaError("bad-path", "derived type requires a "
                                              f"symbol node, found {u}")
        for i in range(len(kids), 0, -1):
            stack.append((p + (i,), kids[i - 1], tau if decl is None else
                          subst_apply(decl.binders[i - 1][1], gamma)))


# ---------------------------------------------------------------------------
# well-formed rules


class AccessWitness(NamedTuple):
    variable: Variable
    arg_index: int           # the i with p_x in Pos(x, l_i)
    position: Position       # i . p_x
    derived: Term            # tau(l, i.p_x)


class WellFormedness(NamedTuple):
    ok: bool
    witnesses: Dict[Variable, AccessWitness]
    failures: List[str]


def check_well_formed(rule: RewriteRule, sig: Signature) -> WellFormedness:
    """Every variable of the annotation environment must be reachable by
    accessibility inside some lhs argument, at a position whose derived
    type, corrected by the annotation substitution, is its declared type."""
    l = rule.lhs
    assert isinstance(l, Symb)
    if l.name not in sig.decls:
        return WellFormedness(False, {},
                              [f"undeclared head symbol {l.name}"])
    # one walk: each lhs argument and each variable position with its
    # derived type, variable positions in prefix order
    args: Dict[int, AccPair] = {}
    typed: Dict[Variable, List[Tuple[Position, Term]]] = {}
    for p, u, tau in typed_subterms(l, sig):
        if len(p) == 1:
            args[p[0]] = AccPair(u, tau)
        if u.__class__ is Var and not isinstance(tau, CacError):
            typed.setdefault(u.var, []).append((p, tau))
    reach: Dict[int, List[AccPair]] = {}  # per lhs argument, on demand
    witnesses: Dict[Variable, AccessWitness] = {}
    failures: List[str] = []
    for x, xtyp in rule.ann_env:
        for p, tau in ((p, tau) for p, tau in typed.get(x, ())
                       if subst_apply(tau, rule.ann_subst) == xtyp):
            i = p[0]
            if i not in reach:
                reach[i] = acc_reachable(args[i], sig)
            if AccPair(Var(x), tau) in reach[i]:
                witnesses[x] = AccessWitness(x, i, p, tau)
                break
        else:
            failures.append(
                f"{rule.name}: variable {x} has no accessible occurrence "
                f"in the left-hand side with derived type matching {xtyp}")
    return WellFormedness(not failures, witnesses, failures)


# ---------------------------------------------------------------------------
# argument comparison


def pair_greater(p: AccPair, q: AccPair, sig: Signature) -> bool:
    """p (> via at least one accessibility step) q, compared on the term
    component of the reached pairs."""
    for r in acc_reachable(p, sig):
        if r is p:
            continue
        if r.term == q.term:
            return True
    return False


def args_greater(lhs_args: Sequence[AccPair], callee_args: Sequence[AccPair],
                 sig: Signature,
                 status: Optional[Sequence[int]] = None
                 ) -> Tuple[bool, Optional[str]]:
    """Lexicographic extension of the accessibility order; returns the
    rendered deciding comparison when it holds.  A status restricts the
    comparison to the given 1-based argument positions (recursors, for
    instance, are compared on their scrutinee alone)."""
    if status is not None:
        lhs_args = [lhs_args[i - 1] for i in status if i <= len(lhs_args)]
        callee_args = [callee_args[i - 1] for i in status
                       if i <= len(callee_args)]
    for p, q in zip(lhs_args, callee_args):
        if p.term == q.term and p.type == q.type:
            continue
        if pair_greater(p, q, sig):
            return True, f"{p} > {q}"
        return False, None
    return len(lhs_args) > len(callee_args), None


# ---------------------------------------------------------------------------
# computable closure


class ClosureChecker(TypeChecker):
    """The computable-closure judgment of one rule: the typing judgment
    of `tc`'s context with a guard on symbol applications.  A callee
    must be below the rule's head in the precedence (tag `symb<`), or
    equivalent to it with accessibly smaller arguments (tag `symb=`,
    noted with the deciding comparison).  Variables of the rule's
    annotation environment are tagged `acc`."""

    def __init__(self, rule: RewriteRule, tc: TypeChecker):
        super().__init__(tc.sig, tc.rules, tc.fuel, tc.confluent)
        self.rule = rule
        lhs = rule.lhs
        assert isinstance(lhs, Symb)
        self.fname = lhs.name
        self.lhs_pairs = [AccPair(u, tau) for p, u, tau
                          in typed_subterms(lhs, tc.sig) if len(p) == 1]

    def fail(self, t: Term, why: str):
        raise SchemaError("no-derivation",
                          f"{self.rule.name}: no closure derivation for "
                          f"{t}: {why}")

    def infer(self, env: Environment, t: Term) -> Tuple[Term, TypingDerivation]:
        typ, d = super().infer(env, t)
        if isinstance(t, Var) and self.rule.ann_env.lookup(t.var) is not None:
            d = d._replace(rule_tag="acc")
        return typ, d

    def _infer_symb(self, env: Environment,
                    t: Symb) -> Tuple[Term, TypingDerivation]:
        decl = self.sig.decls.get(t.name)
        if decl is None or len(t.args) != decl.arity:
            return super()._infer_symb(env, t)
        prec = self.sig.precedence
        if prec.gt(self.fname, t.name):
            cycle = prec.find_cycle()
            if cycle is not None:
                self.fail(t, "the precedence is cyclic: " + " > ".join(cycle))
            tag, note = "symb<", ""
        elif prec.eq(t.name, self.fname):
            gamma = decl.inst(t.args)
            callee = [AccPair(a, subst_apply(u, gamma))
                      for a, (_, u) in zip(t.args, decl.binders)]
            ok, witness = args_greater(self.lhs_pairs, callee, self.sig,
                                       self.sig.status.get(self.fname))
            if not ok:
                self.fail(t, "recursive call arguments are not smaller than "
                             "the left-hand side arguments")
            tag, note = "symb=", witness or ""
        else:
            self.fail(t, f"symbol {t.name} is not below or equivalent to "
                         f"{self.fname} in the precedence")
        typ, d = super()._infer_symb(env, t)
        return typ, d._replace(rule_tag=tag, note=note)


def cc_check(rule: RewriteRule, tc: TypeChecker) -> TypingDerivation:
    """Derive the closure judgment Γ ⊢c rhs : Uγρ for a rule, in the
    typing context of `tc`; raises SchemaError("no-derivation")
    otherwise, naming the blocking subterm when the guard fails."""
    cc = ClosureChecker(rule, tc)
    try:
        return cc.check(rule.ann_env, rule.rhs, rule_type(rule, tc.sig))
    except SchemaError:
        raise
    except CacError as e:
        raise SchemaError("no-derivation",
                          f"{rule.name}: no closure derivation: "
                          f"{e.message}") from e


def rule_type(rule: RewriteRule, sig: Signature) -> Term:
    """Uγρ: the declared output type of the lhs head at the lhs
    arguments, corrected by the annotation substitution."""
    lhs = rule.lhs
    assert isinstance(lhs, Symb)
    decl = sig.decls[lhs.name]
    gamma = decl.inst(lhs.args)
    return subst_apply(subst_apply(decl.output, gamma), rule.ann_subst)


class SchemaVerdict(NamedTuple):
    ok: bool
    well_formed: WellFormedness
    derivation: Optional[TypingDerivation]
    failure: Optional[str]


def satisfies_general_schema(rule: RewriteRule,
                             tc: TypeChecker) -> SchemaVerdict:
    wf = check_well_formed(rule, tc.sig)
    if not wf.ok:
        return SchemaVerdict(False, wf, None, None)
    try:
        deriv = cc_check(rule, tc)
    except CacError as e:
        return SchemaVerdict(False, wf, None, e.message)
    return SchemaVerdict(True, wf, deriv, None)
