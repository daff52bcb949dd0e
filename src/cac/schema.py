"""Accessibility between (term, type) pairs, derived types of left-hand
side subterms, well-formed rules, the computable-closure judgment and
the termination-schema verdict for a rule."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .rewriting import RewriteRule, joinable
from .signature import Signature
from .terms import (Abs, App, BOX, CacError, Environment, EPSILON,
                    FuelExhausted, InvalidPosition, Position, Prod, Sort,
                    SortT, STAR, Symb, Term, Var, Variable, alpha_eq,
                    free_vars, open_, pi, positions_of, subst_apply,
                    subterm_at)
from .typing import TypeChecker, TypingError


class SchemaError(CacError):
    pass


@dataclass(frozen=True)
class AccPair:
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
    """Reflexive-transitive closure of acc_step from `start`."""
    seen = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for q in acc_step(p.term, p.type, sig):
                if all(not (alpha_eq(q.term, s.term)
                            and alpha_eq(q.type, s.type)) for s in seen):
                    seen.append(q)
                    nxt.append(q)
                    if len(seen) > limit:
                        raise FuelExhausted("accessibility closure")
        frontier = nxt
    return seen


def derived_type(l: Term, p: Position, sig: Signature) -> Term:
    """The type forced on the lhs subterm at p by the declarations on
    the path (computed symbolically, at the identity instance)."""
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
    return derived_type(l.args[i - 1], p[1:], sig)


# ---------------------------------------------------------------------------
# well-formed rules


@dataclass(frozen=True)
class AccessWitness:
    variable: Variable
    arg_index: int           # the i with p_x in Pos(x, l_i)
    position: Position       # i . p_x
    derived: Term            # tau(l, i.p_x)

    def __str__(self):
        return (f"{self.variable} accessible at {list(self.position)} "
                f"with derived type {self.derived}")


@dataclass
class WellFormedness:
    ok: bool
    witnesses: Dict[Variable, AccessWitness]
    failures: List[str]


def check_well_formed(rule: RewriteRule, sig: Signature) -> WellFormedness:
    """Every variable of the annotation environment must be reachable by
    accessibility inside some lhs argument, at a position whose derived
    type, corrected by the annotation substitution, is its declared type."""
    l = rule.lhs
    assert isinstance(l, Symb)
    decl = sig.decls.get(l.name)
    if decl is None:
        return WellFormedness(False, {},
                              [f"undeclared head symbol {l.name}"])
    gamma = decl.inst(l.args)
    witnesses: Dict[Variable, AccessWitness] = {}
    failures: List[str] = []
    for x, xtyp in rule.ann_env:
        found = None
        for i, li in enumerate(l.args, start=1):
            ti_gamma = subst_apply(decl.binders[i - 1][1], gamma)
            reach = acc_reachable(AccPair(li, ti_gamma), sig)
            for p_x in sorted(positions_of(li, x)):
                pos = (i,) + p_x
                try:
                    tau = derived_type(l, pos, sig)
                except CacError:
                    continue
                reached = any(alpha_eq(q.term, Var(x))
                              and alpha_eq(q.type, tau) for q in reach)
                if reached and alpha_eq(subst_apply(tau, rule.ann_subst), xtyp):
                    found = AccessWitness(x, i, pos, tau)
                    break
            if found:
                break
        if found:
            witnesses[x] = found
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
        if alpha_eq(r.term, q.term):
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
        if alpha_eq(p.term, q.term) and alpha_eq(p.type, q.type):
            continue
        if pair_greater(p, q, sig):
            return True, f"{p} > {q}"
        return False, None
    return len(lhs_args) > len(callee_args), None


# ---------------------------------------------------------------------------
# computable closure


@dataclass(frozen=True)
class CCJudgment:
    env: Environment
    subject: Term
    type: Term
    rule_tag: str  # acc | ax | symb< | symb= | var | prod | abs | app | conv
    premises: tuple = ()
    note: str = ""

    def nodes(self):
        yield self
        for p in self.premises:
            yield from p.nodes()

    def notes(self) -> List[str]:
        return [n.note for n in self.nodes() if n.note]


class _CC:
    """Derivation builder for the closure judgment of one rule."""

    def __init__(self, rule: RewriteRule, sig: Signature,
                 rules: Sequence[RewriteRule], fuel: int,
                 confluent: bool = False):
        self.rule = rule
        self.sig = sig
        self.fuel = fuel
        self.tc = TypeChecker(sig, rules, fuel=fuel, confluent=confluent)
        self.rules = self.tc.rules
        lhs = rule.lhs
        assert isinstance(lhs, Symb)
        self.fname = lhs.name
        decl = sig.decls[lhs.name]
        gamma0 = decl.inst(lhs.args)
        self.lhs_pairs = [
            AccPair(arg, subst_apply(t, gamma0))
            for arg, (_, t) in zip(lhs.args, decl.binders)]
        self.lhs_fv = free_vars(rule.lhs)

    def fail(self, t: Term, why: str):
        raise SchemaError("no-derivation",
                          f"{self.rule.name}: no closure derivation for "
                          f"{t}: {why}")

    def infer(self, env: Environment, t: Term) -> CCJudgment:
        if isinstance(t, SortT):
            if t.sort is Sort.STAR:
                return CCJudgment(env, t, BOX, "ax")
            self.fail(t, "the sort □ has no type")
        if isinstance(t, Var):
            typ = env.lookup(t.var)
            if typ is None:
                self.fail(t, "variable not bound in the closure environment")
            tag = "acc" if self.rule.ann_env.lookup(t.var) is not None else "var"
            return CCJudgment(env, t, typ, tag)
        if isinstance(t, Symb):
            return self._infer_symb(env, t)
        if isinstance(t, Prod):
            d1 = self._infer_sort(env, t.domain)
            v = Variable.fresh(t.hint, _sort_class(d1.type))
            cod = open_(t.codomain, Var(v))
            d2 = self._infer_sort(env.extend(v, t.domain), cod)
            return CCJudgment(env, t, d2.type, "prod", (d1, d2))
        if isinstance(t, Abs):
            d1 = self._infer_sort(env, t.domain)
            v = Variable.fresh(t.hint, _sort_class(d1.type))
            body = open_(t.body, Var(v))
            d2 = self.infer(env.extend(v, t.domain), body)
            prod = pi(v, t.domain, d2.type)
            d3 = self._infer_sort(env, prod)
            return CCJudgment(env, t, prod, "abs", (d2, d3))
        if isinstance(t, App):
            d1 = self.infer(env, t.head)
            hty = d1.type
            if not isinstance(hty, Prod):
                hty = self._to_product(t, hty)
                d1 = CCJudgment(env, t.head, hty, "conv", (d1,))
            d2 = self.check(env, t.arg, hty.domain)
            return CCJudgment(env, t, open_(hty.codomain, t.arg),
                              "app", (d1, d2))
        self.fail(t, "term shape outside the closure rules")

    def _to_product(self, t: Term, hty: Term) -> Prod:
        try:
            return self.tc._whnf_product(hty)
        except CacError:
            self.fail(t, f"head type {hty} is not a product")

    def _infer_sort(self, env: Environment, t: Term) -> CCJudgment:
        d = self.infer(env, t)
        if not isinstance(d.type, SortT):
            from .rewriting import normalize
            n = normalize(d.type, self.rules, self.fuel)
            if not isinstance(n, SortT):
                self.fail(t, f"not a type or kind (its type is {d.type})")
            d = CCJudgment(env, t, n, "conv", (d,))
        return d

    def _infer_symb(self, env: Environment, t: Symb) -> CCJudgment:
        decl = self.sig.decls.get(t.name)
        if decl is None:
            self.fail(t, f"undeclared symbol {t.name}")
        if len(t.args) != decl.arity:
            self.fail(t, f"{t.name} expects {decl.arity} argument(s)")
        prec = self.sig.precedence
        if prec.gt(self.fname, t.name):
            cycle = prec.find_cycle()
            if cycle is not None:
                self.fail(t, "the precedence is cyclic: "
                             + " > ".join(cycle))
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
        # the declared type of the callee must be sorted
        try:
            self.tc.sort_of(Environment(), decl.typ)
        except CacError as e:
            self.fail(t, f"declared type of {t.name} is ill-sorted: {e.message}")
        gamma = decl.inst(t.args)
        premises = []
        for a, (_, u) in zip(t.args, decl.binders):
            premises.append(self.check(env, a, subst_apply(u, gamma)))
        return CCJudgment(env, t, subst_apply(decl.output, gamma),
                          tag, tuple(premises), note)

    def check(self, env: Environment, t: Term, expected: Term) -> CCJudgment:
        d = self.infer(env, t)
        if alpha_eq(d.type, expected):
            return d
        try:
            conv = joinable(d.type, expected, self.rules, self.fuel)
        except FuelExhausted:
            conv = False
        if not conv:
            self.fail(t, f"has closure type {d.type}, expected {expected}")
        return CCJudgment(env, t, expected, "conv", (d,))


def cc_check(rule: RewriteRule, sig: Signature,
             rules: Sequence[RewriteRule] = (), fuel: int = 10000,
             confluent: bool = False) -> CCJudgment:
    """Derive the closure judgment Γ ⊢c rhs : Uγρ for a rule; raises
    SchemaError("no-derivation") with the blocking subterm otherwise."""
    lhs = rule.lhs
    assert isinstance(lhs, Symb)
    decl = sig.decls[lhs.name]
    gamma = decl.inst(lhs.args)
    expected = subst_apply(subst_apply(decl.output, gamma), rule.ann_subst)
    cc = _CC(rule, sig, rules, fuel, confluent)
    return cc.check(rule.ann_env, rule.rhs, expected)


@dataclass
class SchemaVerdict:
    ok: bool
    well_formed: WellFormedness
    derivation: Optional[CCJudgment]
    failure: Optional[str]

    def evidence(self) -> List[str]:
        out = [str(w) for w in self.well_formed.witnesses.values()]
        out.extend(self.well_formed.failures)
        if self.derivation is not None:
            out.extend(self.derivation.notes())
        if self.failure:
            out.append(self.failure)
        return out


def satisfies_general_schema(rule: RewriteRule, sig: Signature,
                             rules: Sequence[RewriteRule] = (),
                             fuel: int = 10000,
                             confluent: bool = False) -> SchemaVerdict:
    wf = check_well_formed(rule, sig)
    if not wf.ok:
        return SchemaVerdict(False, wf, None, None)
    try:
        deriv = cc_check(rule, sig, rules, fuel, confluent)
    except CacError as e:
        return SchemaVerdict(False, wf, None, e.message)
    return SchemaVerdict(True, wf, deriv, None)


def _sort_class(sort_term: Term) -> Sort:
    assert isinstance(sort_term, SortT)
    return sort_term.sort
