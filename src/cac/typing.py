"""The typing judgment: a syntax-directed checker for the calculus,
recording replayable derivations.

The declarative rules (ax/symb/var/weak/prod/abs/app/conv) are folded
into an algorithm: weakening is implicit in environment lookup and
conversion is checked at argument boundaries and at `check`'s root.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple, Optional, Sequence, Tuple

from .rewriting import (UNDECIDED, ConfluenceVerdict, ReachableShape,
                        RewriteRule, RuleSet, joinable, normalize, step)
from .signature import Signature
from .terms import (Abs, App, BOX, CacError, Environment, FuelExhausted,
                    Prod, STAR, Sort, SortT, Symb, Term, Var, Variable,
                    is_algebraic, open_, pi, subst_apply)


class TypingError(CacError):
    pass


class TypingDerivation(NamedTuple):
    env: Environment
    term: Term
    typ: Term
    # ax | symb | var | prod | abs | app | conv, and in the closure
    # judgment acc (for var) and symb< / symb= (for symb)
    rule_tag: str
    premises: tuple = ()
    note: str = ""

    def nodes(self):
        """Every node of the derivation, in prefix order."""
        todo = [self]
        while todo:
            d = todo.pop()
            yield d
            todo += reversed(d.premises)


class A1Pending(Exception):
    """A conversion was asked of a checker whose A1 verdict is not set.
    Not a `CacError`: the caller runs A1, sets `a1` and asks again."""


class TypeChecker:
    """One typing context: a signature, rules, fuel, A1's verdict on
    the rules, which tells `convertible` how to convert, and the
    `normal_forms` memo of every term it normalizes.  A checker whose
    `a1` is None types and normalizes, but raises `A1Pending` at a
    conversion."""

    def __init__(self, signature: Signature, rules: Sequence[RewriteRule] = (),
                 fuel: int = 10000,
                 a1: Optional[ConfluenceVerdict] = UNDECIDED):
        self.sig = signature
        self.rules = RuleSet.of(rules)
        self.fuel = fuel
        self.a1 = a1
        self.normal_forms: dict = {}

    # -- conversion ----------------------------------------------------------

    def normal_form(self, t: Term) -> Term:
        """The normal form of t under the checker's rules and fuel."""
        return normalize(t, self.rules, self.fuel, self.normal_forms)

    def convertible(self, t: Term, u: Term) -> bool:
        """Whether t and u have one normal form, under a positive A1 or
        where R is confluent on their reducts (`_confluent_on`);
        otherwise whether a common reduct is found within fuel.  Where a
        normal form runs out of fuel, the search decides, and under a
        positive A1 a common reduct found within fuel answers True and
        otherwise the normalization's error stands.  That search
        normalizes nothing: it would run out of fuel again."""
        if self.a1 is None:
            raise A1Pending
        confluent = self.a1.positive
        ran_out = None
        if confluent or self._confluent_on(t, u):
            try:
                return t == u or self.normal_form(t) == self.normal_form(u)
            except FuelExhausted as e:
                ran_out = e
        if not confluent:
            return joinable(t, u, self.rules, self.fuel, terminating=False,
                            by_normal_forms=ran_out is None)
        with contextlib.suppress(FuelExhausted):
            if joinable(t, u, self.rules, self.fuel, terminating=False,
                        by_normal_forms=False):
                return True
        raise ran_out

    def _confluent_on(self, t: Term, u: Term) -> bool:
        """Whether R is shown confluent on the reducts of t and u, a set
        that reduction keeps closed.  It is when the recursive path order
        orients every rule (then `a1` holds `unjoined`) and t and u
        are algebraic, so that R terminates there and no beta-redex
        arises, and when every critical pair whose peak fits the
        `ReachableShape` of {t, u} has sides with one normal form: no
        other peak occurs in a reduct, so R is locally confluent there
        (the critical-pair lemma: Knuth and Bendix 1970; Huet, JACM
        27(4), 1980), hence confluent there (Newman's lemma).  A pair
        whose side runs out of fuel counts as not joined."""
        if self.a1.unjoined is None or not (is_algebraic(t)
                                            and is_algebraic(u)):
            return False
        shape = ReachableShape((t, u), self.rules)
        try:
            return all(self.normal_form(cp.left_reduct)
                       == self.normal_form(cp.right_reduct)
                       for cp in self.a1.unjoined if shape.fits(cp.peak))
        except FuelExhausted:
            return False

    def _whnf_product(self, t: Term) -> Prod:
        fuel = self.fuel
        while not isinstance(t, Prod):
            r = step(t, self.rules)
            if r is None:
                raise TypingError("not-a-product",
                                  f"expected a product type, found {t}")
            t = r
            fuel -= 1
            if fuel < 0:
                raise FuelExhausted("reduction to product")
        return t

    # -- judgments -----------------------------------------------------------

    def infer(self, env: Environment, t: Term) -> Tuple[Term, TypingDerivation]:
        if isinstance(t, SortT):
            if t.sort is Sort.STAR:
                return BOX, TypingDerivation(env, t, BOX, "ax")
            raise TypingError("sort-error", "the sort □ has no type")
        if isinstance(t, Var):
            typ = env.lookup(t.var)
            if typ is None:
                raise TypingError("unbound-variable",
                                  f"variable {t.var} not bound in environment")
            return typ, TypingDerivation(env, t, typ, "var")
        if isinstance(t, Symb):
            return self._infer_symb(env, t)
        if isinstance(t, (Prod, Abs)):
            s1, d1 = self._infer_sort(env, t.domain)
            v = Variable.fresh(t.hint, s1)
            env2 = env.extend(v, t.domain)
            if isinstance(t, Prod):
                _, d2 = self._infer_sort(env2, open_(t.codomain, Var(v)))
                return d2.typ, TypingDerivation(env, t, d2.typ, "prod",
                                                (d1, d2))
            bty, d2 = self.infer(env2, open_(t.body, Var(v)))
            # the product's premises: d1, and B's sort, which an abs body
            # has already derived for its own product
            if d2.rule_tag == "abs":
                dcod = d2.premises[1]
            else:
                _, dcod = self._infer_sort(env2, bty)
            prod = pi(v, t.domain, bty)
            d3 = TypingDerivation(env, prod, dcod.typ, "prod", (d1, dcod))
            return prod, TypingDerivation(env, t, prod, "abs", (d2, d3))
        if isinstance(t, App):
            hty, d1 = self.infer(env, t.head)
            prod = self._whnf_product(hty)
            d2 = self.check(env, t.arg, prod.domain)
            typ = open_(prod.codomain, t.arg)
            return typ, TypingDerivation(env, t, typ, "app", (d1, d2))
        raise TypingError("internal", f"unknown term node {t!r}")

    def _infer_symb(self, env: Environment, t: Symb) -> Tuple[Term, TypingDerivation]:
        decl = self.sig.decls.get(t.name)
        if decl is None:
            raise TypingError("unknown-symbol", f"undeclared symbol {t.name}")
        if len(t.args) != decl.arity:
            raise TypingError("arity-error",
                              f"{t.name} expects {decl.arity} argument(s), "
                              f"got {len(t.args)}")
        gamma = decl.inst(t.args)
        premises = []
        for arg, (_, ti) in zip(t.args, decl.binders):
            expected = subst_apply(ti, gamma)
            premises.append(self.check(env, arg, expected))
        typ = subst_apply(decl.output, gamma)
        return typ, TypingDerivation(env, t, typ, "symb", tuple(premises))

    def _infer_sort(self, env: Environment, t: Term) -> Tuple[Sort, TypingDerivation]:
        typ, d = self.infer(env, t)
        if not isinstance(typ, SortT):
            typ_n = self.normal_form(typ)
            if not isinstance(typ_n, SortT):
                raise TypingError("sort-error", f"{t} is not a type or kind "
                                                f"(its type is {typ})")
            d = TypingDerivation(env, t, typ_n, "conv", (d,))
            typ = typ_n
        return typ.sort, d

    def sort_of(self, env: Environment, t: Term) -> Sort:
        return self._infer_sort(env, t)[0]

    def check(self, env: Environment, t: Term, expected: Term) -> TypingDerivation:
        actual, d = self.infer(env, t)
        if actual == expected:
            return d
        if not self.convertible(actual, expected):
            raise TypingError(
                "type-mismatch",
                f"{t} has type {self._display(actual)}, expected "
                f"{self._display(expected)}")
        self._infer_sort(env, expected)
        return TypingDerivation(env, t, expected, "conv", (d,))

    def _display(self, t: Term) -> Term:
        try:
            return self.normal_form(t)
        except FuelExhausted:
            return t

    # -- environments and substitutions ---------------------------------------

    def env_valid(self, env: Environment) -> None:
        prefix = Environment()
        for idx, (v, typ) in enumerate(env):
            try:
                s = self.sort_of(prefix, typ)
            except CacError as e:
                raise TypingError("invalid-environment",
                                  f"binding {idx + 1} ({v}:{typ}): {e.message}")
            if v.sort != s:
                raise TypingError("invalid-environment",
                                  f"binding {idx + 1}: variable {v} has sort "
                                  f"class {v.sort} but its type is sorted {s}")
            prefix = prefix.extend(v, typ)


def replay(deriv: TypingDerivation, tc: TypeChecker) -> bool:
    """Re-validate a recorded derivation node by node: each node's
    conclusion must instantiate its rule given the premises."""
    env, t, typ, tag, prem = (deriv.env, deriv.term, deriv.typ,
                              deriv.rule_tag, deriv.premises)
    ok = all(replay(p, tc) for p in prem)
    if not ok:
        return False
    if tag == "ax":
        return t == STAR and typ == BOX
    if tag in ("var", "acc"):
        bound = env.lookup(t.var) if isinstance(t, Var) else None
        return bound is not None and bound == typ
    if tag in ("symb", "symb<", "symb="):
        if not isinstance(t, Symb):
            return False
        decl = tc.sig.decls.get(t.name)
        if decl is None or len(t.args) != decl.arity:
            return False
        gamma = decl.inst(t.args)
        return typ == subst_apply(decl.output, gamma)
    if tag == "prod":
        return isinstance(t, Prod) and isinstance(typ, SortT)
    if tag == "abs":
        return isinstance(t, Abs) and isinstance(typ, Prod) \
            and typ.domain == t.domain
    if tag == "app":
        if not (isinstance(t, App) and len(prem) == 2):
            return False
        hty = prem[0].typ
        try:
            p = tc._whnf_product(hty)
        except CacError:
            return False
        return typ == open_(p.codomain, t.arg)
    if tag == "conv":
        return len(prem) == 1 and tc.convertible(prem[0].typ, typ)
    return False
