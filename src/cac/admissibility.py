"""Per-rule type-preservation conditions (S1-S5), rewrite-system
property predicates, the algebraic/non-algebraic partition of defined
symbols, and the top-level admissibility verdict (A1-A4)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .orderings import Orientation
from .positivity import (PredicateClass, check_inductive_structure,
                         polarity, predicate_classes)
from .rewriting import (ConfluenceLevel, ConfluenceVerdict, RewriteRule,
                        RuleSet, confluence_check, unify)
from .schema import (derived_type, rule_type, satisfies_general_schema,
                     typed_occurrences)
from .signature import Signature
from .terms import (Abs, CacError, Sort, Symb, Term, Var, Variable,
                    _map_leaves, alpha_eq, free_vars, is_algebraic,
                    positions_of, spine, subst_apply, subterm_at, symbols_of,
                    var_counts)
from .typing import TypeChecker


class Outcome(enum.Enum):
    PASS = "PASS"
    PASS_SUFFICIENT = "PASS_SUFFICIENT"
    FAIL = "FAIL"


@dataclass(frozen=True)
class ConditionResult:
    name: str
    outcome: Outcome
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "outcome": self.outcome.value,
                "detail": self.detail}


# ---------------------------------------------------------------------------
# S1-S5


def check_type_preservation(rule: RewriteRule, sig: Signature,
                            rules: Sequence[RewriteRule] = (),
                            fuel: int = 10000,
                            confluent: bool = False) -> Dict[str, ConditionResult]:
    """The five per-rule conditions that make rewriting preserve typing.
    S1-S3 are decided exactly; S4 and S5 by sufficient syntactic
    conditions, reported as PASS_SUFFICIENT when used non-vacuously."""
    out: Dict[str, ConditionResult] = {}
    gamma_env = rule.ann_env
    rho = rule.ann_subst
    lhs = rule.lhs
    assert isinstance(lhs, Symb)

    # S1: dom(rho) within the lhs variables not bound by Gamma
    bad = [v for v in rho
           if v not in free_vars(lhs) or gamma_env.lookup(v) is not None]
    if bad:
        out["s1"] = ConditionResult(
            "s1", Outcome.FAIL,
            f"substitution domain contains {', '.join(v.name for v in bad)} "
            "outside FV(lhs) \\ dom(env)")
    else:
        out["s1"] = ConditionResult("s1", Outcome.PASS)

    tc = TypeChecker(sig, rules, fuel=fuel, confluent=confluent)
    expected = rule_type(rule, sig)

    def typed(name: str, term: Term) -> ConditionResult:
        try:
            tc.env_valid(gamma_env)
            tc.check(gamma_env, term, expected)
            return ConditionResult(name, Outcome.PASS)
        except CacError as e:
            return ConditionResult(name, Outcome.FAIL, e.message)

    # S2: the rho-corrected lhs types at the rule type
    out["s2"] = typed("s2", subst_apply(lhs, rho))
    # S3: the rhs types at the rule type
    out["s3"] = typed("s3", rule.rhs)

    # S4: any typable instance of the lhs yields a substitution into Gamma.
    # Sufficient condition: every Gamma-variable occurs in the lhs at a
    # position whose derived type, corrected by rho, is its declared
    # type, and every lhs variable is covered by Gamma or rho.
    if len(gamma_env) == 0:
        out["s4"] = ConditionResult("s4", Outcome.PASS,
                                    "vacuous: empty environment")
    else:
        missing = [x for x, xtyp in gamma_env
                   if next(typed_occurrences(rule, x, xtyp, sig), None)
                   is None]
        uncovered = [v for v in free_vars(lhs)
                     if gamma_env.lookup(v) is None and v not in rho]
        if missing or uncovered:
            parts = []
            if missing:
                parts.append("no derived-type occurrence for "
                             + ", ".join(v.name for v in missing))
            if uncovered:
                parts.append("lhs variables outside env and substitution: "
                             + ", ".join(v.name for v in uncovered))
            out["s4"] = ConditionResult("s4", Outcome.FAIL, "; ".join(parts))
        else:
            out["s4"] = ConditionResult(
                "s4", Outcome.PASS_SUFFICIENT,
                "every environment variable has an lhs occurrence whose "
                "derived type matches its declared type")

    # S5: instances of substituted variables converge to their images.
    # Sufficient condition: each substituted variable occurs as a
    # constructor argument that the constructor's output type exposes as
    # a parameter, and the derived type at the constructor instantiates
    # that parameter to the variable's image.
    if not rho:
        out["s5"] = ConditionResult("s5", Outcome.PASS,
                                    "vacuous: empty substitution")
    else:
        unlinked = []
        for xp, image in sorted(rho.items(), key=lambda kv: kv[0].name):
            if not _parameter_linked(lhs, xp, image, sig):
                unlinked.append(xp)
        if unlinked:
            out["s5"] = ConditionResult(
                "s5", Outcome.FAIL,
                "no parameter linkage for "
                + ", ".join(v.name for v in unlinked))
        else:
            out["s5"] = ConditionResult(
                "s5", Outcome.PASS_SUFFICIENT,
                "each substituted variable is linked to its image through "
                "a constructor output parameter")
    return out


def _parameter_linked(lhs: Symb, xp: Variable, image: Term,
                      sig: Signature) -> bool:
    """One occurrence of xp as constructor argument j where the j-th
    binder is an output parameter whose expected instantiation is the
    image of xp; or xp is a top-level argument that another top-level
    constructor argument's output type pins to the image."""
    if _index_linked(lhs, xp, image, sig):
        return True
    for p in sorted(positions_of(lhs, xp)):
        if len(p) < 2:
            continue
        q, j = p[:-1], p[-1]
        holder = subterm_at(lhs, q)
        if not isinstance(holder, Symb):
            continue
        decl = sig.decls.get(holder.name)
        if decl is None or not isinstance(decl.output, Symb):
            continue
        yj = decl.binders[j - 1][0]
        k = next((i for i, v in enumerate(decl.output.args, start=1)
                  if isinstance(v, Var) and v.var == yj), None)
        if k is None:
            continue
        try:
            tau = derived_type(lhs, q, sig)
        except CacError:
            continue
        if isinstance(tau, Symb) and len(tau.args) >= k \
                and alpha_eq(tau.args[k - 1], image):
            return True
    return False


def _index_linked(lhs: Symb, xp: Variable, image: Term,
                  sig: Signature) -> bool:
    """xp sits at a top-level argument position whose binder variable is
    the k-th index in the declared type of another top-level argument,
    and that argument is a constructor application whose instantiated
    k-th output index is the image: typing the latter forces xp to the
    image."""
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
                if k <= len(d2.output.args) and alpha_eq(
                        subst_apply(d2.output.args[k - 1], g2), image):
                    return True
    return False


# ---------------------------------------------------------------------------
# rewrite-system properties


@dataclass(frozen=True)
class TriState:
    status: str           # HOLDS | FAILS | NOT_CHECKED
    witness: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "HOLDS"

    def to_dict(self):
        return {"status": self.status, "witness": self.witness}


HOLDS = TriState("HOLDS")
NOT_CHECKED = TriState("NOT_CHECKED")


def fails(witness: str) -> TriState:
    return TriState("FAILS", witness)


@dataclass
class SystemProperties:
    algebraic: TriState = NOT_CHECKED
    non_duplicating: TriState = NOT_CHECKED
    primitive: TriState = NOT_CHECKED
    simple: TriState = NOT_CHECKED
    positive: TriState = NOT_CHECKED
    recursive: TriState = NOT_CHECKED
    safe: TriState = NOT_CHECKED

    def to_dict(self):
        return {k: getattr(self, k).to_dict()
                for k in ("algebraic", "non_duplicating", "primitive",
                          "simple", "positive", "recursive", "safe")}


def _duplication(r: RewriteRule) -> Optional[str]:
    """Why r is duplicating (a variable with more occurrences in the rhs
    than in the lhs), or None."""
    lc, rc = var_counts(r.lhs), var_counts(r.rhs)
    for v, n in sorted(rc.items(), key=lambda kv: kv[0].name):
        if n > lc[v]:
            return (f"rule {r.name} duplicates {v.name} ({lc[v]} "
                    f"occurrence(s) in the lhs, {n} in the rhs)")
    return None


def system_properties(gset: FrozenSet[str], grules: Sequence[RewriteRule],
                      sig: Signature, all_rules: Sequence[RewriteRule] = (),
                      fuel: int = 10000, confluent: bool = False,
                      which: Sequence[str] = ("algebraic", "non_duplicating",
                                              "primitive", "simple",
                                              "positive", "recursive",
                                              "safe")) -> SystemProperties:
    """The properties named in `which` of the rules `grules` of the
    symbols `gset`."""
    props = SystemProperties()
    rules = RuleSet.of(all_rules or grules)
    classes = predicate_classes(sig, rules)

    if "algebraic" in which:
        verdict = HOLDS
        for g in sorted(gset):
            d = sig.decls.get(g)
            if d is None:
                verdict = fails(f"undeclared symbol {g}")
                break
            if d.sort == Sort.BOX:
                continue
            if classes.get(sig.constructor_target(g)) \
                    is not PredicateClass.PRIMITIVE:
                verdict = fails(f"{g} is neither a predicate symbol nor a "
                                "constructor of a primitive predicate")
                break
        if verdict.holds:
            for r in grules:
                if not is_algebraic(r.rhs):
                    verdict = fails(f"rule {r.name} has a non-algebraic "
                                    "right-hand side")
                    break
        props.algebraic = verdict

    if "non_duplicating" in which:
        why = next(filter(None, map(_duplication, grules)), None)
        props.non_duplicating = HOLDS if why is None else fails(why)

    if "primitive" in which:
        verdict = HOLDS
        for r in grules:
            body = r.rhs
            while isinstance(body, Abs):
                body = body.body
            head, _ = spine(body)
            if not isinstance(head, Symb):
                verdict = fails(f"rule {r.name}: right-hand side head "
                                f"is {head}, not a symbol application")
                break
            g = head.name
            if g not in gset and classes.get(g) is not PredicateClass.PRIMITIVE:
                verdict = fails(f"rule {r.name}: head symbol {g} is outside "
                                "the system and not a primitive predicate")
                break
        props.primitive = verdict

    if "simple" in which:
        verdict = HOLDS
        for r in grules:
            assert isinstance(r.lhs, Symb)
            inner = frozenset().union(*[symbols_of(a) for a in r.lhs.args]) \
                if r.lhs.args else frozenset()
            not_free = [s for s in sorted(inner) if s in rules.heads]
            if not_free:
                verdict = fails(f"rule {r.name}: lhs argument mentions "
                                f"defined symbol {not_free[0]}")
                break
            for y in sorted(free_vars(r.rhs, Sort.BOX),
                            key=lambda v: v.name):
                hits = [i for i, li in enumerate(r.lhs.args, start=1)
                        if isinstance(li, Var) and li.var == y]
                if len(hits) != 1:
                    verdict = fails(
                        f"rule {r.name}: predicate variable {y.name} must "
                        f"be exactly one lhs argument, found {len(hits)}")
                    break
            if not verdict.holds:
                break
        if verdict.holds:
            verdict = _top_overlap_free(grules) or verdict
        props.simple = verdict

    if "positive" in which:
        verdict = HOLDS
        for r in grules:
            rep = polarity(r.rhs, sig)
            for g in sorted(gset):
                bad = positions_of(r.rhs, g) - rep.positive
                if bad:
                    verdict = fails(f"rule {r.name}: {g} occurs "
                                    f"non-positively at {sorted(bad)[0]} "
                                    "in the rhs")
                    break
            if not verdict.holds:
                break
        props.positive = verdict

    if "recursive" in which:
        verdict = HOLDS
        for r in grules:
            sv = satisfies_general_schema(r, sig, rules, fuel, confluent)
            if not sv.ok:
                why = sv.failure or "; ".join(sv.well_formed.failures)
                verdict = fails(f"rule {r.name}: {why}")
                break
        props.recursive = verdict

    if "safe" in which:
        verdict = HOLDS
        for r in grules:
            assert isinstance(r.lhs, Symb)
            decl = sig.decls[r.lhs.name]
            gamma = decl.inst(r.lhs.args)
            pred_vars = sorted(
                {v for _, t in decl.binders for v in free_vars(t, Sort.BOX)}
                | free_vars(decl.output, Sort.BOX),
                key=lambda v: v.id)
            images = {}
            for x in pred_vars:
                img = subst_apply(subst_apply(Var(x), gamma), r.ann_subst)
                if not (isinstance(img, Var) and img.var.sort == Sort.BOX
                        and r.ann_env.lookup(img.var) is not None):
                    verdict = fails(
                        f"rule {r.name}: predicate argument {x.name} is "
                        f"instantiated to {img}, not a predicate variable "
                        "of the environment")
                    break
                if img.var in images and images[img.var] != x:
                    verdict = fails(
                        f"rule {r.name}: predicate arguments {images[img.var].name} "
                        f"and {x.name} share the instance {img}")
                    break
                images[img.var] = x
            if not verdict.holds:
                break
        props.safe = verdict

    return props


def _top_overlap_free(grules: Sequence[RewriteRule]) -> Optional[TriState]:
    """FAILS when two linearized lhs with the same head unify (then two
    rules could apply at the top of the same term); None when fine."""
    def relin(u: Term, _) -> Term:
        # linearize: every variable occurrence becomes a fresh variable
        if isinstance(u, Var):
            return Var(Variable.fresh(u.var.name, u.var.sort))
        return u

    lin = [(r.name, _map_leaves(r.lhs, relin, 0)) for r in grules]
    same_head: Dict[str, List[int]] = {}
    for k, (_, lk) in enumerate(lin):
        same_head.setdefault(lk.name, []).append(k)
    for i, (ni, li) in enumerate(lin):
        for j in same_head[li.name]:
            if j > i and unify(li, lin[j][1]) is not None:
                return fails(f"rules {ni} and {lin[j][0]} can both apply "
                             f"at the top of a {li.name} term")
    return None


# ---------------------------------------------------------------------------
# the partition of defined symbols (A4)


def partition_defined(sig: Signature, rules: Sequence[RewriteRule],
                      force_non_algebraic: FrozenSet[str] = frozenset(),
                      assume_terminating: bool = False
                      ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    fa, fna, _ = partition_explained(sig, rules, force_non_algebraic,
                                     assume_terminating)
    return fa, fna


def partition_explained(sig: Signature, rules: Sequence[RewriteRule],
                        force_non_algebraic: FrozenSet[str] = frozenset(),
                        assume_terminating: bool = False,
                        orientation: Optional[Orientation] = None
                        ) -> Tuple[FrozenSet[str], FrozenSet[str],
                                   Dict[str, str]]:
    """Split the defined symbols into an algebraic part and the rest by
    a greatest-fixpoint: a symbol stays algebraic while it is a
    predicate symbol or a constructor of a primitive predicate, all its
    rules have algebraic right-hand sides, do not duplicate variables,
    admit a recursive-path-order orientation (unless termination is
    asserted), and mention no non-algebraic symbol.  Returns the two
    parts plus, for each demoted symbol, the reason it left the
    algebraic part.  `orientation` is the run's table (see
    `check_admissible`); without it, it is built here."""
    rules = RuleSet.of(rules)
    if orientation is None:
        orientation = Orientation(sig)
    _, defined = sig.free_and_defined(rules)
    classes = predicate_classes(sig, rules)
    by_head = rules.by_head
    reasons: Dict[str, str] = {}

    def demote(g: str) -> Optional[str]:
        if g in force_non_algebraic:
            return "excluded by pragma"
        if sig.decls[g].sort != Sort.BOX and classes.get(
                sig.constructor_target(g)) is not PredicateClass.PRIMITIVE:
            return ("object symbol whose target is not a primitive "
                    "predicate")
        for r in by_head[g]:
            if not is_algebraic(r.rhs):
                return f"rule {r.name} has a non-algebraic right-hand side"
            why = _duplication(r)
            if why is not None:
                return why
            if not assume_terminating and orientation.line(r) is None:
                return (f"rule {r.name} admits no recursive-path-order "
                        "orientation")
        return None

    fa: Set[str] = set()
    for g in sorted(defined):
        why = demote(g)
        if why is None:
            fa.add(g)
        else:
            reasons[g] = why
    changed = True
    while changed:
        changed = False
        fna = defined - fa
        for g in sorted(fa):
            mentioned = set()
            for r in by_head[g]:
                mentioned |= symbols_of(r.lhs) | symbols_of(r.rhs)
            shared = mentioned & fna
            if shared:
                fa.discard(g)
                reasons[g] = ("rules mention the non-algebraic symbol "
                              f"{sorted(shared)[0]}")
                changed = True
    return frozenset(fa), frozenset(defined - fa), reasons


TERMINATION_ASSERTED = TriState("HOLDS", "termination asserted by pragma")


def algebraic_termination(sig: Signature, fa_rules: Sequence[RewriteRule],
                          orientation: Orientation,
                          assume_terminating: bool = False) -> TriState:
    """A4's strong-normalization obligation on the rules of the
    algebraic part: the recursive-path-order trace read from
    `orientation`, or TERMINATION_ASSERTED under the pragma."""
    cycle = sig.check_precedence()
    if cycle is not None:
        return fails("the precedence is cyclic: " + " > ".join(cycle))
    if not fa_rules:
        return TriState("HOLDS", "no algebraic rules")
    trace = orientation.terminates(fa_rules)
    if trace is not None:
        return TriState("HOLDS", "; ".join(trace))
    if assume_terminating:
        return TERMINATION_ASSERTED
    return fails("no recursive-path-order proof and no assertion")


# ---------------------------------------------------------------------------
# the top-level verdict


class OverallVerdict(enum.Enum):
    ADMISSIBLE = "ADMISSIBLE"
    ADMISSIBLE_WITH_ASSERTIONS = "ADMISSIBLE_WITH_ASSERTIONS"
    REJECTED = "REJECTED"


@dataclass
class AdmissibilityReport:
    a1: ConfluenceVerdict
    a2_violations: List[str]
    a3_branch: str                 # primitive | simple+positive |
    #                                simple+recursive | vacuous | none
    a3_properties: SystemProperties
    a4_algebraic: FrozenSet[str]
    a4_non_algebraic: FrozenSet[str]
    a4_non_algebraic_props: SystemProperties
    a4_sn: TriState
    a4_demotions: Dict[str, str]
    s_conditions: Dict[str, Dict[str, ConditionResult]]
    overall: OverallVerdict
    assertions: List[str]
    meaning: str = ("an ADMISSIBLE system is strongly normalizing: "
                    "no term admits an infinite reduction sequence")

    def to_dict(self):
        return {
            "a1": self.a1.to_dict(),
            "a2": {"violations": list(self.a2_violations)},
            "a3": {"branch": self.a3_branch,
                   "properties": self.a3_properties.to_dict()},
            "a4": {
                "algebraic": sorted(self.a4_algebraic),
                "non_algebraic": sorted(self.a4_non_algebraic),
                # what the partition guarantees of the algebraic part
                "algebraic_properties": SystemProperties(
                    algebraic=HOLDS, non_duplicating=HOLDS).to_dict(),
                "non_algebraic_properties":
                    self.a4_non_algebraic_props.to_dict(),
                "strong_normalization": self.a4_sn.to_dict(),
                "separation": HOLDS.to_dict(),
                "demotions": dict(sorted(self.a4_demotions.items())),
            },
            "s_conditions": {
                rule: {k: v.to_dict() for k, v in sorted(conds.items())}
                for rule, conds in sorted(self.s_conditions.items())
            },
            "assertions": list(self.assertions),
            "overall": self.overall.value,
            "meaning": self.meaning,
        }

    def to_text(self) -> str:
        lines = [f"A1 confluence: {self.a1.level.value}"]
        lines += [f"  {e}" for e in self.a1.evidence]
        lines.append("A2 inductive structure: "
                     + ("admissible" if not self.a2_violations else "violated"))
        lines += [f"  {v}" for v in self.a2_violations]
        lines.append(f"A3 predicate-level rules: branch = {self.a3_branch}")
        lines.append(f"A4 partition: algebraic = "
                     f"{{{', '.join(sorted(self.a4_algebraic))}}}, "
                     f"non-algebraic = "
                     f"{{{', '.join(sorted(self.a4_non_algebraic))}}}")
        lines.append(f"  strong normalization: {self.a4_sn.status}"
                     + (f" ({self.a4_sn.witness})" if self.a4_sn.witness else ""))
        for sym, why in sorted(self.a4_demotions.items()):
            lines.append(f"  {sym} is non-algebraic: {why}")
        for k, ts in sorted(self.a4_non_algebraic_props.to_dict().items()):
            if ts["status"] == "FAILS":
                lines.append(f"  non-algebraic part: {k} FAILS "
                             f"({ts['witness']})")
        for rule, conds in sorted(self.s_conditions.items()):
            summary = ", ".join(f"{k.upper()}={v.outcome.value}"
                                for k, v in sorted(conds.items()))
            lines.append(f"rule {rule}: {summary}")
            for k, v in sorted(conds.items()):
                if v.detail:
                    lines.append(f"  {k.upper()}: {v.detail}")
        if self.assertions:
            lines.append("assertions: " + "; ".join(self.assertions))
        lines.append(f"overall: {self.overall.value}")
        return "\n".join(lines)


def check_admissible(sig: Signature, rules: Sequence[RewriteRule],
                     fuel: int = 10000,
                     assume_confluent: bool = False,
                     assume_terminating: bool = False,
                     force_non_algebraic: FrozenSet[str] = frozenset()
                     ) -> AdmissibilityReport:
    rules = RuleSet.of(rules)
    failures: List[str] = []
    assertions: List[str] = []
    # what is decided once per rule for the whole run
    orientation = Orientation(sig)

    # A1 --------------------------------------------------------------
    a1 = confluence_check(rules, orientation, fuel, assume_confluent)
    if a1.level == ConfluenceLevel.UNKNOWN:
        failures.append("A1")
    elif a1.level == ConfluenceLevel.ASSERTED:
        assertions.append("confluence asserted by pragma")
    confluent = a1.positive

    # A2 --------------------------------------------------------------
    violations = check_inductive_structure(sig, rules)
    a2_violations = [str(v) for v in violations]
    if violations:
        failures.append("A2")

    # A3: the defined predicate symbols -------------------------------
    dfb = sorted(sig.defined_predicate_symbols(rules))
    dfb_rules = [r for r in rules if r.head_name() in dfb]
    a3_props = SystemProperties()
    if not dfb:
        a3_branch = "vacuous"
    else:
        gset = frozenset(dfb)
        a3_props = system_properties(gset, dfb_rules, sig, rules, fuel,
                                     confluent)
        if a3_props.primitive.holds:
            a3_branch = "primitive"
        elif a3_props.simple.holds and a3_props.positive.holds:
            a3_branch = "simple+positive"
        elif a3_props.simple.holds and a3_props.recursive.holds:
            a3_branch = "simple+recursive"
        else:
            a3_branch = "none"
            failures.append("A3")

    # A4: partition of all defined symbols ----------------------------
    # The partition keeps a symbol algebraic only while its rules are
    # algebraic, non-duplicating and mention no non-algebraic symbol, so
    # of the algebraic part only termination is left to check.
    fa, fna, demotions = partition_explained(sig, rules, force_non_algebraic,
                                             assume_terminating, orientation)
    fa_rules = [r for r in rules if r.head_name() in fa]
    fna_rules = [r for r in rules if r.head_name() in fna]
    fna_props = system_properties(fna, fna_rules, sig, rules, fuel,
                                  confluent, which=("safe", "recursive"))
    a4_sn = algebraic_termination(sig, fa_rules, orientation,
                                  assume_terminating)
    if a4_sn is TERMINATION_ASSERTED:
        assertions.append("termination of the algebraic part asserted "
                          "by pragma")
    if not (a4_sn.holds and fna_props.safe.holds
            and fna_props.recursive.holds):
        failures.append("A4")

    # S conditions ----------------------------------------------------
    s_conditions: Dict[str, Dict[str, ConditionResult]] = {}
    for r in rules:
        conds = check_type_preservation(r, sig, rules, fuel, confluent)
        s_conditions[r.name] = conds
        if any(c.outcome == Outcome.FAIL for c in conds.values()):
            failures.append(f"S({r.name})")

    if failures:
        overall = OverallVerdict.REJECTED
    elif assertions:
        overall = OverallVerdict.ADMISSIBLE_WITH_ASSERTIONS
    else:
        overall = OverallVerdict.ADMISSIBLE

    return AdmissibilityReport(
        a1=a1, a2_violations=a2_violations,
        a3_branch=a3_branch, a3_properties=a3_props,
        a4_algebraic=fa, a4_non_algebraic=fna,
        a4_non_algebraic_props=fna_props, a4_sn=a4_sn,
        a4_demotions=demotions,
        s_conditions=s_conditions, overall=overall, assertions=assertions)
