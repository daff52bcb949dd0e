"""Per-rule type-preservation conditions (S1-S5), rewrite-system
property predicates, the algebraic/non-algebraic partition of defined
symbols, and the top-level admissibility verdict (A1-A4)."""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from .orderings import Orientation
from .positivity import (PredicateClass, check_inductive_structure,
                         first_occurrences, predicate_classes)
from .rewriting import (ConfluenceLevel, ConfluenceVerdict, RewriteRule,
                        RuleSet, confluence_check, unify)
from .schema import rule_type, satisfies_general_schema, typed_subterms
from .signature import Signature
from .terms import (Abs, CacError, Position, Sort, Symb, Term, Var, Variable,
                    _map_leaves, free_vars, is_algebraic, open_fresh,
                    spine, subst_apply, symbols_of, var_counts)
from .typing import TypeChecker


class Outcome(enum.Enum):
    PASS = "PASS"
    PASS_SUFFICIENT = "PASS_SUFFICIENT"
    FAIL = "FAIL"


class ConditionResult(NamedTuple):
    name: str
    outcome: Outcome
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "outcome": self.outcome.value,
                "detail": self.detail}


def s_row(conds: Mapping[str, ConditionResult]) -> Dict[str, dict]:
    """The structured report's row of one rule's conditions."""
    return {k: v.to_dict() for k, v in sorted(conds.items())}


# The results whose text is fixed, shared by every rule that has them.
S1_PASS = ConditionResult("s1", Outcome.PASS)
S2_PASS = ConditionResult("s2", Outcome.PASS)
S3_PASS = ConditionResult("s3", Outcome.PASS)
S4_VACUOUS = ConditionResult("s4", Outcome.PASS, "vacuous: empty environment")
S4_SUFFICIENT = ConditionResult(
    "s4", Outcome.PASS_SUFFICIENT,
    "every environment variable has an lhs occurrence whose derived type "
    "matches its declared type")
S5_VACUOUS = ConditionResult("s5", Outcome.PASS,
                             "vacuous: empty substitution")
S5_SUFFICIENT = ConditionResult(
    "s5", Outcome.PASS_SUFFICIENT,
    "each substituted variable is linked to its image through a "
    "constructor output parameter")


# ---------------------------------------------------------------------------
# S1-S5


def check_type_preservation(rule: RewriteRule,
                            tc: TypeChecker) -> Dict[str, ConditionResult]:
    """The five per-rule conditions that make rewriting preserve typing,
    typed in the context of `tc`.  S1-S3 are decided exactly; S4 and S5
    by sufficient syntactic conditions, reported as PASS_SUFFICIENT when
    used non-vacuously."""
    out: Dict[str, ConditionResult] = {}
    sig = tc.sig
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
        out["s1"] = S1_PASS

    expected = rule_type(rule, sig)

    def typed(term: Term, passed: ConditionResult) -> ConditionResult:
        try:
            tc.check(gamma_env, term, expected)
            return passed
        except CacError as e:
            return ConditionResult(passed.name, Outcome.FAIL, e.message)

    try:
        tc.env_valid(gamma_env)
    except CacError as e:  # an invalid Gamma fails S2 and S3 alike
        out["s2"] = ConditionResult("s2", Outcome.FAIL, e.message)
        out["s3"] = ConditionResult("s3", Outcome.FAIL, e.message)
    else:
        # S2: the rho-corrected lhs types at the rule type
        out["s2"] = typed(subst_apply(lhs, rho), S2_PASS)
        # S3: the rhs types at the rule type
        out["s3"] = typed(rule.rhs, S3_PASS)

    # S4: any typable instance of the lhs yields a substitution into Gamma.
    # Sufficient condition: every Gamma-variable occurs in the lhs at a
    # position whose derived type, corrected by rho, is its declared
    # type, and every lhs variable is covered by Gamma or rho.
    if len(gamma_env) == 0:
        out["s4"] = S4_VACUOUS
    else:
        # one walk of the lhs: each variable's corrected derived types,
        # in order of first occurrence, not of the variables' hashes
        corrected: Dict[Variable, List[Term]] = {}
        for _, u, tau in typed_subterms(lhs, sig):
            if u.__class__ is Var:
                found = corrected.setdefault(u.var, [])
                if not isinstance(tau, CacError):
                    found.append(subst_apply(tau, rho))
        missing = [x for x, xtyp in gamma_env
                   if xtyp not in corrected.get(x, ())]
        uncovered = [v for v in corrected
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
            out["s4"] = S4_SUFFICIENT

    # S5: instances of substituted variables converge to their images.
    # Sufficient condition: each substituted variable occurs as a
    # constructor argument that the constructor's output type exposes as
    # a parameter, and the derived type at the constructor instantiates
    # that parameter to the variable's image.
    if not rho:
        out["s5"] = S5_VACUOUS
    else:
        typed = {p: (u, tau) for p, u, tau in typed_subterms(lhs, sig)}
        unlinked = []
        for xp, image in sorted(rho.items(), key=lambda kv: kv[0].name):
            if not _parameter_linked(lhs, typed, xp, image, sig):
                unlinked.append(xp)
        if unlinked:
            out["s5"] = ConditionResult(
                "s5", Outcome.FAIL,
                "no parameter linkage for "
                + ", ".join(v.name for v in unlinked))
        else:
            out["s5"] = S5_SUFFICIENT
    return out


def _parameter_linked(lhs: Symb, typed: Dict[Position, tuple],
                      xp: Variable, image: Term, sig: Signature) -> bool:
    """Whether typing the lhs pins xp to its image at a constructor
    application h = c(u-vec) below the root, by h's derived type τ and
    c's declared output type P(o-vec), at an index k:
    - xp is an argument u_j of h, o_k is the first o that is c's binder
      j, and τ_k is the image (xp is an output parameter of h); or
    - h is an lhs argument whose declared type in the head's telescope
      is headed by P, τ_k is xp, which is then an lhs argument that
      indexes h's type, and o_k, instantiated at u-vec, is the image.
    `typed` maps each proper position of the lhs to its subterm and
    derived type, or the error of its path."""
    x, head = Var(xp), sig.decls[lhs.name]
    for q, (h, tau) in typed.items():
        decl = sig.decls.get(h.name) if h.__class__ is Symb else None
        if decl is None or not isinstance(decl.output, Symb) \
                or not isinstance(tau, Symb):
            continue
        out = decl.output.args
        for j in (j for j, u in enumerate(h.args[:decl.arity], start=1)
                  if u == x):
            yj = decl.binders[j - 1][0]
            k = next((i for i, v in enumerate(out, start=1)
                      if isinstance(v, Var) and v.var == yj), None)
            if k is not None and len(tau.args) >= k \
                    and tau.args[k - 1] == image:
                return True
        if len(q) == 1 and isinstance(head.binders[q[0] - 1][1], Symb) \
                and tau.name == decl.output.name:
            gamma = decl.inst(h.args)
            if any(t == x and k <= len(out)
                   and subst_apply(out[k - 1], gamma) == image
                   for k, t in enumerate(tau.args, start=1)):
                return True
    return False


# ---------------------------------------------------------------------------
# rewrite-system properties


class TriState(NamedTuple):
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


PROPERTIES = ("algebraic", "non_duplicating", "primitive", "simple",
              "positive", "recursive", "safe")


class SystemProperties:
    """The properties of a set of rules, each NOT_CHECKED until
    `system_properties` decides it."""

    def __init__(self):
        for k in PROPERTIES:
            setattr(self, k, NOT_CHECKED)

    def to_dict(self):
        return {k: getattr(self, k).to_dict() for k in PROPERTIES}


# what the partition guarantees of the algebraic part (see
# `partition_explained`)
PARTITION_GUARANTEES = SystemProperties()
PARTITION_GUARANTEES.algebraic = PARTITION_GUARANTEES.non_duplicating = HOLDS


def _duplication(r: RewriteRule) -> Optional[str]:
    """Why r is duplicating (a variable with more occurrences in the rhs
    than in the lhs), or None."""
    lc, rc = var_counts(r.lhs), var_counts(r.rhs)
    for v, n in sorted(rc.items(), key=lambda kv: kv[0].name):
        m = lc.get(v, 0)
        if n > m:
            return (f"rule {r.name} duplicates {v.name} ({m} "
                    f"occurrence(s) in the lhs, {n} in the rhs)")
    return None


# Each property is a generator of the witnesses against it, in the order
# they are found; `system_properties` reports the first one.

def _algebraic(gset, grules, tc, classes):
    sig = tc.sig
    for g in sorted(gset):
        d = sig.decls.get(g)
        if d is None:
            yield f"undeclared symbol {g}"
        elif d.sort != Sort.BOX and classes.get(
                sig.constructor_target(g)) is not PredicateClass.PRIMITIVE:
            yield (f"{g} is neither a predicate symbol nor a constructor of "
                   "a primitive predicate")
    for r in grules:
        if not is_algebraic(r.rhs):
            yield f"rule {r.name} has a non-algebraic right-hand side"


def _non_duplicating(gset, grules, tc, classes):
    return filter(None, map(_duplication, grules))


def _primitive(gset, grules, tc, classes):
    for r in grules:
        body = r.rhs
        while isinstance(body, Abs):
            body = open_fresh(body)[1]
        head, _ = spine(body)
        if not isinstance(head, Symb):
            yield (f"rule {r.name}: right-hand side head is {head}, not a "
                   "symbol application")
        elif head.name not in gset and classes.get(head.name) \
                is not PredicateClass.PRIMITIVE:
            yield (f"rule {r.name}: head symbol {head.name} is outside the "
                   "system and not a primitive predicate")


def _simple(gset, grules, tc, classes):
    for r in grules:
        assert isinstance(r.lhs, Symb)
        inner = frozenset().union(*map(symbols_of, r.lhs.args))
        for s in sorted(inner & tc.rules.heads):
            yield f"rule {r.name}: lhs argument mentions defined symbol {s}"
        for y in sorted(free_vars(r.rhs, Sort.BOX), key=lambda v: v.name):
            hits = [i for i, li in enumerate(r.lhs.args, start=1)
                    if isinstance(li, Var) and li.var == y]
            if len(hits) != 1:
                yield (f"rule {r.name}: predicate variable {y.name} must be "
                       f"exactly one lhs argument, found {len(hits)}")
    yield from _top_overlaps(grules)


def _positive(gset, grules, tc, classes):
    for r in grules:
        bad = first_occurrences(r.rhs, tc.sig)[1]
        for g in sorted(gset):
            if g in bad:
                yield (f"rule {r.name}: {g} occurs non-positively at "
                       f"{bad[g]} in the rhs")


def _recursive(gset, grules, tc, classes):
    for r in grules:
        sv = satisfies_general_schema(r, tc)
        if not sv.ok:
            why = sv.failure or "; ".join(sv.well_formed.failures)
            yield f"rule {r.name}: {why}"


def _safe(gset, grules, tc, classes):
    for r in grules:
        assert isinstance(r.lhs, Symb)
        decl = tc.sig.decls[r.lhs.name]
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
                yield (f"rule {r.name}: predicate argument {x.name} is "
                       f"instantiated to {img}, not a predicate variable "
                       "of the environment")
            elif images.setdefault(img.var, x) != x:
                yield (f"rule {r.name}: predicate arguments "
                       f"{images[img.var].name} and {x.name} share the "
                       f"instance {img}")


_FAILURES = {"algebraic": _algebraic, "non_duplicating": _non_duplicating,
             "primitive": _primitive, "simple": _simple,
             "positive": _positive, "recursive": _recursive, "safe": _safe}


def system_properties(gset: FrozenSet[str], grules: Sequence[RewriteRule],
                      tc: TypeChecker, classes: Dict[str, PredicateClass],
                      which: Sequence[str] = PROPERTIES) -> SystemProperties:
    """The properties named in `which` of the rules `grules` of the
    symbols `gset`, among all the rules of `tc`'s typing context, whose
    free predicates have the classes `classes`."""
    props = SystemProperties()
    for k in PROPERTIES:
        if k in which:
            why = next(_FAILURES[k](gset, grules, tc, classes), None)
            setattr(props, k, HOLDS if why is None else fails(why))
    return props


def _top_overlaps(grules: Sequence[RewriteRule]):
    """Witnesses that two linearized lhs with the same head unify (then
    two rules could apply at the top of the same term)."""
    def relin(u: Var, _) -> Term:
        # linearize: every variable occurrence, the only leaves of an
        # algebraic lhs, becomes a fresh variable
        return Var(Variable.fresh(u.var.name, u.var.sort))

    lin = [(r.name, _map_leaves(r.lhs, relin, 0)) for r in grules]
    same_head: Dict[str, List[int]] = {}
    for k, (_, lk) in enumerate(lin):
        same_head.setdefault(lk.name, []).append(k)
    for i, (ni, li) in enumerate(lin):
        for j in same_head[li.name]:
            if j > i and unify(li, lin[j][1]) is not None:
                yield (f"rules {ni} and {lin[j][0]} can both apply at the "
                       f"top of a {li.name} term")


# ---------------------------------------------------------------------------
# the partition of defined symbols (A4)


def partition_explained(sig: Signature, rules: Sequence[RewriteRule],
                        force_non_algebraic: FrozenSet[str],
                        assume_terminating: bool, orientation: Orientation,
                        classes: Dict[str, PredicateClass]
                        ) -> Tuple[FrozenSet[str], FrozenSet[str],
                                   Dict[str, str]]:
    """Split the defined symbols into an algebraic part and the rest by
    a greatest-fixpoint: a symbol stays algebraic while it is a
    predicate symbol or a constructor of a primitive predicate, all its
    rules have algebraic right-hand sides, do not duplicate variables,
    admit a recursive-path-order orientation (unless termination is
    asserted), and mention no non-algebraic symbol.  Returns the two
    parts plus, for each demoted symbol, the reason it left the
    algebraic part.  `orientation` is the run's table and `classes` its
    predicate classes (see `check_admissible`)."""
    rules = RuleSet.of(rules)
    _, defined = sig.free_and_defined(rules)
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
    # A round demotes every algebraic symbol whose rules mention a symbol
    # demoted before the round: one that survived the round before can
    # only meet the symbols demoted in it, so those drive the next round,
    # through the reverse index of what each symbol's rules mention.
    # With nothing demoted yet there is no round, and no index is built.
    demoted = defined - fa
    mentions: Dict[str, Set[str]] = {}
    mentioned_by: Dict[str, List[str]] = {}
    for g in fa if demoted else ():
        mentions[g] = set().union(*(symbols_of(r.lhs) | symbols_of(r.rhs)
                                    for r in by_head[g]))
        for s in mentions[g]:
            mentioned_by.setdefault(s, []).append(g)
    while demoted:
        hit = {g for s in demoted for g in mentioned_by.get(s, ())
               if g in fa}
        for g in sorted(hit):
            reasons[g] = ("rules mention the non-algebraic symbol "
                          f"{min(mentions[g] & demoted)}")
        fa -= hit
        demoted = hit
    return frozenset(fa), frozenset(defined - fa), reasons


TERMINATION_ASSERTED = TriState("HOLDS", "termination asserted by pragma")


def algebraic_termination(sig: Signature, fa_rules: Sequence[RewriteRule],
                          orientation: Orientation,
                          assume_terminating: bool = False) -> TriState:
    """A4's strong-normalization obligation on the rules of the
    algebraic part: the recursive-path-order trace read from
    `orientation`, or TERMINATION_ASSERTED under the pragma."""
    cycle = sig.precedence.find_cycle()
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


class AdmissibilityReport(NamedTuple):
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
    s_conditions: Dict[str, Mapping[str, ConditionResult]]
    overall: OverallVerdict
    assertions: List[str]
    meaning: str = ("an ADMISSIBLE system is strongly normalizing: "
                    "no term admits an infinite reduction sequence")

    def summary_dict(self):
        """The structured report without its `s_conditions` rows."""
        return {
            "a1": self.a1.to_dict(),
            "a2": {"violations": list(self.a2_violations)},
            "a3": {"branch": self.a3_branch,
                   "properties": self.a3_properties.to_dict()},
            "a4": {
                "algebraic": sorted(self.a4_algebraic),
                "non_algebraic": sorted(self.a4_non_algebraic),
                # what the partition guarantees of the algebraic part
                "algebraic_properties": PARTITION_GUARANTEES.to_dict(),
                "non_algebraic_properties":
                    self.a4_non_algebraic_props.to_dict(),
                "strong_normalization": self.a4_sn.to_dict(),
                "separation": HOLDS.to_dict(),
                "demotions": dict(sorted(self.a4_demotions.items())),
            },
            "assertions": list(self.assertions),
            "overall": self.overall.value,
            "meaning": self.meaning,
        }

    def to_dict(self):
        d = self.summary_dict()
        d["s_conditions"] = {rule: s_row(conds) for rule, conds
                             in sorted(self.s_conditions.items())}
        return d

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
    # the one typing context of A3, A4 and S1-S5, and the classes of its
    # free predicates, which A3 and A4 both read
    tc = TypeChecker(sig, rules, fuel, confluent=a1.positive)
    classes = predicate_classes(sig, rules)

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
        a3_props = system_properties(gset, dfb_rules, tc, classes)
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
                                             assume_terminating, orientation,
                                             classes)
    fa_rules = [r for r in rules if r.head_name() in fa]
    fna_rules = [r for r in rules if r.head_name() in fna]
    fna_props = system_properties(fna, fna_rules, tc, classes,
                                  which=("safe", "recursive"))
    a4_sn = algebraic_termination(sig, fa_rules, orientation,
                                  assume_terminating)
    if a4_sn is TERMINATION_ASSERTED:
        assertions.append("termination of the algebraic part asserted "
                          "by pragma")
    if not (a4_sn.holds and fna_props.safe.holds
            and fna_props.recursive.holds):
        failures.append("A4")

    # S conditions ----------------------------------------------------
    # one read-only row per distinct row of results, shared by its rules
    s_conditions: Dict[str, Mapping[str, ConditionResult]] = {}
    rows: Dict[tuple, Mapping[str, ConditionResult]] = {}
    for r in rules:
        conds = check_type_preservation(r, tc)
        key = tuple(conds.items())
        row = rows.get(key)
        if row is None:
            row = rows[key] = MappingProxyType(conds)
        s_conditions[r.name] = row
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
