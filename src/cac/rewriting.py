"""First-order matching, beta/rule reduction, normalization, critical
pairs and the confluence verdict."""

from __future__ import annotations

import collections.abc
import enum
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .orderings import Orientation
from .terms import (Abs, App, CacError, Environment, FuelExhausted, Position,
                    Prod, Symb, Term, Var, Variable, _children, _rebuild,
                    alpha_eq, close, free_vars, is_algebraic, occurrences,
                    open_, open_fresh, replace_at, subst_apply, symbols_of,
                    var_counts)


class RuleError(CacError):
    pass


@dataclass(frozen=True)
class RewriteRule:
    """l -> r with the annotation environment Gamma and substitution rho
    of the type-preservation conditions."""

    name: str
    lhs: Term
    rhs: Term
    ann_env: Environment = Environment()
    ann_subst: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (is_algebraic(self.lhs) and isinstance(self.lhs, Symb)):
            raise RuleError("bad-lhs", f"{self.name}: left-hand side must be an "
                                       "algebraic term headed by a symbol")
        extra = free_vars(self.rhs) - free_vars(self.lhs)
        if extra:
            raise RuleError("bad-rhs", f"{self.name}: right-hand side has free "
                                       f"variables {sorted(v.name for v in extra)} "
                                       "not in the left-hand side")

    def head_name(self) -> str:
        return self.lhs.name  # type: ignore[union-attr]

    def lhs_args(self) -> Tuple[Term, ...]:
        return self.lhs.args  # type: ignore[union-attr]

    def __str__(self):
        return f"{self.name}: {self.lhs} -> {self.rhs}"


class RuleSet(collections.abc.Sequence):
    """Rules in declaration order, indexed by the head symbol of their
    left-hand side.  A rule can only apply at, or overlap into, a
    subterm headed by its own head, so lookups by head replace scans
    over every rule (Graf, Term Indexing, LNCS 1053)."""

    __slots__ = ("rules", "by_head", "heads")

    def __init__(self, rules: Iterable[RewriteRule] = ()):
        self.rules: Tuple[RewriteRule, ...] = tuple(rules)
        by_head: Dict[str, List[RewriteRule]] = {}
        for r in self.rules:
            by_head.setdefault(r.head_name(), []).append(r)
        self.by_head: Dict[str, Tuple[RewriteRule, ...]] = {
            h: tuple(rs) for h, rs in by_head.items()}
        self.heads: FrozenSet[str] = frozenset(by_head)

    @classmethod
    def of(cls, rules: Iterable[RewriteRule]) -> "RuleSet":
        return rules if isinstance(rules, RuleSet) else cls(rules)

    def __len__(self):
        return len(self.rules)

    def __getitem__(self, i):
        return self.rules[i]

    def __iter__(self):
        return iter(self.rules)


def match_first_order(pattern: Term, subject: Term,
                      sigma: Optional[dict] = None) -> Optional[dict]:
    """Match an algebraic pattern against a subject.  Repeated pattern
    variables require alpha-equal images."""
    if sigma is None:
        sigma = {}
    if isinstance(pattern, Var):
        bound = sigma.get(pattern.var)
        if bound is None:
            sigma[pattern.var] = subject
            return sigma
        return sigma if alpha_eq(bound, subject) else None
    if isinstance(pattern, Symb):
        if not (isinstance(subject, Symb) and subject.name == pattern.name
                and len(subject.args) == len(pattern.args)):
            return None
        for p, s in zip(pattern.args, subject.args):
            if match_first_order(p, s, sigma) is None:
                return None
        return sigma
    raise RuleError("bad-pattern", "pattern must be algebraic")


def _walk(t: Term, sigma: dict) -> Term:
    while isinstance(t, Var) and t.var in sigma:
        t = sigma[t.var]
    return t


def _occurs(v: Variable, t: Term, sigma: dict) -> bool:
    t = _walk(t, sigma)
    if isinstance(t, Var):
        return t.var == v
    if isinstance(t, Symb):
        return any(_occurs(v, a, sigma) for a in t.args)
    return False


def _resolve(t: Term, sigma: dict) -> Term:
    t = _walk(t, sigma)
    if isinstance(t, Symb):
        return Symb(t.name, tuple(_resolve(a, sigma) for a in t.args))
    return t


def unify(a: Term, b: Term, sigma: Optional[dict] = None) -> Optional[dict]:
    """First-order unification of algebraic terms (shared variable space).
    The pairs are solved depth-first, left to right, so the bindings are
    made in the order of a recursive descent."""
    if sigma is None:
        sigma = {}
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        x, y = _walk(x, sigma), _walk(y, sigma)
        if isinstance(x, Var) and isinstance(y, Var) and x.var == y.var:
            continue
        if isinstance(y, Var) and not isinstance(x, Var):
            x, y = y, x
        if isinstance(x, Var):
            if _occurs(x.var, y, sigma):
                return None
            sigma[x.var] = y
        elif isinstance(x, Symb) and isinstance(y, Symb) \
                and x.name == y.name and len(x.args) == len(y.args):
            todo += reversed(tuple(zip(x.args, y.args)))
        else:
            return None
    # resolve chains so images are fully substituted
    return {v: _resolve(u, sigma) for v, u in sigma.items()}


def rename_apart(rule: RewriteRule) -> RewriteRule:
    ren = {v: Var(Variable.fresh(v.name, v.sort)) for v in free_vars(rule.lhs)}
    return RewriteRule(rule.name, subst_apply(rule.lhs, ren),
                       subst_apply(rule.rhs, ren))


# ---------------------------------------------------------------------------
# reduction

def _root_reducts(t: Term, rules: RuleSet) -> Iterator[Term]:
    """The reducts of t at its root, lazily, in order: the rules of its
    head in declaration order, then beta."""
    if isinstance(t, Symb):
        for rule in rules.by_head.get(t.name, ()):
            sigma = match_first_order(rule.lhs, t)
            if sigma is not None:
                yield subst_apply(rule.rhs, sigma)
    elif isinstance(t, App) and isinstance(t.head, Abs):
        yield open_(t.head.body, t.arg)


def _reducts(t: Term, rules: RuleSet) -> Iterator[Term]:
    """Every one-step reduct of t, lazily, in leftmost-outermost order:
    the reducts at the root, then those of the children in order, a
    binder's domain before its body.  Only a symbol whose head has
    rules and an application of an abstraction have reducts at the
    root, so only they pay for a `_root_reducts` generator."""
    if isinstance(t, Symb):
        if t.name in rules.by_head:
            yield from _root_reducts(t, rules)
        args = t.args
        for i, a in enumerate(args):
            for r in _reducts(a, rules):
                yield Symb(t.name, args[:i] + (r,) + args[i + 1:])
    elif isinstance(t, App):
        if isinstance(t.head, Abs):
            yield from _root_reducts(t, rules)
        for r in _reducts(t.head, rules):
            yield App(r, t.arg)
        for r in _reducts(t.arg, rules):
            yield App(t.head, r)
    elif isinstance(t, (Abs, Prod)):
        node = type(t)
        raw = t.body if node is Abs else t.codomain
        for r in _reducts(t.domain, rules):
            yield node(r, raw, t.hint)
        v, body = open_fresh(t)
        for r in _reducts(body, rules):
            yield node(t.domain, close(r, v), t.hint)


def reduce_one(t: Term, rules: Sequence[RewriteRule]) -> List[Term]:
    """All one-step reducts of t (rule steps and beta steps, anywhere),
    without alpha-equal duplicates, each where it first occurs.  Alpha
    equality is structural equality, so a dict drops the duplicates."""
    return list(dict.fromkeys(_reducts(t, RuleSet.of(rules))))


def step(t: Term, rules: Sequence[RewriteRule]) -> Optional[Term]:
    """Leftmost-outermost single step: the first of t's reducts.  None
    when t is in normal form."""
    return next(_reducts(t, RuleSet.of(rules)), None)


def _redex_above(t: Term, path: List[list], ruled: List[int],
                 rules: RuleSet) -> Tuple[Optional[int], Optional[Term]]:
    """After a contraction that left t at the focus: the outermost
    ancestor that is now a redex, as its index in `path`, with its first
    reduct; (None, None) when there is none.  Only the ancestors whose
    head has rules (`ruled`, outermost first) can have become redexes,
    and the parent application when t is its head and an abstraction."""
    candidates = list(ruled)
    if path and isinstance(t, Abs) and isinstance(path[-1][0], App) \
            and path[-1][2] == 0:
        candidates.append(len(path) - 1)
    if not candidates:
        return None, None
    subterms = {}
    for j in range(len(path) - 1, candidates[0] - 1, -1):
        node, kids, i, v = path[j]
        kids = kids.copy()
        kids[i] = t if v is None else close(t, v)
        t = subterms[j] = _rebuild(node, kids)
    for k in candidates:
        r = next(_root_reducts(subterms[k], rules), None)
        if r is not None:
            return k, r
    return None, None


def normalize(t: Term, rules: Sequence[RewriteRule], fuel: int = 10000) -> Term:
    """Leftmost-outermost normal form; raises FuelExhausted rather than
    ever returning a reducible term.

    One left-to-right pass over t with a zipper of its ancestors (Huet,
    The Zipper, JFP 1997).  Everything left of the focus is normal and
    no ancestor is a redex, so after a contraction only the ancestors
    `_redex_above` names are examined before the pass goes on inside the
    contractum.  Fuel is one unit per contraction."""
    rules = RuleSet.of(rules)
    # one frame [node, children, index, variable] per ancestor of the
    # focus: its children (those left of `index` normal, those right of
    # it untouched), the index of the child holding the focus, and the
    # variable that opens a binder's body when the focus is inside it
    path: List[list] = []
    # the index in path of each ancestor whose head has rules
    ruled: List[int] = []
    steps = 0
    r = next(_root_reducts(t, rules), None)
    while True:
        if r is not None:
            if steps >= fuel:
                raise FuelExhausted("normalization")
            steps += 1
            t = r
            k, r = _redex_above(t, path, ruled, rules)
            if k is None:
                r = next(_root_reducts(t, rules), None)
            else:
                del path[k:]
                while ruled and ruled[-1] >= k:
                    ruled.pop()
            continue
        kids = _children(t)
        if kids:
            if isinstance(t, Symb) and t.name in rules.by_head:
                ruled.append(len(path))
            path.append([t, kids, 0, None])
            t = kids[0]
        else:  # t is normal: fill it in, then move right or up
            while path:
                frame = path[-1]
                node, kids, i, v = frame
                kids[i] = t if v is None else close(t, v)
                i += 1
                if i < len(kids):
                    frame[2] = i
                    if isinstance(node, (Abs, Prod)):
                        # open the body once, under the normal domain
                        frame[3], t = open_fresh(_rebuild(node, kids))
                    else:
                        t = kids[i]
                    break
                path.pop()
                if ruled and ruled[-1] == len(path):
                    ruled.pop()
                t = _rebuild(node, kids)
            else:
                return t
        r = next(_root_reducts(t, rules), None)


def _next_level(frontier: set, seen: set, rules: RuleSet,
                budget: int) -> Tuple[set, int]:
    """The distinct one-step reducts of the frontier that `seen` lacks,
    which join `seen`, and the budget left after paying one unit per
    distinct reduct of each frontier term.  Each reduct is hashed once,
    by `dict.fromkeys`; the set operations reuse the stored hashes."""
    level = set()
    for x in frontier:
        reducts = dict.fromkeys(_reducts(x, rules))
        budget -= len(reducts)
        if budget < 0:
            raise FuelExhausted("joinability search")
        level.update(reducts)
    level = level - seen
    seen |= level
    return level, budget


def joinable(t: Term, u: Term, rules: Sequence[RewriteRule],
             fuel: int = 10000, confluent: bool = False) -> bool:
    """Do t and u have a common reduct?  Under a positive confluence
    verdict this is normalize-and-compare; otherwise a bounded
    breadth-first search of both reduction graphs, whose visited terms
    are kept in hash sets (alpha equality is structural equality).  A
    level costs the same and yields the same next level in any order,
    so the frontiers are sets too."""
    if alpha_eq(t, u):
        return True
    rules = RuleSet.of(rules)
    if confluent:
        return alpha_eq(normalize(t, rules, fuel), normalize(u, rules, fuel))
    seen_t, seen_u = {t}, {u}
    frontier_t, frontier_u = {t}, {u}
    budget = fuel

    while frontier_t or frontier_u:
        if not seen_t.isdisjoint(seen_u):
            return True
        frontier_t, budget = _next_level(frontier_t, seen_t, rules, budget)
        frontier_u, budget = _next_level(frontier_u, seen_u, rules, budget)
    return not seen_t.isdisjoint(seen_u)


# ---------------------------------------------------------------------------
# critical pairs and confluence

@dataclass(frozen=True)
class CriticalPair:
    peak: Term
    left_reduct: Term
    right_reduct: Term
    overlap_position: Position
    rules: Tuple[str, str]

    def __str__(self):
        return (f"peak {self.peak} -> {self.left_reduct} | {self.right_reduct}"
                f" (rules {self.rules[0]}/{self.rules[1]} at {list(self.overlap_position)})")


def left_linear(rule: RewriteRule) -> bool:
    return all(n == 1 for n in var_counts(rule.lhs).values())


def _overlaps(r1: RewriteRule, r2: RewriteRule,
              include_root: bool) -> List[CriticalPair]:
    """Overlap r2's lhs into non-variable positions of r1's lhs."""
    out = []
    for p, sub in occurrences(r1.lhs):
        if not isinstance(sub, Symb):
            continue
        if p == () and not include_root:
            continue
        sigma = unify(sub, r2.lhs)
        if sigma is None:
            continue
        peak = subst_apply(r1.lhs, sigma)
        left = subst_apply(r1.rhs, sigma)
        right = subst_apply(replace_at(r1.lhs, p, r2.rhs), sigma)
        out.append(CriticalPair(peak, left, right, p, (r1.name, r2.name)))
    return out


def critical_pairs(rules: Sequence[RewriteRule]) -> List[CriticalPair]:
    """All overlaps between renamed-apart rule pairs at non-variable
    positions.  Rule/beta pairs do not exist: left-hand sides are
    algebraic, hence abstraction-free.

    Rule j can overlap into rule i only at a subterm of lhs i headed by
    the head of j, so a pair is tried only when one head occurs in the
    other's lhs.  Pairs come out ordered by i, then j, then direction."""
    rules = RuleSet.of(rules)
    renamed = [rename_apart(r) for r in rules]
    syms = [symbols_of(r.lhs) for r in rules]
    at_head: Dict[str, List[int]] = {}     # rules with this head
    mentioning: Dict[str, List[int]] = {}  # rules whose lhs has this symbol
    for k, r in enumerate(rules):
        at_head.setdefault(r.head_name(), []).append(k)
        for g in syms[k]:
            mentioning.setdefault(g, []).append(k)
    out: List[CriticalPair] = []
    for i, ri in enumerate(renamed):
        head = ri.head_name()
        # self-overlaps at proper positions only
        if any(head in symbols_of(a) for a in ri.lhs_args()):
            out.extend(_overlaps(ri, rename_apart(rules[i]),
                                 include_root=False))
        partners = set(mentioning.get(head, ()))
        for g in syms[i]:
            partners.update(at_head.get(g, ()))
        for j in sorted(j for j in partners if j > i):
            rj = renamed[j]
            out.extend(_overlaps(ri, rj, include_root=True))
            out.extend(_overlaps(rj, ri, include_root=False))
    return out


class ConfluenceLevel(enum.Enum):
    ORTHOGONAL = "ORTHOGONAL"
    NEWMAN = "NEWMAN"
    ASSERTED = "ASSERTED"
    UNKNOWN = "UNKNOWN"


@dataclass
class ConfluenceVerdict:
    level: ConfluenceLevel
    evidence: List[str] = field(default_factory=list)

    @property
    def positive(self) -> bool:
        return self.level != ConfluenceLevel.UNKNOWN

    def to_dict(self):
        return {"level": self.level.value, "evidence": list(self.evidence)}


def confluence_check(rules: Sequence[RewriteRule],
                     orientation: Optional[Orientation] = None,
                     fuel: int = 10000,
                     assume_confluent: bool = False) -> ConfluenceVerdict:
    """ORTHOGONAL: left-linear with no critical pairs (van Oostrom gives
    confluence of the combination with beta).  NEWMAN: the recursive
    path order of `orientation` orients every rule, so the rules
    terminate, and all critical pairs join; without an orientation table
    NEWMAN is not tried.  ASSERTED: user flag.  Otherwise UNKNOWN."""
    rules = RuleSet.of(rules)
    if not rules:
        return ConfluenceVerdict(ConfluenceLevel.ORTHOGONAL, ["empty rule set"])
    ll = all(left_linear(r) for r in rules)
    cps = critical_pairs(rules)
    if ll and not cps:
        return ConfluenceVerdict(ConfluenceLevel.ORTHOGONAL,
                                 ["left-linear", "no critical pairs"])
    if (orientation is not None
            and orientation.terminates(rules) is not None):
        evidence = ["termination by recursive path order"]
        all_join = True
        for cp in cps:
            try:
                ok = joinable(cp.left_reduct, cp.right_reduct, rules, fuel)
            except FuelExhausted:
                ok = False
            evidence.append(f"critical pair {cp}: "
                            + ("joinable" if ok else "NOT joinable"))
            if not ok:
                all_join = False
        if all_join:
            return ConfluenceVerdict(ConfluenceLevel.NEWMAN, evidence)
    if assume_confluent:
        return ConfluenceVerdict(ConfluenceLevel.ASSERTED,
                                 ["assume-confluent pragma"])
    return ConfluenceVerdict(ConfluenceLevel.UNKNOWN,
                             [f"{len(cps)} critical pair(s); "
                              + ("left-linear" if ll else "non-left-linear")])
