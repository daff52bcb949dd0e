"""First-order matching, beta/rule reduction, normalization, critical
pairs and the confluence verdict."""

from __future__ import annotations

import collections.abc
import enum
from typing import (Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .orderings import Orientation
from .terms import (Abs, App, BVar, CacError, Environment, FuelExhausted,
                    Position, Prod, SortT, Symb, Term, Var, Variable,
                    _children, _rebuild, close, free_vars, is_algebraic,
                    occurrences, open_, open_fresh, replace_at, subst_apply,
                    symbols_of, var_counts)


class RuleError(CacError):
    pass


class _RuleFields(NamedTuple):
    name: str
    lhs: Term
    rhs: Term
    ann_env: Environment
    ann_subst: dict


_NO_ENV = Environment()


class RewriteRule(_RuleFields):
    """l -> r with the annotation environment Gamma and substitution rho
    of the type-preservation conditions."""

    __slots__ = ()

    def __new__(cls, name: str, lhs: Term, rhs: Term,
                ann_env: Environment = _NO_ENV,
                ann_subst: Optional[dict] = None):
        if not (is_algebraic(lhs) and isinstance(lhs, Symb)):
            raise RuleError("bad-lhs", f"{name}: left-hand side must be an "
                                       "algebraic term headed by a symbol")
        extra = free_vars(rhs) - free_vars(lhs)
        if extra:
            raise RuleError("bad-rhs", f"{name}: right-hand side has free "
                                       f"variables {sorted(v.name for v in extra)} "
                                       "not in the left-hand side")
        return super().__new__(cls, name, lhs, rhs, ann_env,
                               {} if ann_subst is None else ann_subst)

    @classmethod
    def _make(cls, fields):
        # `_replace` builds through `_make`, so it is checked here too
        return cls(*fields)

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
        return sigma if bound == subject else None
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
    """`rule` with fresh variables and no annotations.  Renaming keeps
    the lhs algebraic and FV(rhs) within FV(lhs), so the copy is built
    without `RewriteRule`'s checks."""
    ren = {v: Var(Variable.fresh(v.name, v.sort)) for v in free_vars(rule.lhs)}
    return _RuleFields.__new__(RewriteRule, rule.name,
                               subst_apply(rule.lhs, ren),
                               subst_apply(rule.rhs, ren), _NO_ENV, {})


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
    without alpha-equal duplicates, each where it first occurs.  Alpha-
    equal reducts share a `_Search` handle, so deduping hashes no term
    whole and has no depth limit."""
    rules = RuleSet.of(rules)
    search, out = _Search(rules), {}
    for r in _reducts(t, rules):
        out.setdefault(search.intern(r), r)
    return list(out.values())


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
        node, kids, i, v, _ = path[j]
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
    contractum.  Fuel is one unit per contraction.

    A subterm s entered at a free slot, one that no ancestor can react
    to, normalizes as it would at the root: no ancestor has rules, and
    the slot is neither the head of an application nor a freshly opened
    binder body.  So the pass remembers, for this call, the normal form
    of each such s that took at least one contraction, and the number
    of contractions, keyed by the id of s (which the entry keeps alive).
    When s, the same object, fills a free slot again, the pass takes its
    normal form and charges the contractions to the fuel, raising
    exactly where walking s again would have raised."""
    rules = RuleSet.of(rules)
    # one frame [node, children, index, variable, entry] per ancestor of
    # the focus: its children (those left of `index` normal, those right
    # of it untouched), the index of the child holding the focus, the
    # variable that opens a binder's body when the focus is inside it,
    # and the node's slot's memo entry, as `entry` below
    path: List[list] = []
    # the index in path of each ancestor whose head has rules
    ruled: List[int] = []
    # id(s) -> (s, normal form of s, contractions it took)
    memo: Dict[int, Tuple[Term, Term, int]] = {}
    # (s, steps when s entered) for the focus's slot when it is free and
    # not the root; a contraction keeps it, a cut at a frame takes over
    # the frame's
    entry: Optional[Tuple[Term, int]] = None
    steps = 0
    known = False  # whether the focus is a remembered normal form
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
                entry = path[k][4]
                del path[k:]
                while ruled and ruled[-1] >= k:
                    ruled.pop()
            continue
        kids = () if known else _children(t)
        known = False
        if kids:
            if isinstance(t, Symb) and t.name in rules.by_head:
                ruled.append(len(path))
            path.append([t, kids, 0, None, entry])
            free = not ruled and t.__class__ is not App
            t = kids[0]
        else:  # t is normal: fill it in, then move right or up
            while True:
                if entry is not None and steps > entry[1]:
                    memo[id(entry[0])] = (entry[0], t, steps - entry[1])
                if not path:
                    return t
                frame = path[-1]
                node, kids, i, v, _ = frame
                kids[i] = t if v is None else close(t, v)
                i += 1
                if i < len(kids):
                    frame[2] = i
                    if isinstance(node, (Abs, Prod)):
                        # open the body once, under the normal domain
                        frame[3], t = open_fresh(_rebuild(node, kids))
                        free = False
                    else:
                        t = kids[i]
                        free = not ruled
                    break
                path.pop()
                if ruled and ruled[-1] == len(path):
                    ruled.pop()
                t = _rebuild(node, kids)
                entry = frame[4]
        entry = None
        if free:
            hit = memo.get(id(t))
            if hit is not None:
                steps += hit[2]
                if steps > fuel:
                    raise FuelExhausted("normalization")
                t, known = hit[1], True
                continue
            entry = (t, steps)
        r = next(_root_reducts(t, rules), None)


class _Search:
    """The terms of one joinability search, hash-consed (Filliâtre and
    Conchon, Type-safe modular hash-consing, 2006).  A term's handle is
    its index in `term`.  A term is keyed by its head and its children's
    handles, so building, hashing and deduping it costs O(arity), and
    alpha-equal terms share a handle: keys leave out the binder hint, as
    `==` does.  `handle` finds the handle of a canonical term, or of a
    child of one, from its `id`; `term` keeps every canonical term alive,
    and with it its children, so no id is reused while the search runs.
    `memo` holds each canonical term's distinct one-step reducts once
    computed, so a subterm shared by many terms is matched against the
    rules once.  `seen` has bit 1 for each term visited from t and bit 2
    for each visited from u.  Both walks keep their own stacks, so
    neither has a depth limit."""

    __slots__ = ("rules", "handle", "table", "term", "memo", "seen")

    def __init__(self, rules: RuleSet):
        self.rules = rules
        self.handle: Dict[int, int] = {}   # id of a term -> handle
        self.table: Dict[tuple, int] = {}  # (head, child handles) -> handle
        self.term: List[Term] = []         # handle -> canonical term
        self.memo: List[Optional[Tuple[int, ...]]] = []  # handle -> reducts
        self.seen = bytearray()            # handle -> sides that visited it

    def _make(self, t: Term, hs: list, kids: Optional[list] = None) -> int:
        """The handle of t's node over the canonical children `hs`, keyed
        by its head and `hs` (a leaf by its value), never by a binder
        hint.  A new canonical term is t itself, whose children are
        `kids`; it keeps them alive, so from now on a child that is not
        the canonical one is found by its id too.  Without `kids`, t is
        rebuilt over the canonical children."""
        if t.__class__ is Symb:
            key = (t.name, *hs)
        elif hs:
            key = (type(t), *hs)
        elif t.__class__ is Var:
            key = (Var, t.var)
        elif t.__class__ is BVar:
            key = (BVar, t.index)
        else:
            key = (SortT, t.sort.value)
        h = self.table.get(key)
        if h is None:
            handle, term = self.handle, self.term
            if kids is None:
                kids = list(map(term.__getitem__, hs))
                t = _rebuild(t, kids)
            handle.update(zip(map(id, kids), hs))
            h = handle[id(t)] = self.table[key] = len(term)
            term.append(t)
            # a leaf has no reducts unless it is a symbol with rules
            self.memo.append(None if hs or t.__class__ is Symb
                             and t.name in self.rules.by_head else ())
            self.seen.append(0)
        return h

    def intern(self, t: Term) -> int:
        """The handle of the canonical term alpha-equal to t."""
        handle, make = self.handle, self._make
        h = handle.get(id(t))
        if h is not None:
            return h
        # one frame (node, its children, the handles of those done) per
        # ancestor of the subterm being interned
        stack = [(t, _children(t), [])]
        while True:
            x, kids, hs = stack[-1]
            for c in kids[len(hs):]:
                h = handle.get(id(c))
                if h is None:
                    grandkids = _children(c)
                    if grandkids:
                        stack.append((c, grandkids, []))
                        break
                    h = make(c, grandkids, grandkids)
                hs.append(h)
            else:
                h = make(x, hs, kids)
                stack.pop()
                if not stack:
                    return h
                stack[-1][2].append(h)

    def reducts(self, h: int) -> Tuple[int, ...]:
        """The handles of the distinct one-step reducts of the canonical
        term h.  Its descendants are expanded first, children before
        parents, so each expansion reads its children's reducts from
        `memo`."""
        memo = self.memo
        got = memo[h]
        if got is not None:
            return got
        handle, term = self.handle, self.term
        stack = [h]
        while stack:
            g = stack[-1]
            if memo[g] is not None:
                stack.pop()
                continue
            x = term[g]
            hs = list(map(handle.__getitem__, map(id, _children(x))))
            # a binder's body is expanded opened, by `_expand`
            below = hs[:1] if isinstance(x, (Abs, Prod)) else hs
            if None in map(memo.__getitem__, below):
                stack += below
            else:
                stack.pop()
                memo[g] = self._expand(x, hs)
        return memo[h]

    def _expand(self, t: Term, hs: List[int]) -> Tuple[int, ...]:
        """`_reducts` of the canonical term t, deduped, from the memoized
        reducts of its children `hs`."""
        memo, make, out = self.memo, self._make, {}
        if (t.__class__ is Symb and t.name in self.rules.by_head
                or t.__class__ is App and t.head.__class__ is Abs):
            for r in _root_reducts(t, self.rules):
                out[self.intern(r)] = None
        binder = isinstance(t, (Abs, Prod))
        for i in range(1 if binder else len(hs)):
            for r in memo[hs[i]]:
                out[make(t, hs[:i] + [r] + hs[i + 1:])] = None
        if binder:
            v, body = open_fresh(t)
            for r in self.reducts(self.intern(body)):
                closed = self.intern(close(self.term[r], v))
                out[make(t, [hs[0], closed])] = None
        return tuple(out)

    def next_level(self, frontier: List[int], side: int,
                   budget: int) -> Tuple[List[int], int]:
        """The distinct one-step reducts of the frontier that `side` has
        not visited, now marked visited, and the budget left after paying
        one unit per distinct reduct of each frontier term."""
        seen, level = self.seen, []
        for h in frontier:
            reducts = self.reducts(h)
            budget -= len(reducts)
            if budget < 0:
                raise FuelExhausted("joinability search")
            for r in reducts:
                if not seen[r] & side:
                    seen[r] |= side
                    level.append(r)
        return level, budget


def joinable(t: Term, u: Term, rules: Sequence[RewriteRule],
             fuel: int = 10000, confluent: bool = False) -> bool:
    """Do t and u have a common reduct?  Under a positive confluence
    verdict this is normalize-and-compare; otherwise a bounded
    breadth-first search of both reduction graphs over hash-consed
    terms (`_Search`): they meet when a term is marked visited from both
    sides.  A level costs the same and yields the same next level in any
    order."""
    rules = RuleSet.of(rules)
    if confluent:
        return t == u or (normalize(t, rules, fuel)
                           == normalize(u, rules, fuel))
    search = _Search(rules)
    frontier_t, frontier_u = [search.intern(t)], [search.intern(u)]
    # alpha-equal terms share a handle, whose mark is then 3 at once
    search.seen[frontier_t[0]] = 1
    search.seen[frontier_u[0]] |= 2
    budget = fuel

    while frontier_t or frontier_u:
        if 3 in search.seen:  # a term visited from both sides
            return True
        frontier_t, budget = search.next_level(frontier_t, 1, budget)
        frontier_u, budget = search.next_level(frontier_u, 2, budget)
    return 3 in search.seen


# ---------------------------------------------------------------------------
# critical pairs and confluence

class CriticalPair(NamedTuple):
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
    other's lhs.  Pairs come out ordered by i, then j, then direction.
    Rule i is renamed once it has a pair to try, and its partner afresh
    for each pair, so no renamed copy outlives the pairs it serves."""
    rules = RuleSet.of(rules)
    syms = [symbols_of(r.lhs) for r in rules]
    at_head: Dict[str, List[int]] = {}     # rules with this head
    mentioning: Dict[str, List[int]] = {}  # rules whose lhs has this symbol
    for k, r in enumerate(rules):
        at_head.setdefault(r.head_name(), []).append(k)
        for g in syms[k]:
            mentioning.setdefault(g, []).append(k)
    out: List[CriticalPair] = []
    for i, r in enumerate(rules):
        head = r.head_name()
        # self-overlaps at proper positions only
        inner = any(head in symbols_of(a) for a in r.lhs_args())
        partners = set(mentioning.get(head, ()))
        for g in syms[i]:
            partners.update(at_head.get(g, ()))
        later = sorted(j for j in partners if j > i)
        if not (inner or later):
            continue
        ri = rename_apart(r)
        if inner:
            out.extend(_overlaps(ri, rename_apart(r), include_root=False))
        for j in later:
            rj = rename_apart(rules[j])
            out.extend(_overlaps(ri, rj, include_root=True))
            out.extend(_overlaps(rj, ri, include_root=False))
    return out


class ConfluenceLevel(enum.Enum):
    ORTHOGONAL = "ORTHOGONAL"
    NEWMAN = "NEWMAN"
    ASSERTED = "ASSERTED"
    UNKNOWN = "UNKNOWN"


class ConfluenceVerdict(NamedTuple):
    level: ConfluenceLevel
    evidence: List[str]

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
