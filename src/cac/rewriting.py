"""First-order matching, beta/rule reduction, normalization, critical
pairs and the confluence verdict."""

from __future__ import annotations

import collections.abc
import enum
from operator import is_
from typing import (Dict, Iterable, Iterator, KeysView, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .orderings import Orientation
from .terms import (EPSILON, Abs, App, BVar, CacError, Environment,
                    FuelExhausted, Position, Prod, Sort, SortT, Symb, Term,
                    Var, Variable, _children, _plug, _rebuild, close,
                    free_vars, is_algebraic, open_, open_fresh, replace_at,
                    subst_apply)


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


class RuleSet(collections.abc.Sequence):
    """Rules in declaration order, indexed by the head symbol of their
    left-hand side.  A rule can only apply at, or overlap into, a
    subterm headed by its own head, so lookups by head replace scans
    over every rule (Graf, Term Indexing, LNCS 1053).  `add` grows the
    index in place, so a file being loaded keeps one index of its rules
    rather than building one per declaration."""

    __slots__ = ("rules", "by_head", "heads")

    def __init__(self, rules: Iterable[RewriteRule] = ()):
        self.rules: List[RewriteRule] = list(rules)
        by_head: Dict[str, List[RewriteRule]] = {}
        for r in self.rules:
            by_head.setdefault(r.head_name(), []).append(r)
        self.by_head: Dict[str, Tuple[RewriteRule, ...]] = {
            h: tuple(rs) for h, rs in by_head.items()}
        self.heads: KeysView[str] = self.by_head.keys()

    def add(self, rule: RewriteRule) -> None:
        """Index `rule` after the others, in time linear in the rules of
        its head."""
        self.rules.append(rule)
        head = rule.head_name()
        self.by_head[head] = self.by_head.get(head, ()) + (rule,)

    @classmethod
    def of(cls, rules: Iterable[RewriteRule]) -> "RuleSet":
        return rules if isinstance(rules, RuleSet) else cls(rules)

    def __len__(self):
        return len(self.rules)

    def __getitem__(self, i):
        return self.rules[i]

    def __iter__(self):
        return iter(self.rules)


def match_first_order(pattern: Term, subject: Term) -> Optional[dict]:
    """Match an algebraic pattern against a subject, left to right, with
    a stack of the argument pairs still to match, one iterator per open
    symbol.  Repeated pattern variables require alpha-equal images."""
    sigma: dict = {}
    stack: List[Iterator] = [iter(((pattern, subject),))]
    while stack:
        for p, s in stack[-1]:
            if p.__class__ is Var:
                bound = sigma.get(p.var)
                if bound is None:
                    sigma[p.var] = s
                elif bound != s:
                    return None
            elif p.__class__ is Symb:
                if s.__class__ is not Symb or s.name != p.name \
                        or len(s.args) != len(p.args):
                    return None
                stack.append(zip(p.args, s.args))
                break
            else:
                raise RuleError("bad-pattern", "pattern must be algebraic")
        else:
            stack.pop()
    return sigma


def unify(a: Term, b: Term) -> Optional[dict]:
    """First-order unification of algebraic terms (shared variable space).
    The pairs are solved depth-first, left to right, so the bindings are
    made in the order of a recursive descent.  Each image is kept fully
    substituted (an idempotent mgu, Robinson, JACM 1965)."""
    sigma: dict = {}
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        x = sigma.get(x.var, x) if isinstance(x, Var) else x
        y = sigma.get(y.var, y) if isinstance(y, Var) else y
        if isinstance(x, Var) and isinstance(y, Var) and x.var == y.var:
            continue
        if isinstance(y, Var) and not isinstance(x, Var):
            x, y = y, x
        if isinstance(x, Var):
            y = subst_apply(y, sigma)
            if x.var in free_vars(y):
                return None
            bind = {x.var: y}
            for v, u in sigma.items():
                sigma[v] = subst_apply(u, bind)
            sigma[x.var] = y
        elif isinstance(x, Symb) and isinstance(y, Symb) \
                and x.name == y.name and len(x.args) == len(y.args):
            todo += reversed(tuple(zip(x.args, y.args)))
        else:
            return None
    return sigma


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
    binder's domain before its body.  One prefix walk with a zipper of
    the focus's ancestors, into which `_plug` puts each reduct at the
    focus; a binder's body is opened once the walk leaves its domain."""
    by_head = rules.by_head
    path: List[list] = []  # a frame [node, children, index, variable]
    while True:
        # only these have reducts at the root
        cls = t.__class__
        if cls is Symb and t.name in by_head \
                or cls is App and t.head.__class__ is Abs:
            for r in _root_reducts(t, rules):
                yield [r, *_plug(path, r)][-1]  # the root
        kids = _children(t)
        if kids:
            path.append([t, kids, -1, None])
        while path:  # on to the next child, of t or of an ancestor
            frame = path[-1]
            node, kids, i = frame[0], frame[1], frame[2] + 1
            if i < len(kids):
                frame[2] = i
                if i and isinstance(node, (Abs, Prod)):  # a binder's body
                    frame[3], t = open_fresh(node)
                else:
                    t = kids[i]
                break
            path.pop()
        else:
            return


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
    # the ancestors from the innermost, frame len(path) - 1, outwards
    subterms = list(_plug(path, t, candidates[0]))
    for k in candidates:
        r = next(_root_reducts(subterms[len(path) - 1 - k], rules), None)
        if r is not None:
            return k, r
    return None, None


def normalize(t: Term, rules: Sequence[RewriteRule], fuel: int = 10000,
              memo: Optional[dict] = None) -> Term:
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
    exactly where walking s again would have raised.

    The root, which normalizes as itself, is remembered and looked up
    too.  A caller that normalizes many terms under the same rules may
    pass one `memo` dict to every call.  Then the memo outlives the
    call, so a term normalized before costs one lookup and its
    contractions' worth of fuel."""
    rules = RuleSet.of(rules)
    # id(s) -> (s, normal form of s, contractions it took)
    memo = {} if memo is None else memo
    hit = memo.get(id(t))
    if hit is not None:
        if hit[2] > fuel:
            raise FuelExhausted("normalization")
        return hit[1]
    # (s, steps when s entered) for the focus's slot when it is free; a
    # contraction keeps it, a cut at a frame takes over the frame's
    entry: Optional[Tuple[Term, int]] = (t, 0)
    # one frame [node, children, index, variable, entry] per ancestor of
    # the focus: its children (those left of `index` normal, those right
    # of it untouched), the index of the child holding the focus, the
    # variable that opens a binder's body when the focus is inside it,
    # and the node's slot's memo entry, as `entry` below
    path: List[list] = []
    # the index in path of each ancestor whose head has rules
    ruled: List[int] = []
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
                # a node whose children came back as they were is kept
                t = (node if node.__class__ is Symb
                     and all(map(is_, kids, node.args))
                     else _rebuild(node, kids))
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
        # only a symbol whose head has rules and an application of an
        # abstraction have reducts at the root
        cls = t.__class__
        r = (next(_root_reducts(t, rules), None)
             if cls is Symb and t.name in rules.by_head
             or cls is App and t.head.__class__ is Abs else None)


class _Search:
    """The terms of one joinability search, hash-consed (Filliâtre and
    Conchon, Type-safe modular hash-consing, 2006) with maximal sharing,
    where a node is its key (van den Brand, de Jong, Klint and Olivier,
    Efficient annotated terms, SPE 30(3), 2000).  A node's handle is the
    index of its key in `keys`.  A symbol's key is (name, *child
    handles); an application's, abstraction's or product's is
    (App | Abs | Prod, *child handles); a leaf's is (Var, variable id,
    whether its sort is □), (BVar, index) or (SortT, whether it is □).
    No key holds a binder hint, as `==` holds none, so alpha-equal terms
    share a handle, and building, hashing and deduping a node costs
    O(arity).  Rules are matched against keys and their right-hand sides
    built as keys, so a rule step builds no term.  `built` holds the
    `Term` of every leaf and of each node that a beta step or the
    opening of a binder's body needed.  `memo` holds each node's
    distinct one-step reducts once computed, so a subterm shared by many
    nodes is matched against the rules once.  `seen` has bit 1 for each
    node visited from t and bit 2 for each visited from u.  The walks
    over keys and terms keep their own stacks, so only opening and
    closing a binder's body recurses once per level of it."""

    __slots__ = ("rules", "table", "keys", "built", "memo", "seen")

    def __init__(self, rules: RuleSet):
        self.rules = rules
        self.table: Dict[tuple, int] = {}  # key -> handle
        self.keys: List[tuple] = []        # handle -> key
        self.built: Dict[int, Term] = {}   # handle -> term, once needed
        self.memo: List[Optional[Tuple[int, ...]]] = []  # handle -> reducts
        self.seen = bytearray()            # handle -> sides that visited it

    def _node(self, key: tuple) -> int:
        """The handle of the node `key`."""
        h = self.table.get(key)
        if h is None:
            h = self.table[key] = len(self.keys)
            self.keys.append(key)
            self.memo.append(None)
            self.seen.append(0)
        return h

    def _leaf(self, t: Term) -> int:
        """The handle of the leaf t: a constant, a variable, a bound
        index or a sort.  The first term of a leaf is kept as its term."""
        cls = t.__class__
        if cls is Symb:
            key = (t.name,)
        elif cls is Var:
            key = (Var, t.var.id, t.var.sort is Sort.BOX)
        elif cls is BVar:
            key = (BVar, t.index)
        else:
            key = (SortT, t.sort is Sort.BOX)
        h = self._node(key)
        if h not in self.built:
            self.built[h] = t
            # a leaf has no reducts unless it is a symbol with rules
            if cls is not Symb or t.name not in self.rules.by_head:
                self.memo[h] = ()
        return h

    def intern(self, t: Term, known: Optional[Dict[int, int]] = None) -> int:
        """The handle of t.  `known` maps the id of a term to its handle
        and gains every subterm of t, so a subterm t shares is interned
        once; whoever passes it keeps the terms it names alive."""
        if known is None:
            known = {}
        h = known.get(id(t))
        if h is not None:
            return h
        node, leaf = self._node, self._leaf
        # one frame (term, its children, the handles of those done) per
        # ancestor of the subterm being interned
        stack = [(t, _children(t), [])]
        while True:
            x, kids, hs = stack[-1]
            for c in kids[len(hs):]:
                h = known.get(id(c))
                if h is None:
                    grandkids = _children(c)
                    if grandkids:
                        stack.append((c, grandkids, []))
                        break
                    h = known[id(c)] = leaf(c)
                hs.append(h)
            else:
                if not kids:
                    h = leaf(x)
                elif x.__class__ is Symb:
                    h = node((x.name, *hs))
                else:
                    h = node((x.__class__, *hs))
                known[id(x)] = h
                stack.pop()
                if not stack:
                    return h
                stack[-1][2].append(h)

    def term(self, h: int) -> Term:
        """The term of node h, built children first with its own stack
        and kept for the rest of the search.  A binder built here has
        the hint x; no key holds one."""
        built = self.built
        t = built.get(h)
        if t is not None:
            return t
        keys, stack = self.keys, [h]
        while stack:
            g = stack[-1]
            kids = keys[g][1:]
            missing = [c for c in kids if c not in built]
            if missing:
                stack += missing
                continue
            stack.pop()
            if g not in built:  # a shared child is pushed once per parent
                head = keys[g][0]
                kids = [built[c] for c in kids]
                built[g] = (Symb(head, tuple(kids)) if head.__class__ is str
                            else head(*kids))
        return built[h]

    def _match(self, pattern: Term, h: int) -> Optional[Dict[int, int]]:
        """The bindings, variable id -> handle, under which the algebraic
        `pattern` matches node h, or None.  A repeated variable must bind
        one handle, which is to say alpha-equal images."""
        keys, sigma, todo = self.keys, {}, [(pattern, h)]
        while todo:
            p, h = todo.pop()
            if p.__class__ is Var:
                v = p.var.id
                if v not in sigma:
                    sigma[v] = h
                elif sigma[v] != h:
                    return None
            else:
                key = keys[h]
                if key[0] != p.name or len(key) != len(p.args) + 1:
                    return None
                todo += zip(p.args, key[1:])
        return sigma

    def _build(self, t: Term, sigma: Dict[int, int]) -> int:
        """The handle of t with each variable bound in sigma replaced by
        its binding.  The images are locally closed, so a binder of t
        needs no shift; t is a right-hand side, one frame per level."""
        cls = t.__class__
        if cls is Var:
            return sigma[t.var.id]
        kids = _children(t)
        if not kids:
            return self._leaf(t)
        hs = []
        for c in kids:
            hs.append(self._build(c, sigma))
        return self._node((t.name if cls is Symb else cls, *hs))

    def reducts(self, h: int) -> Tuple[int, ...]:
        """The handles of the distinct one-step reducts of node h.  Its
        descendants are expanded first, children before parents, so each
        expansion reads its children's reducts from `memo`."""
        memo = self.memo
        got = memo[h]
        if got is not None:
            return got
        keys, stack = self.keys, [h]
        while stack:
            g = stack[-1]
            if memo[g] is not None:
                stack.pop()
                continue
            key = keys[g]
            # a binder's body is expanded opened, by `_expand`
            below = key[1:2] if key[0] is Abs or key[0] is Prod else key[1:]
            if None in map(memo.__getitem__, below):
                stack += below
            else:
                stack.pop()
                memo[g] = self._expand(g, key)
        return memo[h]

    def _expand(self, g: int, key: tuple) -> Tuple[int, ...]:
        """`_reducts` of node g, deduped, from the memoized reducts of
        its children: the rules of its head, or beta, then a step in
        each child in order, a binder's domain before its body."""
        memo, out = self.memo, {}
        head = key[0]
        if head.__class__ is str:
            for rule in self.rules.by_head.get(head, ()):
                sigma = self._match(rule.lhs, g)
                if sigma is not None:
                    out[self._build(rule.rhs, sigma)] = None
        elif head is App and self.keys[key[1]][0] is Abs:
            arg = self.term(key[2])
            body = self.term(self.keys[key[1]][2])
            out[self.intern(open_(body, arg), {id(arg): key[2]})] = None
        binder = head is Abs or head is Prod
        # a step in child i: each of its reducts in its place, the new
        # key interned inline, as `_node` would
        table, keys, seen = self.table, self.keys, self.seen
        for i in range(1, 2 if binder else len(key)):
            rs = memo[key[i]]
            if not rs:
                continue
            before, after = key[:i], key[i + 1:]
            for r in rs:
                k = before + (r,) + after
                h = table.get(k)
                if h is None:
                    h = table[k] = len(keys)
                    keys.append(k)
                    memo.append(None)
                    seen.append(0)
                out[h] = None
        if binder:
            v, body = open_fresh(self.term(g))
            for r in self.reducts(self.intern(body)):
                closed = self.intern(close(self.term(r), v))
                out[self._node((head, key[1], closed))] = None
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


def joinable(t: Term, u: Term, rules: Sequence[RewriteRule], fuel: int, *,
             terminating: bool, by_normal_forms: bool) -> bool:
    """Do t and u have a common reduct?  A bounded breadth-first search
    of both reduction graphs over hash-consed nodes (`_Search`): they
    meet when a node is marked visited from both sides.  A level costs
    the same and yields the same next level in any order.

    The first level finds any common reduct within one step (the early
    meet).  If it finds none and `by_normal_forms` is set, t and u are
    normalized, each under `fuel` and with one memo, and equal normal
    forms are a common reduct.  If they differ, or either side runs out
    of fuel, the search goes on with the budget it has left, so its
    answer is the search's alone.  A caller that has seen t's or u's
    normalization run out of fuel passes False: it would run out here
    again, exactly where it did.

    `terminating` says that R is proved terminating and that the caller
    asks whether all its critical pairs join, t and u being one pair.
    Then two different normal forms answer False without a search: R
    is not confluent (Knuth and Bendix 1970; Huet, JACM 27(4), 1980),
    so some critical pair does not join, whether or not this one does."""
    rules = RuleSet.of(rules)
    search = _Search(rules)
    frontier_t, frontier_u = [search.intern(t)], [search.intern(u)]
    # alpha-equal terms share a handle, whose mark is then 3 at once
    search.seen[frontier_t[0]] = 1
    search.seen[frontier_u[0]] |= 2
    budget = fuel
    level = 0

    while frontier_t or frontier_u:
        if 3 in search.seen:  # a term visited from both sides
            return True
        if level == 1 and by_normal_forms:  # the early meet missed
            memo: dict = {}
            try:
                same = (normalize(t, rules, fuel, memo)
                        == normalize(u, rules, fuel, memo))
            except FuelExhausted:
                pass
            else:
                if same or terminating:
                    return same
        level += 1
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


class CriticalPairs(list):
    """The critical pairs of a rule set, in order, and the first rule
    whose lhs repeats a variable: A1 reads both from one walk of each
    lhs."""

    nonlinear: Optional[RewriteRule] = None  # every rule left-linear


def _overlaps(r1: RewriteRule, r2: RewriteRule, sites: Iterable,
              include_root: bool) -> List[CriticalPair]:
    """Overlap r2's lhs into r1's lhs: at the root when `include_root`,
    then at those of `sites`, (position, subterm) pairs below the root
    of r1's lhs in prefix order, that are headed by r2's head;
    unification fails at every other position.  The two rules share no
    variable."""
    out = []
    head = r2.head_name()
    for p, sub in [(EPSILON, r1.lhs), *sites] if include_root else sites:
        if sub.__class__ is not Symb or sub.name != head:
            continue
        sigma = unify(sub, r2.lhs)
        if sigma is None:
            continue
        peak = subst_apply(r1.lhs, sigma)
        left = subst_apply(r1.rhs, sigma)
        right = subst_apply(replace_at(r1.lhs, p, r2.rhs), sigma)
        out.append(CriticalPair(peak, left, right, p, (r1.name, r2.name)))
    return out


def _head_sites(lhs: Symb, heads, k: int, last: Dict[Variable, int]
                ) -> Tuple[Sequence[Tuple[Position, Symb]], bool, bool]:
    """One walk of rule k's algebraic lhs: the (position, subterm) pairs
    below its root headed by a name in `heads`, in prefix order, and
    whether the lhs repeats a variable and whether an earlier rule has
    one of its variables, which `last` tells: it maps each variable
    seen so far to the last rule it was seen in, and the walk updates
    it.  Most rules have no sites and share the empty tuple."""
    sites = []
    repeats = shares = False
    stack = [(EPSILON, lhs)]
    while stack:
        p, u = stack.pop()
        if p and u.name in heads:
            sites.append((p, u))
        for i in range(len(u.args), 0, -1):
            a = u.args[i - 1]
            if a.__class__ is Symb:
                stack.append((p + (i,), a))
                continue
            seen = last.get(a.var)
            if seen == k:
                repeats = True
            elif seen is not None:
                shares = True
            last[a.var] = k
    return sites or (), repeats, shares


def critical_pairs(rules: Sequence[RewriteRule]) -> CriticalPairs:
    """All overlaps between variable-disjoint rule pairs at non-variable
    positions.  Rule/beta pairs do not exist: left-hand sides are
    algebraic, hence abstraction-free.

    Rule j can overlap into rule i only at a subterm of lhs i headed by
    the head of j (Huet, JACM 27(4), 1980), so one walk of each lhs
    lists its positions below the root headed by some rule's head.
    These lists, with the heads, alone give the partners of a rule (one
    head occurs in the other's lhs), its self-overlap test and the
    positions each overlap tries.  Pairs come out ordered by i, then j,
    then direction.  Overlapping needs only that the two left-hand
    sides share no variable, and `load` gives each rule its own, so two
    distinct rules are overlapped as they are.  A rule's copy for its
    self-overlaps, and a partner j that shares a variable object with
    an earlier rule (rules built through the API may), is renamed apart.
    Renaming keeps variable names and positions, so the printed pairs
    are those of renaming every rule.  The same walk finds the first
    rule that is not left-linear."""
    rules = RuleSet.of(rules)
    out = CriticalPairs()
    last: Dict[Variable, int] = {}
    sites = []
    shared = set()  # rules that share a variable with an earlier rule
    at_head: Dict[str, List[int]] = {}     # rules with this head
    mentioning: Dict[str, List[int]] = {}  # rules whose lhs has this head
    for k, r in enumerate(rules):
        found, repeats, shares = _head_sites(r.lhs, rules.heads, k, last)
        sites.append(found)
        if repeats and out.nonlinear is None:
            out.nonlinear = r
        if shares:
            shared.add(k)
        at_head.setdefault(r.head_name(), []).append(k)
        names = {sub.name for _, sub in sites[k]}
        names.add(r.head_name())
        for g in names:
            mentioning.setdefault(g, []).append(k)
    for i, r in enumerate(rules):
        head = r.head_name()
        # self-overlaps at proper positions only
        if any(sub.name == head for _, sub in sites[i]):
            out.extend(_overlaps(r, rename_apart(r), sites[i],
                                 include_root=False))
        partners = set(mentioning[head])
        for _, sub in sites[i]:
            partners.update(at_head[sub.name])
        for j in sorted(j for j in partners if j > i):
            rj, sites_j = rules[j], sites[j]
            if j in shared:
                rj = rename_apart(rj)
                sites_j = _head_sites(rj.lhs, rules.heads, j, last)[0]
            out.extend(_overlaps(r, rj, sites[i], include_root=True))
            out.extend(_overlaps(rj, r, sites_j, include_root=False))
    return out


class ConfluenceLevel(enum.Enum):
    ORTHOGONAL = "ORTHOGONAL"
    NEWMAN = "NEWMAN"
    ASSERTED = "ASSERTED"
    UNKNOWN = "UNKNOWN"


class ConfluenceVerdict(NamedTuple):
    level: ConfluenceLevel
    evidence: Sequence[str]
    # when the recursive path order orients every rule, the critical
    # pairs that A1 did not show joined, from the first that failed;
    # otherwise None
    unjoined: Optional[Tuple[CriticalPair, ...]] = None

    @property
    def positive(self) -> bool:
        return self.level != ConfluenceLevel.UNKNOWN

    def to_dict(self):
        return {"level": self.level.value, "evidence": list(self.evidence)}


# the verdict of a typing context that A1 has not informed: it decides
# no conversion by normal forms
UNDECIDED = ConfluenceVerdict(ConfluenceLevel.UNKNOWN, ("A1 not run",))


def confluence_check(rules: Sequence[RewriteRule],
                     orientation: Orientation,
                     fuel: int = 10000,
                     assume_confluent: bool = False) -> ConfluenceVerdict:
    """A1 is about beta plus the rules, so a positive level rests on a
    theorem that lifts a property of R to R ∪ β.  ORTHOGONAL: left-linear
    with no critical pairs, so R ∪ β is an orthogonal combinatory
    reduction system, which is confluent (Klop, 1980).  NEWMAN: the
    recursive path order of `orientation` orients every rule, so the
    rules terminate, all critical pairs join, and every rule is
    left-linear, so the confluence of R lifts to R ∪ β (Müller, IPL 41,
    1992).  Under termination, all critical pairs join exactly when the
    two sides of each have one normal form (the critical-pair lemma with
    Newman's lemma), so `joinable` decides each pair by normal forms
    after its early meet, and the first pair that does not join ends
    the attempt.  For a non-left-linear rule no such theorem is named here,
    so it gets UNKNOWN, and the evidence names the first such rule.
    ASSERTED: user flag.  Otherwise UNKNOWN.  After a NEWMAN attempt the
    verdict hands out the pairs from the first that did not join, which
    may still decide a conversion by normal forms (`ReachableShape`)."""
    rules = RuleSet.of(rules)
    if not rules:
        return ConfluenceVerdict(ConfluenceLevel.ORTHOGONAL, ["empty rule set"])
    cps = critical_pairs(rules)
    nonlinear = cps.nonlinear
    if nonlinear is None and not cps:
        return ConfluenceVerdict(ConfluenceLevel.ORTHOGONAL,
                                 ["left-linear", "no critical pairs"])
    unknown = [f"{len(cps)} critical pair(s); "
               + ("left-linear" if nonlinear is None else "non-left-linear")]
    unjoined = None
    if orientation.terminates(rules) is not None:
        evidence = ["termination by recursive path order"]
        for k, cp in enumerate(cps):
            try:
                ok = joinable(cp.left_reduct, cp.right_reduct, rules, fuel,
                              terminating=True, by_normal_forms=True)
            except FuelExhausted:
                ok = False
            if not ok:  # the verdict is UNKNOWN, whatever the other pairs
                unjoined = tuple(cps[k:])
                break
            evidence.append(f"critical pair {cp}: joinable")
        else:
            if nonlinear is None:
                return ConfluenceVerdict(ConfluenceLevel.NEWMAN, evidence, ())
            unjoined = ()
            unknown = evidence + [
                f"rule {nonlinear.name} is not left-linear: no theorem is "
                "named that lifts the confluence of R to R ∪ β for it"]
    if assume_confluent:
        return ConfluenceVerdict(ConfluenceLevel.ASSERTED,
                                 ["assume-confluent pragma"], unjoined)
    return ConfluenceVerdict(ConfluenceLevel.UNKNOWN, unknown, unjoined)


# ---------------------------------------------------------------------------
# what the reducts of a conversion can hold

def _variable_sites(lhs: Symb) -> Dict[Variable, Tuple[str, int]]:
    """The (parent symbol, argument index) of an occurrence of each
    variable of an algebraic lhs."""
    at: Dict[Variable, Tuple[str, int]] = {}
    stack = [lhs]
    while stack:
        u = stack.pop()
        for i, a in enumerate(u.args, 1):
            if a.__class__ is Symb:
                stack.append(a)
            else:
                at.setdefault(a.var, (u.name, i))
    return at


class ReachableShape:
    """What the reducts of some algebraic terms can hold under algebraic
    rules, over-approximated: a set of symbols, and a set of edges
    (parent symbol, argument index, child head), kept as the heads below
    each (parent, index).  Built from the terms, then closed under the
    rules until nothing changes.  A rule fires when its lhs's symbols and
    edges are all in the sets (`fits`).  Then its rhs's own symbols and
    edges are added, and under its rhs parent each rhs variable gets the
    heads its lhs position can hold.  Last, the rhs head, or a
    collapsing variable's possible heads, take the lhs head's place
    under every parent of the lhs head.  This is tree-automata
    completion at depth 1 (Genet, RTA 1998).

    A redex in a reduct is an instance of its lhs, so the rule fires
    here, and what the step puts in place is covered: by induction on
    the steps, every symbol and edge of every reduct is in the sets.
    Variables are left out, since a pattern's variable matches any head
    and a variable matches no lhs.  Each walk keeps its own stack."""

    __slots__ = ("symbols", "below")

    def __init__(self, terms: Iterable[Term], rules: Iterable[RewriteRule]):
        self.symbols: set = set()
        # (parent symbol, argument index) -> the heads of that argument
        self.below: Dict[Tuple[str, int], set] = {}
        for t in terms:
            self._add(t, {})
        sited = [(r, _variable_sites(r.lhs)) for r in rules]
        grew = True
        while grew:
            grew = False
            for rule, at in sited:
                if self.fits(rule.lhs):
                    grew |= self._fire(rule, at)

    def fits(self, t: Term) -> bool:
        """Whether every symbol and edge of algebraic t is in the sets."""
        below, stack = self.below, [t]
        while stack:
            u = stack.pop()
            if u.__class__ is not Symb:
                continue
            if u.name not in self.symbols:
                return False
            for i, a in enumerate(u.args, 1):
                if a.__class__ is Symb and a.name not in below.get(
                        (u.name, i), ()):
                    return False
                stack.append(a)
        return True

    def _put(self, key: Tuple[str, int], heads: set) -> bool:
        """Add `heads` below `key`; whether any was new."""
        have = self.below.setdefault(key, set())
        if heads <= have:
            return False
        have |= heads
        return True

    def _add(self, t: Term, at: Dict[Variable, Tuple[str, int]]) -> bool:
        """Add the symbols and edges of algebraic t, and below the parent
        of each variable v of `at` the heads below at[v]; whether
        anything was new."""
        grew = False
        stack = [t]
        while stack:
            u = stack.pop()
            if u.__class__ is not Symb:
                continue
            if u.name not in self.symbols:
                self.symbols.add(u.name)
                grew = True
            for i, a in enumerate(u.args, 1):
                if a.__class__ is Symb:
                    grew |= self._put((u.name, i), {a.name})
                    stack.append(a)
                elif a.var in at:
                    grew |= self._put((u.name, i),
                                      self.below.get(at[a.var], set()))
        return grew

    def _fire(self, rule: RewriteRule,
              at: Dict[Variable, Tuple[str, int]]) -> bool:
        """Add what a step by `rule` can put in place; whether anything
        was new."""
        grew = self._add(rule.rhs, at)
        rhs, head = rule.rhs, rule.head_name()
        heads = ({rhs.name} if rhs.__class__ is Symb
                 else self.below.get(at[rhs.var], set()))
        for key, below in list(self.below.items()):
            if head in below:
                grew |= self._put(key, heads)
        return grew
