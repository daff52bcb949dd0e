"""Term syntax: sorts, variables, symbol applications, binders, positions.

Terms use a locally nameless representation: bound variables are de
Bruijn indices (`BVar`), free variables are globally unique `Variable`
objects.  Alpha-equivalence is therefore plain structural equality and
substitution is capture-free by construction.  Display names are kept
on binders and variables for printing only and are excluded from
comparison and hashing.  The term classes are slotted, so a term holds
no instance dictionary: reduction searches keep many terms in hash sets.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

Position = tuple  # tuple of positive ints; () is the root position
EPSILON: Position = ()


class CacError(Exception):
    """Base class for every error raised by the checker."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class InvalidPosition(CacError):
    def __init__(self, term, pos):
        super().__init__("invalid-position", f"position {pos} not in {term}")


class FuelExhausted(CacError):
    def __init__(self, what: str = "reduction"):
        super().__init__("fuel-exhausted", f"fuel exhausted during {what}")


class Sort(enum.Enum):
    STAR = "*"   # impredicative universe of propositions
    BOX = "[]"   # predicative universe containing STAR

    def __str__(self):
        return "★" if self is Sort.STAR else "□"


_var_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Variable:
    """A free variable with a fixed sort class (object or predicate)."""

    id: int
    sort: Sort
    name: str = field(compare=False)

    def __hash__(self):
        # ids come from one counter, so the id alone fixes (id, sort)
        return hash(self.id)

    def __str__(self):
        return self.name

    @staticmethod
    def fresh(name: str, sort: Sort = Sort.STAR) -> "Variable":
        return Variable(next(_var_ids), sort, name)


class Term:
    __slots__ = ()


def _pp_str(t: Term) -> str:
    from .printer import pp  # the printer imports this module
    return pp(t)


@dataclass(frozen=True, slots=True)
class SortT(Term):
    sort: Sort

    def __str__(self):
        return str(self.sort)


STAR = SortT(Sort.STAR)
BOX = SortT(Sort.BOX)


@dataclass(frozen=True, slots=True)
class Var(Term):
    var: Variable

    def __str__(self):
        return self.var.name


@dataclass(frozen=True, slots=True)
class BVar(Term):
    """Bound variable (de Bruijn index); never user-visible."""

    index: int

    def __str__(self):
        return f"#{self.index}"


@dataclass(frozen=True, slots=True)
class Symb(Term):
    """Fully applied symbol f(t1, ..., tn); arity is fixed by the signature."""

    name: str
    args: tuple = ()

    def __str__(self):
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True, slots=True)
class Abs(Term):
    domain: Term
    body: Term
    hint: str = field(default="x", compare=False)

    __str__ = _pp_str


@dataclass(frozen=True, slots=True)
class Prod(Term):
    domain: Term
    codomain: Term
    hint: str = field(default="x", compare=False)

    __str__ = _pp_str


@dataclass(frozen=True, slots=True)
class App(Term):
    head: Term
    arg: Term

    __str__ = _pp_str


def alpha_eq(t: Term, u: Term) -> bool:
    """Equality up to bound-variable names: the structural `==`, which
    leaves out binder hints and variable names, walked with an explicit
    stack so that it has no depth limit."""
    stack = [(t, u)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if isinstance(a, Symb):
            if a.name != b.name or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        elif isinstance(a, (Abs, Prod, App)):
            stack.extend(zip(_children(a), _children(b)))
        elif a != b:  # a sort or a variable
            return False
    return True


def is_kind(t: Term) -> bool:
    """True iff t is of the shape (x1:T1)...(xn:Tn)*.

    In CC every well-typed term of type BOX has this shape, so this
    syntactic test decides the sort class of a variable from its
    declared type.
    """
    while isinstance(t, Prod):
        t = t.codomain
    return t == STAR


def sort_class_of_type(t: Term) -> Sort:
    """Sort class of a variable whose declared type is t."""
    return Sort.BOX if is_kind(t) else Sort.STAR


# ---------------------------------------------------------------------------
# binder plumbing

def _map_leaves(t: Term, leaf, depth: int) -> Term:
    """t rebuilt with leaf(u, d) in place of each sort or variable u,
    where d is depth plus the number of binders above u.  One frame per
    term level, so a term as deep as the recursion limit allows is
    walked to the bottom."""
    if isinstance(t, Symb):
        args = []
        for a in t.args:
            args.append(_map_leaves(a, leaf, depth))
        return Symb(t.name, tuple(args))
    if isinstance(t, App):
        return App(_map_leaves(t.head, leaf, depth),
                   _map_leaves(t.arg, leaf, depth))
    if isinstance(t, Abs):
        return Abs(_map_leaves(t.domain, leaf, depth),
                   _map_leaves(t.body, leaf, depth + 1), t.hint)
    if isinstance(t, Prod):
        return Prod(_map_leaves(t.domain, leaf, depth),
                    _map_leaves(t.codomain, leaf, depth + 1), t.hint)
    return leaf(t, depth)


def close(t: Term, v: Variable, depth: int = 0) -> Term:
    """Replace free occurrences of v by the bound index `depth`."""
    return _map_leaves(
        t, lambda u, d: BVar(d) if isinstance(u, Var) and u.var == v else u,
        depth)


def open_(t: Term, image: Term, depth: int = 0) -> Term:
    """Instantiate the bound index `depth` with `image` (locally closed)."""
    return _map_leaves(
        t, lambda u, d: image if isinstance(u, BVar) and u.index == d else u,
        depth)


def lam(v: Variable, domain: Term, body: Term) -> Abs:
    return Abs(domain, close(body, v), v.name)


def pi(v: Variable, domain: Term, codomain: Term) -> Prod:
    return Prod(domain, close(codomain, v), v.name)


def arrow(domain: Term, codomain: Term) -> Prod:
    """Non-dependent product T -> U."""
    return Prod(domain, codomain, "_")


def open_fresh(t: Union[Abs, Prod]) -> "tuple[Variable, Term]":
    """Open a binder with a fresh variable of the right sort class."""
    v = Variable.fresh(t.hint, sort_class_of_type(t.domain))
    body = t.body if isinstance(t, Abs) else t.codomain
    return v, open_(body, Var(v))


# ---------------------------------------------------------------------------
# free variables and substitution

def free_vars(t: Term, sort_filter: Optional[Sort] = None) -> frozenset:
    out = set()

    def go(u):
        if isinstance(u, Var):
            out.add(u.var)
        elif isinstance(u, Symb):
            for a in u.args:
                go(a)
        elif isinstance(u, Abs):
            go(u.domain)
            go(u.body)
        elif isinstance(u, Prod):
            go(u.domain)
            go(u.codomain)
        elif isinstance(u, App):
            go(u.head)
            go(u.arg)

    go(t)
    if sort_filter is not None:
        out = {v for v in out if v.sort == sort_filter}
    return frozenset(out)


Substitution = dict  # Variable -> Term, finite domain


def subst_apply(t: Term, theta: Substitution) -> Term:
    """Capture-avoiding simultaneous substitution (images locally closed)."""
    if not theta:
        return t
    return _map_leaves(
        t, lambda u, _: theta.get(u.var, u) if isinstance(u, Var) else u, 0)


def compose_subst(theta: Substitution, sigma: Substitution) -> Substitution:
    """theta;sigma — apply theta first, then sigma."""
    out = {v: subst_apply(u, sigma) for v, u in theta.items()}
    for v, u in sigma.items():
        out.setdefault(v, u)
    return out


# ---------------------------------------------------------------------------
# positions

def _children(t: Term):
    """Immediate subterms, 1-indexed.  Binder bodies are traversed raw
    (bound indices intact); positions 1/2 are domain/body for Abs and Prod."""
    if isinstance(t, Symb):
        return list(t.args)
    if isinstance(t, Abs):
        return [t.domain, t.body]
    if isinstance(t, Prod):
        return [t.domain, t.codomain]
    if isinstance(t, App):
        return [t.head, t.arg]
    return []


def _rebuild(t: Term, kids) -> Term:
    if isinstance(t, Symb):
        return Symb(t.name, tuple(kids))
    if isinstance(t, Abs):
        return Abs(kids[0], kids[1], t.hint)
    if isinstance(t, Prod):
        return Prod(kids[0], kids[1], t.hint)
    if isinstance(t, App):
        return App(kids[0], kids[1])
    return t


def map_children(t: Term, f) -> Term:
    """t with f applied to each immediate subterm (binder bodies raw)."""
    return _rebuild(t, [f(c) for c in _children(t)])


def occurrences(t: Term) -> Iterator["tuple[Position, Term]"]:
    """Every (position, subterm) pair of t in prefix (leftmost-outermost)
    order; subterms are raw, as subterm_at gives them."""
    stack = [(EPSILON, t)]
    while stack:
        p, u = stack.pop()
        yield p, u
        kids = _children(u)
        for i in range(len(kids), 0, -1):
            stack.append((p + (i,), kids[i - 1]))


def positions(t: Term) -> Iterator[Position]:
    """All positions of t, in prefix (leftmost-outermost) order."""
    return (p for p, _ in occurrences(t))


def subterm_at(t: Term, p: Position) -> Term:
    """Raw subterm; may contain dangling bound indices when p crosses a binder."""
    for i in p:
        kids = _children(t)
        if not 1 <= i <= len(kids):
            raise InvalidPosition(t, p)
        t = kids[i - 1]
    return t


def replace_at(t: Term, p: Position, u: Term) -> Term:
    if p == EPSILON:
        return u
    i = p[0]
    kids = _children(t)
    if not 1 <= i <= len(kids):
        raise InvalidPosition(t, p)
    kids[i - 1] = replace_at(kids[i - 1], p[1:], u)
    return _rebuild(t, kids)


def positions_of(t: Term, needle: Union[str, Variable]) -> frozenset:
    """Positions where a symbol occurs, or where a variable occurs free."""
    if isinstance(needle, Variable):
        return frozenset(p for p, s in occurrences(t)
                         if isinstance(s, Var) and s.var == needle)
    return frozenset(p for p, s in occurrences(t)
                     if isinstance(s, Symb) and s.name == needle)


def is_algebraic(t: Term) -> bool:
    if isinstance(t, Var):
        return True
    if isinstance(t, Symb):
        return all(is_algebraic(a) for a in t.args)
    return False


def symbols_of(t: Term) -> frozenset:
    return frozenset(s.name for _, s in occurrences(t)
                     if isinstance(s, Symb))


def var_counts(t: Term) -> "Counter[Variable]":
    """Occurrences of each free variable of t, in order of first
    occurrence."""
    return Counter(s.var for _, s in occurrences(t) if isinstance(s, Var))


# ---------------------------------------------------------------------------
# environments

@dataclass(frozen=True, slots=True)
class Environment:
    """Ordered list of typed variable bindings; also the Gamma of rules."""

    bindings: tuple = ()

    @staticmethod
    def of(pairs: Iterable) -> "Environment":
        return Environment(tuple(pairs))

    def extend(self, v: Variable, typ: Term) -> "Environment":
        return Environment(self.bindings + ((v, typ),))

    def lookup(self, v: Variable) -> Optional[Term]:
        for w, typ in reversed(self.bindings):
            if w == v:
                return typ
        return None

    def __iter__(self):
        return iter(self.bindings)

    def __len__(self):
        return len(self.bindings)

    def __str__(self):
        return "[" + ", ".join(f"{v}:{t}" for v, t in self.bindings) + "]"


def spine(t: Term) -> "tuple[Term, list]":
    """Decompose nested applications: spine(((h a) b)) = (h, [a, b])."""
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.head
    args.reverse()
    return t, args


def apply_spine(head: Term, args: Iterable[Term]) -> Term:
    for a in args:
        head = App(head, a)
    return head


def strip_products(t: Term, limit: Optional[int] = None) -> "tuple[list, Term]":
    """Open leading products with fresh variables: ((v, dom) list, core)."""
    binders = []
    while isinstance(t, Prod) and (limit is None or len(binders) < limit):
        v, body = open_fresh(t)
        binders.append((v, t.domain))
        t = body
    return binders, t
