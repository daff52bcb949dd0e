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
from typing import Dict, Iterable, Iterator, Optional, Union

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
_set = object.__setattr__


class _Frozen:
    """A slotted record whose `__init__` sets each field once, with
    `_set`; assigning or deleting a field afterwards raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Variable(_Frozen):
    """A free variable with a fixed sort class (object or predicate);
    `==` and `hash` leave out its display name."""

    __slots__ = ("id", "sort", "name")

    def __init__(self, id: int, sort: Sort, name: str):
        _set(self, "id", id)
        _set(self, "sort", sort)
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is not Variable:
            return NotImplemented
        return (self.id, self.sort) == (other.id, other.sort)

    def __hash__(self):
        # ids come from one counter, so the id alone fixes (id, sort)
        return hash(self.id)

    def __str__(self):
        return self.name

    @staticmethod
    def fresh(name: str, sort: Sort = Sort.STAR) -> "Variable":
        return Variable(next(_var_ids), sort, name)


class Term(_Frozen):
    """Each term class hashes the tuple of its fields, less the binder
    hint.  `==` is the one term equality, alpha-equivalence: class,
    symbol name and arity, variable, bound index and sort, never a
    binder hint or a variable name.  It walks both terms with an
    explicit stack, so it has no depth limit, and it answers by
    identity at shared subterms.  The text of a term, `str`, is the
    printer's: `pp` renders every term."""

    __slots__ = ()

    def __eq__(self, other):
        a, b, stack = self, other, []
        while True:
            if a is not b:
                cls = a.__class__
                if cls is not b.__class__:
                    return False if isinstance(b, Term) else NotImplemented
                if cls is Symb:
                    if a.name != b.name or len(a.args) != len(b.args):
                        return False
                    if a.args:
                        stack += zip(a.args, b.args)
                elif cls is App:
                    stack.append((a.head, b.head))
                    stack.append((a.arg, b.arg))
                elif cls is Var:
                    if a.var is not b.var and a.var != b.var:
                        return False
                elif cls is Abs:
                    stack.append((a.domain, b.domain))
                    stack.append((a.body, b.body))
                elif cls is Prod:
                    stack.append((a.domain, b.domain))
                    stack.append((a.codomain, b.codomain))
                elif cls is BVar:
                    if a.index != b.index:
                        return False
                elif a.sort is not b.sort:
                    return False
            if not stack:
                return True
            a, b = stack.pop()

    def __str__(self):
        return pp(self)


class SortT(Term):
    __slots__ = ("sort",)

    def __init__(self, sort: Sort):
        _set(self, "sort", sort)

    def __hash__(self):
        return hash((self.sort,))


STAR = SortT(Sort.STAR)
BOX = SortT(Sort.BOX)


class Var(Term):
    __slots__ = ("var",)

    def __init__(self, var: Variable):
        _set(self, "var", var)

    def __hash__(self):
        return hash((self.var,))


class BVar(Term):
    """Bound variable (de Bruijn index); never user-visible."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)

    def __hash__(self):
        return hash((self.index,))


class Symb(Term):
    """Fully applied symbol f(t1, ..., tn); arity is fixed by the signature."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple = ()):
        _set(self, "name", name)
        _set(self, "args", args)

    def __hash__(self):
        return hash((self.name, self.args))


class Abs(Term):
    __slots__ = ("domain", "body", "hint")

    def __init__(self, domain: Term, body: Term, hint: str = "x"):
        _set(self, "domain", domain)
        _set(self, "body", body)
        _set(self, "hint", hint)

    def __hash__(self):
        return hash((self.domain, self.body))


class Prod(Term):
    __slots__ = ("domain", "codomain", "hint")

    def __init__(self, domain: Term, codomain: Term, hint: str = "x"):
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)
        _set(self, "hint", hint)

    def __hash__(self):
        return hash((self.domain, self.codomain))


class App(Term):
    __slots__ = ("head", "arg")

    def __init__(self, head: Term, arg: Term):
        _set(self, "head", head)
        _set(self, "arg", arg)

    def __hash__(self):
        return hash((self.head, self.arg))


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
    where d is depth plus the number of binders above u.  A subterm none
    of whose leaves changed is returned itself, so what a map leaves
    alone stays shared.  One frame per term level, so a term as deep as
    the recursion limit allows is walked to the bottom."""
    if isinstance(t, Symb):
        args = []
        same = True
        for a in t.args:
            b = _map_leaves(a, leaf, depth)
            args.append(b)
            if b is not a:
                same = False
        return t if same else Symb(t.name, tuple(args))
    if isinstance(t, App):
        head = _map_leaves(t.head, leaf, depth)
        arg = _map_leaves(t.arg, leaf, depth)
        if head is t.head and arg is t.arg:
            return t
        return App(head, arg)
    if isinstance(t, Abs):
        dom = _map_leaves(t.domain, leaf, depth)
        body = _map_leaves(t.body, leaf, depth + 1)
        if dom is t.domain and body is t.body:
            return t
        return Abs(dom, body, t.hint)
    if isinstance(t, Prod):
        dom = _map_leaves(t.domain, leaf, depth)
        cod = _map_leaves(t.codomain, leaf, depth + 1)
        if dom is t.domain and cod is t.codomain:
            return t
        return Prod(dom, cod, t.hint)
    return leaf(t, depth)


def close(t: Term, v: Variable) -> Term:
    """Replace free occurrences of v by the bound index 0."""
    return _map_leaves(
        t, lambda u, d: BVar(d) if isinstance(u, Var) and u.var == v else u,
        0)


def open_(t: Term, image: Term) -> Term:
    """Instantiate the bound index 0 with `image` (locally closed)."""
    return _map_leaves(
        t, lambda u, d: image if isinstance(u, BVar) and u.index == d else u,
        0)


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
    stack = [t]
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is Var:
            if sort_filter is None or u.var.sort == sort_filter:
                out.add(u.var)
        elif cls is Symb:
            stack += u.args
        elif cls is App:
            stack += (u.head, u.arg)
        elif cls is Abs:
            stack += (u.domain, u.body)
        elif cls is Prod:
            stack += (u.domain, u.codomain)
    return frozenset(out)


Substitution = dict  # Variable -> Term, finite domain


def subst_apply(t: Term, theta: Substitution) -> Term:
    """Capture-avoiding simultaneous substitution (images locally closed)."""
    if not theta:
        return t
    return _map_leaves(
        t, lambda u, _: theta.get(u.var, u) if isinstance(u, Var) else u, 0)


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
    order; subterms are raw, with dangling bound indices below a binder."""
    stack = [(EPSILON, t)]
    while stack:
        p, u = stack.pop()
        yield p, u
        kids = _children(u)
        for i in range(len(kids), 0, -1):
            stack.append((p + (i,), kids[i - 1]))


def _plug(path: list, t: Term, stop: int = 0) -> Iterator[Term]:
    """Put t back into the zipper frames `path` (Huet, JFP 1997) from the
    innermost out to frame `stop`, yielding each ancestor it rebuilds.
    A frame, [node, children, index, variable, ...], is not changed: t
    fills the child at `index`, closed over `variable` when it is set."""
    for j in range(len(path) - 1, stop - 1, -1):
        frame = path[j]
        kids, v = frame[1].copy(), frame[3]
        kids[frame[2]] = t if v is None else close(t, v)
        t = _rebuild(frame[0], kids)
        yield t


def replace_at(t: Term, p: Position, u: Term) -> Term:
    """t with u at position p: down to p, then u plugged back in."""
    path = []
    for k, i in enumerate(p):
        kids = _children(t)
        if not 1 <= i <= len(kids):
            raise InvalidPosition(t, p[k:])
        path.append((t, kids, i - 1, None))
        t = kids[i - 1]
    return [u, *_plug(path, u)][-1]  # the root


def is_algebraic(t: Term) -> bool:
    """Whether t is built of symbols and variables alone."""
    stack = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Symb:
            stack += u.args
        elif u.__class__ is not Var:
            return False
    return True


def symbols_of(t: Term) -> frozenset:
    """The names of the symbols of t.  One walk with its own stack puts
    them, repeats included, in the prefix order of `occurrences`, so the
    set iterates as one built from that order does."""
    names = []
    stack = [t]
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is Symb:
            names.append(u.name)
            stack.extend(reversed(u.args))
        elif cls is App:
            stack += (u.arg, u.head)
        elif cls is Abs:
            stack += (u.body, u.domain)
        elif cls is Prod:
            stack += (u.codomain, u.domain)
    return frozenset(names)


def var_counts(t: Term) -> Dict[Variable, int]:
    """Occurrences of each free variable of t, in order of first
    occurrence: one prefix walk with its own stack."""
    counts: Dict[Variable, int] = {}
    stack = [t]
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is Var:
            counts[u.var] = counts.get(u.var, 0) + 1
        elif cls is Symb:
            stack.extend(reversed(u.args))
        elif cls is App:
            stack += (u.arg, u.head)
        elif cls is Abs:
            stack += (u.body, u.domain)
        elif cls is Prod:
            stack += (u.codomain, u.domain)
    return counts


# ---------------------------------------------------------------------------
# environments

class Environment(_Frozen):
    """Ordered list of typed variable bindings; also the Gamma of rules."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: tuple = ()):
        _set(self, "bindings", bindings)

    def __eq__(self, other):
        if other.__class__ is not Environment:
            return NotImplemented
        return (self.bindings,) == (other.bindings,)

    def __hash__(self):
        return hash((self.bindings,))

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


def strip_products(t: Term) -> "tuple[list, Term]":
    """Open leading products with fresh variables: ((v, dom) list, core)."""
    binders = []
    while isinstance(t, Prod):
        v, body = open_fresh(t)
        binders.append((v, t.domain))
        t = body
    return binders, t


# last, because the printer imports the term classes above: `str` of a
# term pays no import
from .printer import pp  # noqa: E402
