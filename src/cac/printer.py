"""Pretty-printer for the surface grammar accepted by the parser."""

from __future__ import annotations

from .terms import (Abs, App, BVar, Prod, Sort, SortT, Symb, Term, Var,
                    Variable, free_vars, open_)


def _pick_name(hint: str, taken: set) -> str:
    name = hint or "x"
    while name in taken:
        name += "'"
    return name


def pp(t: Term) -> str:
    return _Printer(t)._pp(t, None, top=True)


class _Printer:
    """One `pp` call.  A subterm with no binder inside prints the same
    text in any scope, so the text of a symbol application or an
    application that holds no binder is kept once the subterm is met a
    second time, and a third meeting reuses it; a subterm met once keeps
    no text.  Both tables are keyed by id, and `seen` keeps every such
    subterm alive while it prints, because an opened binder body is a
    temporary whose id would be reused.  The root is met once, so the
    tables are built at the first other such subterm, and a term of one
    level builds none.  The names a binder must avoid start as the free
    variables of the root, read at the first binder, so a term without
    binders is not walked for them."""

    __slots__ = ("root", "free", "seen", "texts", "binders")

    def __init__(self, root: Term):
        self.root = root
        self.free = None
        self.seen = None   # id -> binder-free subterm met once
        self.texts = None  # id -> its text, once met twice
        self.binders = 0   # binders printed so far

    def _taken(self, taken):
        if taken is not None:
            return taken
        if self.free is None:
            self.free = {v.name for v in free_vars(self.root)}
        return self.free

    def _pp(self, t: Term, taken, top: bool = False) -> str:
        cls = t.__class__
        if cls is Symb:
            if not t.args:
                return t.name
        elif cls is not App:
            if cls is SortT:
                return str(t.sort)
            if cls is Var:
                return t.var.name
            if cls is BVar:
                return f"#{t.index}"
            self.binders += 1
            taken = self._taken(taken)
            name = _pick_name(t.hint, taken)
            v = Variable.fresh(name, Sort.STAR)
            if cls is Abs:
                body = open_(t.body, Var(v))
                s = (f"fun ({name}:{self._pp(t.domain, taken)}) => "
                     f"{self._pp(body, taken | {name}, top=True)}")
                return s if top else f"({s})"
            cod = open_(t.codomain, Var(v))
            if v in free_vars(cod):
                s = (f"({name}:{self._pp(t.domain, taken)}) -> "
                     f"{self._pp(cod, taken | {name}, top=True)}")
            else:  # an arrow
                dom = self._pp(t.domain, taken, top=True)
                if isinstance(t.domain, (Prod, Abs)):
                    dom = f"({dom})"
                s = f"{dom} -> {self._pp(cod, taken, top=True)}"
            return s if top else f"({s})"
        key = id(t)
        s = None if self.texts is None else self.texts.get(key)
        if s is None:
            binders = self.binders
            if cls is Symb:
                # a loop, not a generator, so that a level costs one
                # frame: printing goes about 990 levels deep, not 330
                parts = []
                for a in t.args:
                    parts.append(self._pp(a, taken))
                s = f"{t.name}({', '.join(parts)})"
            else:
                # application is left-associative: no parens around an
                # App head
                head = self._pp(t.head, taken, top=t.head.__class__ is App)
                arg = self._pp(t.arg, taken)
                if t.arg.__class__ is App:
                    arg = f"({arg})"
                s = f"{head} {arg}"
            if binders == self.binders and t is not self.root:
                if self.seen is None:
                    self.seen, self.texts = {}, {}
                if key in self.seen:
                    self.texts[key] = s
                else:
                    self.seen[key] = t
        return s if top or cls is Symb else f"({s})"
