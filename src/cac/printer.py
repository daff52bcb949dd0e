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
    taken = {v.name for v in free_vars(t)}
    return _pp(t, taken, top=True)


def _pp(t: Term, taken: set, top: bool = False) -> str:
    if isinstance(t, SortT):
        return str(t.sort)
    if isinstance(t, Var):
        return t.var.name
    if isinstance(t, BVar):
        return f"#{t.index}"
    if isinstance(t, Symb):
        if not t.args:
            return t.name
        return f"{t.name}({', '.join(_pp(a, taken) for a in t.args)})"
    if isinstance(t, Abs):
        name = _pick_name(t.hint, taken)
        v = Variable.fresh(name, Sort.STAR)
        body = open_(t.body, Var(v))
        s = f"fun ({name}:{_pp(t.domain, taken)}) => {_pp(body, taken | {name}, top=True)}"
        return s if top else f"({s})"
    if isinstance(t, Prod):
        name = _pick_name(t.hint, taken)
        v = Variable.fresh(name, Sort.STAR)
        cod = open_(t.codomain, Var(v))
        if v in free_vars(cod):
            s = f"({name}:{_pp(t.domain, taken)}) -> {_pp(cod, taken | {name}, top=True)}"
        else:  # an arrow
            dom = _pp(t.domain, taken, top=True)
            if isinstance(t.domain, (Prod, Abs)):
                dom = f"({dom})"
            s = f"{dom} -> {_pp(cod, taken, top=True)}"
        return s if top else f"({s})"
    # an App; application is left-associative: no parens around an App head
    head = _pp(t.head, taken, top=isinstance(t.head, App))
    arg = _pp(t.arg, taken)
    if isinstance(t.arg, App):
        arg = f"({arg})"
    return f"{head} {arg}" if top else f"({head} {arg})"

