"""Recursive path order with lexicographic status, used to discharge
the strong-normalization obligation on first-order algebraic rules."""

from __future__ import annotations

from typing import List, Optional, Sequence

from .terms import Symb, Term, Var, alpha_eq, free_vars, is_algebraic


def rpo_greater(prec, s: Term, t: Term) -> bool:
    """s >_rpo t over algebraic terms, with quasi-precedence `prec`."""
    if alpha_eq(s, t):
        return False
    if isinstance(t, Var):
        return t.var in free_vars(s)
    if isinstance(s, Var):
        return False
    assert isinstance(s, Symb) and isinstance(t, Symb)
    # subterm case
    if any(alpha_eq(si, t) or rpo_greater(prec, si, t) for si in s.args):
        return True
    if prec.gt(s.name, t.name):
        return all(rpo_greater(prec, s, tj) for tj in t.args)
    if s.name == t.name or prec.eq(s.name, t.name):
        if _lex_greater(prec, s.args, t.args):
            return all(rpo_greater(prec, s, tj) for tj in t.args)
    return False


def _lex_greater(prec, ss: Sequence[Term], ts: Sequence[Term]) -> bool:
    for si, ti in zip(ss, ts):
        if alpha_eq(si, ti):
            continue
        return rpo_greater(prec, si, ti)
    return len(ss) > len(ts)


def rpo_terminates(signature, rules) -> Optional[List[str]]:
    """A trace of per-rule orientations when RPO proves termination of a
    fully algebraic rule set; None when some rule cannot be oriented, or
    when the precedence is cyclic: RPO is well-founded only over a
    well-founded precedence (Dershowitz, TCS 1982)."""
    trace = []
    prec = signature.precedence
    if prec.find_cycle() is not None:
        return None
    for rule in rules:
        if not (is_algebraic(rule.lhs) and is_algebraic(rule.rhs)):
            return None
        if not rpo_greater(prec, rule.lhs, rule.rhs):
            return None
        trace.append(f"{rule.name}: {rule.lhs} >rpo {rule.rhs}")
    return trace
