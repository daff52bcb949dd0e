"""Recursive path order with lexicographic status, used to discharge
the strong-normalization obligation on first-order algebraic rules."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .terms import Symb, Term, Var, free_vars, is_algebraic


def rpo_greater(prec, s: Term, t: Term,
                memo: Optional[Dict[Tuple[int, int], bool]] = None) -> bool:
    """s >_rpo t over algebraic terms, with quasi-precedence `prec`.

    `memo` remembers each decided pair of subterms by node identity; the
    recursion passes it down, so one call decides every pair of
    subterms of s and t once, O(|s|·|t|) pair decisions instead of
    exponentially many (Löchner, Things to know when implementing LPO,
    IJAIT 15(1), 2006).  The nodes stay alive for the call, so their
    identities cannot be reused while the memo lives."""
    if memo is None:
        memo = {}
    key = (id(s), id(t))
    greater = memo.get(key)
    if greater is not None:
        return greater
    if s == t:
        greater = False
    elif isinstance(t, Var):
        greater = t.var in free_vars(s)
    elif isinstance(s, Var):
        greater = False
    else:
        assert isinstance(s, Symb) and isinstance(t, Symb)
        # subterm case, then the precedence and lexicographic cases
        greater = any(si == t or rpo_greater(prec, si, t, memo)
                      for si in s.args)
        if not greater and (prec.gt(s.name, t.name) or (
                (s.name == t.name or prec.eq(s.name, t.name))
                and _lex_greater(prec, s.args, t.args, memo))):
            greater = all(rpo_greater(prec, s, tj, memo) for tj in t.args)
    memo[key] = greater
    return greater


def _lex_greater(prec, ss: Sequence[Term], ts: Sequence[Term],
                 memo: Dict[Tuple[int, int], bool]) -> bool:
    for si, ti in zip(ss, ts):
        if si == ti:
            continue
        return rpo_greater(prec, si, ti, memo)
    return len(ss) > len(ts)


def orient(prec, rule) -> Optional[str]:
    """The trace line of `rule` when its lhs is greater than its rhs in
    the recursive path order, else None.  The pass has its own memo:
    two rules share no subterm pairs, and one memo for all would keep
    every rule's pairs alive at once."""
    if (is_algebraic(rule.lhs) and is_algebraic(rule.rhs)
            and rpo_greater(prec, rule.lhs, rule.rhs)):
        return f"{rule.name}: {rule.lhs} >rpo {rule.rhs}"
    return None


class Orientation:
    """The orientation of each rule asked about, decided on first request
    and kept for the life of this table.  One table serves one run: A1's
    termination proof, A4's partition and A4's strong-normalization
    trace read the same entries, so no rule is oriented twice.

    Every rule is None under a cyclic precedence: RPO is well-founded
    only over a well-founded precedence (Dershowitz, TCS 1982).  Entries
    are keyed by the rule's identity and keep the rule, so a key cannot
    be reused while the table lives."""

    __slots__ = ("prec", "cyclic", "lines")

    def __init__(self, signature):
        self.prec = signature.precedence
        self.cyclic = self.prec.find_cycle() is not None
        self.lines: Dict[int, Tuple[object, Optional[str]]] = {}

    def line(self, rule) -> Optional[str]:
        """`rule`'s trace line "{name}: {lhs} >rpo {rhs}", or None."""
        entry = self.lines.get(id(rule))
        if entry is None:
            entry = self.lines[id(rule)] = (
                rule, None if self.cyclic else orient(self.prec, rule))
        return entry[1]

    def terminates(self, rules) -> Optional[List[str]]:
        """The trace of every rule's orientation, or None from the first
        rule that has none."""
        trace = []
        for rule in rules:
            line = self.line(rule)
            if line is None:
                return None
            trace.append(line)
        return trace
