"""The benchmark's four workloads: their generated inputs, the CLI jobs
that run them, and an expected-answer oracle for every job.

No expected answer is read from cac: corpus answers are written by hand,
the rest follow from arithmetic or from how the inputs are built.  The
workload seed fixes the order of jobs within a pass and the symbol names
of the generated `overlap` family; every other input is the same on all
seeds.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

CORPUS = "src/cac/corpus"
NAT = "inductive nat : * := zero : nat | succ : nat -> nat .\n"
ADD_STEP = "fun (x : nat) => fun (y : nat) => succ(y)"

# Sizes of the generated families.  The tall ladder stops at 2n = 200
# because the checker at the seed commit overflows the default recursion
# limit on deeper terms: on succ^d(zero), `pp` between d = 325 and 350,
# `alpha_eq` (the recursive dataclass `__eq__`) between 225 and 250, and
# the parser between 325 and 350.  The 600-deep probe shows that defect
# instead of sizing around it.
LADDER_N = (25, 50, 100)
TREE_D = (4, 5, 6)
TREE_LEAF = 8          # each leaf is add(8, 8)
DEEP_PROBE = 600
OVERLAP_N = (20, 40, 80, 160)
JOIN_K = (6, 7, 8)


@dataclass
class Job:
    """One CLI invocation and the answer expected from it.

    `expect(code, stdout)` returns None when the answer is right, else a
    short reason.  `calls` pins how often the traced run must see some
    functions called during the job.  `pinned` says whether the job's
    stdout digest is pinned, and `canon` maps the seed's symbol names
    back to the default ones before digesting."""

    name: str
    argv: List[str]
    expect: Callable[[int, str], Optional[str]]
    files: List[str]
    calls: Dict[str, int] = field(default_factory=dict)
    pinned: bool = True
    canon: Callable[[str], str] = lambda s: s


# ---------------------------------------------------------------------------
# oracles

def _numeral(k: int) -> str:
    return "succ(" * k + "zero" + ")" * k


def _tree(d: int, leaf: str) -> str:
    return leaf if d == 0 else f"node({_tree(d - 1, leaf)}, {_tree(d - 1, leaf)})"


def _expect_check_text(code: int, nfs: List[str]):
    """`cac check` text report: the normal forms in directive order, then
    the summary line."""
    def expect(got_code: int, out: str) -> Optional[str]:
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        lines = out.rstrip("\n").split("\n")
        got = [ln.split(" — ", 1)[1] for ln in lines
               if ln.startswith("normalize ") and " — " in ln]
        if got != nfs:
            return f"normal forms {got!r}, expected {nfs!r}"
        summary = "all checks passed" if code == 0 else "some checks failed"
        if lines[-1] != summary:
            return f"summary {lines[-1]!r}, expected {summary!r}"
        return None
    return expect


def _expect_check_json(nfs: List[str], converts: List[bool]):
    """`cac --report structured check`: every directive answered."""
    ok = all(converts)

    def expect(code: int, out: str) -> Optional[str]:
        if code != (0 if ok else 1):
            return f"exit {code}"
        ds = json.loads(out)["directives"]
        got_nfs = [d.get("normal_form") for d in ds if d["kind"] == "normalize"]
        got_cv = [d["outcome"] == "ok" for d in ds if d["kind"] == "convert"]
        if got_nfs != nfs:
            return "normal form differs"
        if got_cv != converts:
            return f"convert answers {got_cv}, expected {converts}"
        return None
    return expect


def _expect_deep(k: int):
    """ROADMAP item 1 allows the normal form, or a documented CacError
    with exit 1; an escaping exception is counted as an error instead."""
    def expect(code: int, out: str) -> Optional[str]:
        if code == 1:
            return None
        if code == 0 and json.loads(out)["directives"][0].get(
                "normal_form") == _numeral(k):
            return None
        return f"exit {code} without the normal form"
    return expect


def _expect_verdict(code: int, overall: str, a1: Optional[str] = None):
    """`cac --report structured admissibility`: verdict and A1 level."""
    def expect(got_code: int, out: str) -> Optional[str]:
        rep = json.loads(out)
        if got_code != code or rep["overall"] != overall:
            return f"exit {got_code} {rep['overall']}, expected {code} {overall}"
        if a1 is not None and rep["a1"]["level"] != a1:
            return f"A1 {rep['a1']['level']}, expected {a1}"
        return None
    return expect


def _expect_convert(convertible: bool):
    def expect(code: int, out: str) -> Optional[str]:
        if code != (0 if convertible else 1):
            return f"exit {code}"
        if json.loads(out)["convertible"] is not convertible:
            return "convertibility answer differs"
        return None
    return expect


# ---------------------------------------------------------------------------
# workloads

# Hand-written answers for the shipped corpus: (check exit, normal forms
# in directive order, admissibility exit, verdict).  listh, neg_dup and
# neg_schema are the negative controls: I6 fails on consh, f(x) -> g(x, x)
# duplicates x, and f(x) -> f(x) is not a decreasing call.
CORPUS_ANSWERS = {
    "app": (0, [], 0, "ADMISSIBLE"),
    "int": (0, ["0", "s(0)"], 0, "ADMISSIBLE"),
    "listh": (0, [], 1, "REJECTED"),
    "nat": (0, [_numeral(4)], 0, "ADMISSIBLE"),
    "ndm_prop": (0, [], 0, "ADMISSIBLE"),
    "neg_dup": (0, [], 1, "REJECTED"),
    "neg_schema": (0, [], 1, "REJECTED"),
}


def corpus_jobs(work: Path) -> List[Job]:
    jobs = []
    for stem, (ccode, nfs, acode, verdict) in CORPUS_ANSWERS.items():
        path = f"{CORPUS}/{stem}.cac"
        jobs.append(Job(f"check/{stem}", ["check", path],
                        _expect_check_text(ccode, nfs), [path]))
        jobs.append(Job(f"admissibility/{stem}",
                        ["--report", "structured", "admissibility", path],
                        _expect_verdict(acode, verdict), [path]))
    return jobs


def _add(m: int, n: int) -> str:
    """m + n through the generated recursor (recursion on n)."""
    return f"WElim_nat(nat, {_numeral(n)}, {ADD_STEP}, {_numeral(m)})"


def peano_jobs(work: Path) -> List[Job]:
    """`cac check` on nat files.  The system is orthogonal, so each
    normalize directive calls `normalize` once and each convert directive
    twice (normalize-and-compare)."""
    jobs = []

    def add(name, src, expect, normalizes, pinned=True):
        path = _write(work, f"peano/{name}.cac", NAT + src)
        calls = {} if normalizes is None else {"rewriting.normalize": normalizes}
        jobs.append(Job(f"check/{name}",
                        ["--report", "structured", "check", path], expect,
                        [path], calls, pinned))

    for n in LADDER_N:
        add(f"ladder_{n}", f"normalize {_add(n, n)} .\n"
                           f"convert {_add(n, n)} , {_numeral(2 * n)} .\n",
            _expect_check_json([_numeral(2 * n)], [True]), 1 + 2)
    leaf = _add(TREE_LEAF, TREE_LEAF)
    for d in TREE_D:
        add(f"tree_{d}", "symbol node : nat -> nat -> nat .\n"
                         f"normalize {_tree(d, leaf)} .\n",
            _expect_check_json([_tree(d, _numeral(2 * TREE_LEAF))], []), 1)
    # no output to pin: at the seed commit the parser overflows
    add(f"deep_{DEEP_PROBE}", f"normalize {_numeral(DEEP_PROBE)} .\n",
        _expect_deep(DEEP_PROBE), None, pinned=False)
    return jobs


def overlap_source(n: int, sym: Callable[[int], str]) -> str:
    """ROADMAP synthetic(n): n binary symbols over one constant, a
    precedence chain and two overlapping rules per symbol, so every pair
    fi(c, y) / fi(x, c) meets at fi(c, c).  RPO orients all rules and
    every critical pair joins, hence ADMISSIBLE with A1 = NEWMAN."""
    lines = ["symbol o : * .", "symbol c : o ."]
    lines += [f"symbol {sym(i)} : o -> o -> o ." for i in range(n)]
    lines += [f"pragma prec {sym(i)} > {sym(i + 1)} ." for i in range(n - 1)]
    for i in range(n):
        rhs = f"{sym(i + 1)}(y, c)" if i + 1 < n else "y"
        lines.append(f"rule {sym(i)}(c, y) -> {rhs} .")
        lines.append(f"rule {sym(i)}(x, c) -> x .")
    return "\n".join(lines) + "\n"


def overlap_jobs(work: Path, rng: random.Random) -> List[Job]:
    # A seed-dependent prefix; `canon` maps it back to the default one so
    # one pinned digest serves every seed.
    prefix = "f" + "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
    default = "f_"
    pat = re.compile(rf"\b{prefix}_(\d{{3}})\b")

    def canon(s: str) -> str:
        return pat.sub(lambda m: default + m.group(1), s)

    jobs = []
    for n in OVERLAP_N:
        src = overlap_source(n, lambda i: f"{prefix}_{i:03d}")
        path = _write(work, f"overlap/synthetic_{n}.cac", src)
        jobs.append(Job(f"admissibility/synthetic_{n}",
                        ["--report", "structured", "admissibility", path],
                        _expect_verdict(0, "ADMISSIBLE", "NEWMAN"), [path],
                        {"rewriting.critical_pairs": 1}, canon=canon))
    return jobs


def _value(term: str) -> int:
    """Integer value of a closed int term: 0 = 0, s = +1, p = -1 and
    plus = +.  The join rules only ever fire on p(s(0)) and plus(0, y)
    here, both of which keep the value, and p(0) never arises, so two of
    these terms are convertible exactly when their values agree."""
    term = term.replace(" ", "")
    pos = 0

    def parse() -> int:
        nonlocal pos
        if term.startswith("0", pos):
            pos += 1
            return 0
        head = term[pos:term.index("(", pos)]
        pos += len(head) + 1
        args = [parse()]
        while term[pos] == ",":
            pos += 1
            args.append(parse())
        pos += 1
        return {"s": lambda a: a + 1, "p": lambda a: a - 1,
                "plus": lambda a, b: a + b}[head](*args)

    return parse()


def join_jobs(work: Path) -> List[Job]:
    """The corpus int rules plus the truncating p(0) -> 0, which makes
    s(p(0)) reduce to both 0 and s(0): A1 is UNKNOWN and `convert` runs
    the breadth-first joinability search."""
    base = (Path(CORPUS) / "int.cac").read_text(encoding="utf-8")
    path = _write(work, "join/int_trunc.cac", base + "rule p(0) -> 0 .\n")
    jobs = []
    for k in JOIN_K:
        chain = "0"
        for _ in range(k):
            chain = f"plus(p(s(0)), {chain})"
        for other in ("s(0)", "0"):
            jobs.append(Job(f"convert/k{k}_{other}",
                            ["--report", "structured", "convert", path,
                             "-e", chain, "-e", other],
                            _expect_convert(_value(chain) == _value(other)),
                            [path], {"rewriting.critical_pairs": 1}))
    return jobs


def _write(work: Path, rel: str, text: str) -> str:
    p = work / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")
    return p.as_posix()


WORKLOADS = ("corpus", "peano", "overlap", "join")

# Job pairs whose time ratio shows how a family scales (ROADMAP item 3).
SCALING = {
    "peano": [("check/tree_6", "check/tree_5"),
              ("check/ladder_100", "check/ladder_50")],
    "overlap": [("admissibility/synthetic_160", "admissibility/synthetic_80")],
    "join": [("convert/k8_s(0)", "convert/k7_s(0)"),
             ("convert/k8_0", "convert/k7_0")],
}


def build(workload: str, seed: int, work: Path) -> List[Job]:
    """The workload's jobs in the seed's order; inputs written under
    `work`, a path relative to the checkout root."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "overlap":
        jobs = overlap_jobs(work, rng)
    else:
        jobs = {"corpus": corpus_jobs, "peano": peano_jobs,
                "join": join_jobs}[workload](work)
    rng.shuffle(jobs)
    return jobs
