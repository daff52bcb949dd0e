"""Acceptance criteria: one test per criterion, each printing a single
pass/fail line and enforcing its runtime bound."""

import contextlib
import gc
import io
import json
import operator
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

import cac
from cac import (ConfluenceLevel, Environment, FuelExhausted, Orientation,
                 Outcome, OverallVerdict, Symb, TypeChecker, Var, Variable,
                 check_admissible, check_inductive_structure,
                 check_type_preservation, check_well_formed, cc_check,
                 confluence_check, critical_pairs, joinable, load,
                 normalize, pp, predicate_classes, satisfies_general_schema,
                 system_properties)
from cac.cli import _FileChecker, _confluent, main
from cac.rewriting import _Search, rename_apart, unify
from cac.syntax import _texts, parse
from cac.terms import free_vars, lam, map_children, symbols_of, var_counts
from tests.conftest import (CORPUS, _unless_recursion_error, corpus_source,
                            plus_family_source, width_source)
from tests.test_admissibility import partition


def _report(num, ok, label):
    print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'} — {label}")
    assert ok, label


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_acceptance_1_list_append():
    with Timer() as tm:
        lf = load(corpus_source("app"))
        ok = True
        tc = TypeChecker(lf.signature, lf.rules)
        for r in lf.rules:
            conds = check_type_preservation(r, tc)
            ok &= all(conds[k].outcome == Outcome.PASS
                      for k in ("s1", "s2", "s3"))
            ok &= conds["s4"].outcome == Outcome.PASS_SUFFICIENT
            ok &= conds["s5"].outcome == Outcome.PASS_SUFFICIENT
            ok &= check_well_formed(r, lf.signature).ok
            ok &= satisfies_general_schema(r, tc).ok
        ok &= critical_pairs(lf.rules).nonlinear is None  # left-linear
        rule2 = next(r for r in lf.rules if r.name == "rule2")
        deriv = cc_check(rule2, tc)
        ok &= any("⟨cons(A', x, l), list(A)⟩ > ⟨l, list(A)⟩" in n.note
                  for n in deriv.nodes())
    ok &= tm.elapsed < 1.0
    _report(1, ok, "append rules: exact S1-S3, sufficient S4-S5, "
                   "well-formed, schema-compliant, decreasing recursive "
                   f"call witnessed ({tm.elapsed:.2f}s)")


def test_acceptance_2_propositional_system():
    with Timer() as tm:
        lf = load(corpus_source("ndm_prop"))
        gset = frozenset(lf.signature.defined_predicate_symbols(lf.rules))
        props = system_properties(gset, lf.rules,
                                  TypeChecker(lf.signature, lf.rules),
                                  predicate_classes(lf.signature, lf.rules),
                                  which=("algebraic", "non_duplicating",
                                         "primitive"))
        ok = (props.algebraic.holds and props.non_duplicating.holds
              and props.primitive.holds)
        cps = critical_pairs(lf.rules)
        ok &= cps.nonlinear is None  # every rule left-linear
        ok &= len(cps) > 0
        ok &= all(joinable(cp.left_reduct, cp.right_reduct, lf.rules,
                           100, terminating=False) for cp in cps)
        report = check_admissible(lf.signature, lf.rules)
        ok &= report.a1.level == ConfluenceLevel.NEWMAN
        ok &= report.a4_sn.status == "HOLDS"
        ok &= all(f"rule{i}" in report.a4_sn.witness and ">rpo" in
                  report.a4_sn.witness for i in range(1, 9))
        ok &= report.overall == OverallVerdict.ADMISSIBLE
        ok &= report.assertions == []
    ok &= tm.elapsed < 1.0
    _report(2, ok, "connective system: algebraic, non-duplicating, "
                   "primitive, left-linear; all critical pairs joined; "
                   "RPO termination; ADMISSIBLE with zero assertions "
                   f"({tm.elapsed:.2f}s)")


def test_acceptance_3_integer_constructors():
    with Timer() as tm:
        lf = load(corpus_source("int"))
        sp_rules = [r for r in lf.rules if r.head_name() in ("s", "p")]
        cps = critical_pairs(sp_rules)
        ok = len(cps) == 2
        ok &= all(joinable(cp.left_reduct, cp.right_reduct, lf.rules,
                           10000, terminating=False) for cp in cps)
        t = Symb("p", (Symb("s", (Symb("p", (Symb("s", (Symb("0", ()),)),)),)),))
        ok &= normalize(t, lf.rules) == Symb("0", ())
        ok &= {"plus", "times"} <= set(lf.signature.constructors_of("int"))
    ok &= tm.elapsed < 1.0
    _report(3, ok, "integer constructors: exactly 2 joinable critical "
                   "pairs, p(s(p(s(0)))) normalizes to 0, plus and times "
                   f"are constructors of int ({tm.elapsed:.2f}s)")


def _peano(n):
    t = Symb("zero", ())
    for _ in range(n):
        t = Symb("succ", (t,))
    return t


def test_acceptance_4_recursor_bundle():
    with Timer() as tm:
        lf = load(corpus_source("nat"))
        report = check_admissible(lf.signature, lf.rules)
        ok = report.overall == OverallVerdict.ADMISSIBLE
        ok &= report.a1.level == ConfluenceLevel.ORTHOGONAL
        ok &= report.a4_non_algebraic == frozenset({"WElim_nat"})
        ok &= report.a4_non_algebraic_props.safe.holds
        ok &= report.a4_non_algebraic_props.recursive.holds

        from cac.terms import Sort, Variable, Var, lam
        natt = Symb("nat", ())
        x = Variable.fresh("x", Sort.STAR)
        y = Variable.fresh("y", Sort.STAR)
        f_succ = lam(x, natt, lam(y, natt, Symb("succ", (Var(y),))))

        def add(m, n):
            return Symb("WElim_nat", (natt, _peano(n), f_succ, _peano(m)))

        ok &= normalize(add(2, 2), lf.rules) == _peano(4)
        # the recursor simulation agrees with ordinary addition on all
        # numerals up to 10
        for m in range(11):
            for n in range(11):
                ok &= normalize(add(m, n), lf.rules) == _peano(m + n)
    ok &= tm.elapsed < 2.0
    _report(4, ok, "generated recursor: bundle ADMISSIBLE (orthogonal, "
                   "safe+recursive), 2+2 computes to 4, simulation agrees "
                   f"with addition on numerals <= 10 ({tm.elapsed:.2f}s)")


def test_acceptance_5_negative_controls():
    lf = load(corpus_source("listh"))
    violations = check_inductive_structure(lf.signature, lf.rules)
    ok = any(v.condition == "I6" and v.constructor == "consh"
             for v in violations)

    lf2 = load(corpus_source("neg_schema"))
    (r2,) = lf2.rules
    v2 = satisfies_general_schema(r2, TypeChecker(lf2.signature, lf2.rules))
    ok &= not v2.ok and v2.failure is not None
    rep2 = check_admissible(lf2.signature, lf2.rules)
    ok &= rep2.overall == OverallVerdict.REJECTED
    ok &= any("not smaller" in ts["witness"]
              for ts in rep2.to_dict()["a4"]
              ["non_algebraic_properties"].values())

    lf3 = load(corpus_source("neg_dup"))
    props = system_properties(frozenset({"f"}), lf3.rules,
                              TypeChecker(lf3.signature, lf3.rules), {},
                              which=("non_duplicating",))
    ok &= props.non_duplicating.status == "FAILS"
    ok &= "duplicates x" in props.non_duplicating.witness
    rep3 = check_admissible(lf3.signature, lf3.rules)
    ok &= rep3.overall == OverallVerdict.REJECTED
    ok &= "duplicates x" in rep3.to_dict()["a4"]["demotions"]["f"]
    _report(5, ok, "negative controls: I6 violation, schema failure, "
                   "duplication — each with a concrete witness")


def test_acceptance_6_property_suites():
    with Timer() as tm:
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/test_properties.py",
             "-q", "--no-header"],
            capture_output=True, text=True)
        ok = proc.returncode == 0
    ok &= tm.elapsed < 60.0
    _report(6, ok, "seven randomized property suites (500 seed-fixed cases "
                   f"each) all pass ({tm.elapsed:.2f}s)")


def test_acceptance_7_determinism():
    ok = True
    for p in sorted(CORPUS.glob("*.cac")):
        reports = []
        for _ in range(2):
            lf = load(p.read_text(encoding="utf-8"))
            report = check_admissible(lf.signature, lf.rules,
                                      assume_confluent=lf.assume_confluent,
                                      assume_terminating=lf.assume_terminating,
                                      force_non_algebraic=lf.non_algebraic)
            reports.append(json.dumps(report.to_dict(), indent=2,
                                      sort_keys=True).encode())
        ok &= reports[0] == reports[1]
    _report(7, ok, "admissibility reports are byte-identical across runs "
                   "on every corpus file")


def _bfs_chain(n):
    """plus(p(s(0)), ...) nested n deep, s(0), and the int rules plus
    p(0) -> 0.  The chain has value 0, so it never meets s(0), and the
    breadth-first search visits every reduct of both."""
    lf = load(corpus_source("int") + "rule p(0) -> 0 .\n")
    chain = Symb("0", ())
    for _ in range(n):
        chain = Symb("plus", (Symb("p", (Symb("s", (Symb("0", ()),)),)),
                              chain))
    return chain, Symb("s", (Symb("0", ()),)), lf.rules


def test_acceptance_8_joinability_search():
    with Timer() as tm:
        ok = not joinable(*_bfs_chain(9), 10000, terminating=False)
    ok &= tm.elapsed < 2.0
    _report(8, ok, "joinability search: plus(p(s(0)), ...) 9 deep and "
                   "s(0) have no common reduct under the int rules plus "
                   f"p(0) -> 0 ({tm.elapsed:.2f}s)")


def _synthetic(n):
    """n binary symbols over one constant in a precedence chain, with
    two overlapping rules each: fi(c, y) -> f(i+1)(y, c) and
    fi(x, c) -> x."""
    lines = ["symbol o : * .", "symbol c : o ."]
    lines += [f"symbol f{i} : o -> o -> o ." for i in range(n)]
    lines += [f"pragma prec f{i} > f{i + 1} ." for i in range(n - 1)]
    for i in range(n):
        rhs = f"f{i + 1}(y, c)" if i + 1 < n else "y"
        lines.append(f"rule f{i}(c, y) -> {rhs} .")
        lines.append(f"rule f{i}(x, c) -> x .")
    return "\n".join(lines) + "\n"


def _admissibility_calls(n):
    """Python and builtin calls made by check_admissible on
    synthetic(n), counted with a profile hook (loading not counted)."""
    lf = load(_synthetic(n))
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        report = check_admissible(lf.signature, lf.rules)
    finally:
        sys.setprofile(previous)
    assert report.overall == OverallVerdict.ADMISSIBLE
    return count


def test_acceptance_9_admissibility_scales_linearly():
    # a count of calls, not a time: it repeats exactly from run to run
    small, large = _admissibility_calls(80), _admissibility_calls(160)
    ratio = large / small
    _report(9, ratio <= 2.1,
            "admissibility work grows linearly in the symbols: calls on "
            f"synthetic(160) / synthetic(80) = {large} / {small} = "
            f"{ratio:.2f} (bound 2.1)")


def _peano_add(n):
    """WElim_nat(nat, succ^n(zero), fun x y => succ(y), succ^n(zero)),
    built from symbols, so no parser depth limit applies."""
    nat, numeral = Symb("nat", ()), Symb("zero", ())
    for _ in range(n):
        numeral = Symb("succ", (numeral,))
    x, y = Variable.fresh("x"), Variable.fresh("y")
    add_step = lam(x, nat, lam(y, nat, Symb("succ", (Var(y),))))
    return Symb("WElim_nat", (nat, numeral, add_step, numeral))


def _normalize_calls(rules, n):
    """Python and builtin calls made by normalize on peano-add(n),
    counted with a profile hook (building the term not counted)."""
    t = _peano_add(n)
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        normalize(t, rules)
    finally:
        sys.setprofile(previous)
    return count


def test_acceptance_10_normalization_scales_linearly():
    rules = load(corpus_source("nat")).rules
    small, large = _normalize_calls(rules, 400), _normalize_calls(rules, 800)
    ratio = large / small
    nf = normalize(_peano_add(1000), rules)
    depth = 0
    while nf.name == "succ":  # walked, since == recurses on deep terms
        depth += 1
        nf = nf.args[0]
    ok = ratio <= 2.1 and depth == 2000 and nf == Symb("zero", ())
    _report(10, ok,
            "normalization work grows linearly in the term: calls on "
            f"peano-add(800) / peano-add(400) = {large} / {small} = "
            f"{ratio:.2f} (bound 2.1); peano-add(1000) normalizes to "
            f"succ^{depth}(zero)")


def _tree_source(d, leaf=8):
    """The benchmark's peano tree_d input: a tree of 2^d additions
    leaf + leaf, each through the generated recursor."""
    numeral = "succ(" * leaf + "zero" + ")" * leaf
    tree = (f"WElim_nat(nat, {numeral}, fun (x : nat) => fun (y : nat) => "
            f"succ(y), {numeral})")
    for _ in range(d):
        tree = f"node({tree}, {tree})"
    return ("inductive nat : * := zero : nat | succ : nat -> nat .\n"
            "symbol node : nat -> nat -> nat .\n"
            f"normalize {tree} .\n")


def test_acceptance_11_front_end_calls_per_token():
    source = _tree_source(6)
    tokens = len(_texts(source)[0])
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        parse(source)
    finally:
        sys.setprofile(previous)
    per_token = count / tokens
    _report(11, per_token <= 1.5,
            "the front end is cheap per token: lex and parse of peano "
            f"tree_6 make {count} calls for {tokens} tokens = "
            f"{per_token:.2f} per token (bound 1.5)")


def test_acceptance_12_joinability_hashes_each_term_once():
    # the search of gate 8; a count of frames, not a time, so it
    # repeats exactly from run to run
    search = _bfs_chain(9)
    hashes = 0

    def hook(frame, event, arg):
        nonlocal hashes
        if event == "call" and frame.f_code.co_name == "__hash__":
            hashes += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        answer = joinable(*search, 10000, terminating=False)
    finally:
        sys.setprofile(previous)
    _report(12, not answer and hashes <= 100,
            "the joinability search never hashes a term whole: "
            f"bfs-chain(9) against s(0) makes {hashes} __hash__ frames "
            "(bound 100)")


def _joinable_calls(n):
    """Python and builtin calls made by joinable on bfs-chain(n) against
    s(0), counted with a profile hook (building the terms not counted)."""
    search = _bfs_chain(n)
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        answer = joinable(*search, 10000, terminating=False)
    finally:
        sys.setprofile(previous)
    assert not answer
    return count


def _rpo_calls(k):
    """Python and builtin calls made by `Orientation.terminates` on the plus
    family at k, counted with a profile hook (loading not counted)."""
    lf = load(plus_family_source(k))
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        trace = Orientation(lf.signature).terminates(lf.rules)
    finally:
        sys.setprofile(previous)
    assert trace is not None
    return count


def test_acceptance_13_rpo_is_polynomial():
    # a count of calls, not a time; cubic, since each subterm pair is
    # decided once but still starts with a full alpha_eq
    small, large = _rpo_calls(20), _rpo_calls(40)
    ratio = large / small
    _report(13, ratio <= 8,
            "the recursive path order decides each subterm pair once: "
            f"calls on plus(s^40(x), y) -> s^40(plus(x, y)) / on k = 20 "
            f"= {large} / {small} = {ratio:.2f} (bound 8)")


IMPORT_CALLS_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
count = 0

def hook(frame, event, arg):
    global count
    if event in ("call", "c_call"):
        count += 1

sys.setprofile(hook)
import cac.cli
sys.setprofile(None)
print(count)
"""


def test_acceptance_14_import_is_cheap():
    # every `cac` command starts a fresh interpreter and imports the
    # whole checker first; a count of calls, not a time, and it moves by
    # a few hundred with the state of the bytecode cache
    src = str(pathlib.Path(cac.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_CALLS_PROBE,
                           src], capture_output=True, text=True, check=True)
    calls = int(proc.stdout)
    _report(14, calls <= 20_000,
            "importing the checker builds its classes without generated "
            f"code: a fresh `import cac.cli` makes {calls} Python and "
            "builtin calls (bound 20000)")


def test_acceptance_15_joinability_expands_each_term_once():
    # a count of calls, not a time; the search hash-conses its terms and
    # memoizes each one's reducts, so the work follows the distinct terms
    small, large = _joinable_calls(8), _joinable_calls(9)
    ratio = large / small
    _report(15, ratio <= 2.2,
            "the joinability search builds and expands each distinct term "
            f"once: calls on bfs-chain(9) / bfs-chain(8) = {large} / "
            f"{small} = {ratio:.2f} (bound 2.2)")


def _calls(f, only=None):
    """Python and builtin calls made by f(), counted with a profile
    hook; with `only`, the calls of that Python function alone."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if only is None:
            count += event in ("call", "c_call")
        else:
            count += event == "call" and frame.f_code is only.__code__

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        f()
    finally:
        sys.setprofile(previous)
    return count


def _tree_calls(d):
    """Calls made by normalize on peano tree_d at fuel 10^6 (loading not
    counted)."""
    lf = load(_tree_source(d), fuel=10**6)
    (directive,) = lf.directives
    return _calls(lambda: normalize(directive.terms[0], lf.rules, 10**6))


def test_acceptance_16_normalization_follows_the_shared_subterms():
    # a count of calls, not a time; elaboration makes the 2^d equal
    # leaves one object, and normalize remembers a shared subterm's
    # normal form, so the work follows the distinct subterms
    small, large = _tree_calls(6), _tree_calls(12)
    ratio = large / small
    _report(16, ratio <= 1.5,
            "normalization takes each shared subterm once: calls on peano "
            f"tree_12 / tree_6 = {large} / {small} = {ratio:.2f} "
            "(bound 1.5)")


def _binders_source(k):
    """A file whose one directive normalizes fun (x1:o) => ... fun (xk:o)
    => x1."""
    binders = " ".join(f"fun (x{i}:o) =>" for i in range(1, k + 1))
    return f"symbol o : * .\nnormalize {binders} x1 .\n"


def test_acceptance_17_elaboration_is_linear_under_binders():
    # a count of calls, not a time; bound names become de Bruijn indices
    # as they are read, so no body is walked again at its binder
    small = _calls(lambda: load(_binders_source(80)))
    large = _calls(lambda: load(_binders_source(160)))
    ratio = large / small
    _report(17, ratio <= 2.2,
            "elaboration costs O(1) per binder: load calls on 160 nested "
            f"binders / on 80 = {large} / {small} = {ratio:.2f} "
            "(bound 2.2)")


def _infer_calls(k):
    """TypeChecker.infer calls made by checking fun (x1:o) => ... fun
    (xk:o) => g(g(a)) at o -> ... -> o under g(x) -> x (loading not
    counted)."""
    binders = " ".join(f"fun (x{i}:o) =>" for i in range(1, k + 1))
    arrows = " -> ".join(["o"] * (k + 1))
    lf = load("symbol o : * .\nsymbol a : o .\nsymbol g : o -> o .\n"
              f"rule g(x) -> x .\ncheck {binders} g(g(a)) : {arrows} .\n")
    tc = TypeChecker(lf.signature, lf.rules)
    (directive,) = lf.directives
    return _calls(lambda: tc.check(Environment(), *directive.terms),
                  TypeChecker.infer)


def test_acceptance_18_typing_is_linear_under_binders():
    # a count of calls, not a time; an abstraction builds its product
    # judgment from premises it already has, so no product is typed again
    small, large = _infer_calls(80), _infer_calls(160)
    ratio = large / small
    _report(18, ratio <= 2.2,
            "typing costs O(1) judgments per binder: infer calls on "
            f"λ-depth 160 / on 80 = {large} / {small} = {ratio:.2f} "
            "(bound 2.2)")


def _peak(f):
    """The peak of the traced Python heap while f() runs, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_acceptance_19_structured_report_memory(tmp_path):
    # a ratio of traced heap peaks; the report is written from shared
    # rows, so printing it holds little beside the report itself
    f = tmp_path / "synthetic_160.cac"
    f.write_text(_synthetic(160), encoding="utf-8")

    def verdict():
        lf = load(f.read_text(encoding="utf-8"))
        check_admissible(lf.signature, lf.rules)

    def report():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--report", "structured", "admissibility",
                         str(f)]) == 0

    report()  # the argument parser is built once per process
    small, large = _peak(verdict), _peak(report)
    ratio = large / small
    _report(19, ratio <= 1.35,
            "the structured report costs little memory beside the "
            "verdict: peak of `cac --report structured admissibility` on "
            f"synthetic(160) / of load and check_admissible = "
            f"{large / 2**20:.3f} / {small / 2**20:.3f} MiB = {ratio:.2f} "
            "(bound 1.35)")


def _demotion_chain(n):
    """g0 .. gn, where the rule of gi calls g(i+1) and gn is
    non-algebraic by pragma: the partition demotes one symbol per
    round, from g(n-1) down to g0."""
    lines = ["symbol o : * ."]
    lines += [f"symbol g{i} : o -> o ." for i in range(n + 1)]
    lines += [f"pragma prec g{i} > g{i + 1} ." for i in range(n)]
    lines.append(f"pragma non_algebraic g{n} .")
    lines += [f"rule g{i}(x) -> g{i + 1}(x) ." for i in range(n)]
    lines.append(f"rule g{n}(x) -> x .")
    return "\n".join(lines) + "\n"


def _partition_calls(n):
    lf = load(_demotion_chain(n))
    fa, _, reasons = partition(lf, lf.non_algebraic)
    assert not fa and reasons["g0"] == ("rules mention the non-algebraic "
                                        "symbol g1")
    return _calls(lambda: partition(lf, lf.non_algebraic))


def test_acceptance_20_partition_is_linear_in_a_demotion_chain():
    # a count of calls, not a time; each round starts from the symbols
    # demoted in the round before, so a chain costs O(1) per link
    small, large = _partition_calls(80), _partition_calls(160)
    ratio = large / small
    _report(20, ratio <= 2.2,
            "the partition's fixpoint is linear: calls on a demotion "
            f"chain of 160 / of 80 = {large} / {small} = {ratio:.2f} "
            "(bound 2.2)")


def test_acceptance_21_load_holds_little_beside_the_file():
    # a ratio of traced heap sizes; token texts are shared and each
    # parsed item is dropped once elaborated, so loading holds little
    # beyond the file it builds
    source = _synthetic(160)
    gc.collect()
    tracemalloc.start()
    try:
        lf = load(source)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lf.rules) == 320
    ratio = peak / size
    _report(21, ratio <= 1.3,
            "loading holds little beside the loaded file: peak of "
            f"load(synthetic(160)) / its LoadedFile = {peak / 2**20:.3f} / "
            f"{size / 2**20:.3f} MiB = {ratio:.2f} (bound 1.3)")


def _under_binder_calls(d):
    """Calls made by normalize on fun (z : nat) => tree_d, whose body
    does not mention z (loading not counted)."""
    source = _tree_source(d).replace("normalize ",
                                     "normalize fun (z : nat) => ")
    lf = load(source, fuel=10**6)
    (directive,) = lf.directives
    return _calls(lambda: normalize(directive.terms[0], lf.rules, 10**6))


def test_acceptance_22_normalization_keeps_sharing_under_a_binder():
    # a count of calls, not a time; opening a binder returns each
    # subterm that does not mention the bound variable itself, so the
    # shared subterms of the body are still normalized once
    under, bare = _under_binder_calls(6), _tree_calls(6)
    ratio = under / bare
    _report(22, ratio <= 8,
            "normalization keeps sharing under a binder: calls on "
            f"fun (z : nat) => tree_6 / on tree_6 = {under} / {bare} = "
            f"{ratio:.2f} (bound 8)")


def _declarations_source(n):
    """n one-line symbol declarations over one sort."""
    return "symbol o : * .\n" + "".join(f"symbol g{i} : o -> o .\n"
                                          for i in range(n))


def _load_time_ratio(make_source, small, large):
    """Median over five rounds of the CPU time of load at `large` over
    that at `small`, with both times.  Each round loads both sizes back
    to back and counts this process's CPU time, so a slow spell of a
    shared machine weighs on both sizes.  The collector is off while a
    load runs: a full collection scans every object the test process
    holds, which the larger load would pay more often."""
    sources = {n: make_source(n) for n in (small, large)}
    rounds = []
    for _ in range(5):
        took = {}
        for n, source in sources.items():
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                load(source)
                took[n] = time.process_time() - t0
            finally:
                gc.enable()
        rounds.append((took[large] / took[small], took[large], took[small]))
    return sorted(rounds)[2]


def test_acceptance_23_declarations_are_linear():
    # a ratio of times at sizes four apart; a declaration looks up each
    # symbol its type mentions, not a copy of every declared name
    ratio, large, small = _load_time_ratio(_declarations_source, 2000, 8000)
    _report(23, ratio <= 5.5,
            "declaring a symbol costs O(1) in the symbols declared: load "
            f"of 8000 / of 2000 declarations = {large:.3f} / {small:.3f} s "
            f"CPU = {ratio:.2f}, median of five rounds (bound 5.5)")


def test_acceptance_24_joinability_works_on_handles():
    # a count of calls, not a time; the search matches rules against
    # its nodes' keys and builds each reduct's key from the right-hand
    # side, so a rule step builds, hashes and re-reads no term
    calls = _joinable_calls(9)
    _report(24, calls <= 40_000,
            "the joinability search rewrites on integer handles: "
            f"bfs-chain(9) against s(0) makes {calls} Python and builtin "
            "calls (bound 40000)")


def _rules_then_declarations_source(n):
    """n pairs of a symbol and its rule, then n more declarations."""
    lines = ["symbol o : * .", "symbol c : o ."]
    for i in range(n):
        lines += [f"symbol f{i} : o -> o .", f"rule f{i}(c) -> c ."]
    lines += [f"symbol g{i} : o -> o ." for i in range(n)]
    return "\n".join(lines) + "\n"


def test_acceptance_25_declarations_after_rules_are_linear():
    # a ratio of times at sizes four apart, as gate 23; every
    # declaration type-checks against the rules loaded before it, which
    # the file indexes once as they load rather than once per declaration
    ratio, large, small = _load_time_ratio(_rules_then_declarations_source,
                                           250, 1000)
    _report(25, ratio <= 5.5,
            "declaring a symbol after rules costs O(1) in the rules: load "
            f"of 1000 / of 250 symbol-rule pairs and declarations = "
            f"{large:.3f} / {small:.3f} s CPU = {ratio:.2f}, median of five "
            "rounds (bound 5.5)")


def _ladder_source(n):
    """The benchmark's peano ladder_n input: n + n normalized, then
    converted to succ^2n(zero)."""
    numeral = "succ(" * n + "zero" + ")" * n
    add = (f"WElim_nat(nat, {numeral}, fun (x : nat) => fun (y : nat) => "
           f"succ(y), {numeral})")
    return ("inductive nat : * := zero : nat | succ : nat -> nat .\n"
            f"normalize {add} .\n"
            f"convert {add} , {'succ(' * 2 * n}zero{')' * 2 * n} .\n")


def test_acceptance_26_a_command_normalizes_a_shared_term_once():
    # a count of calls, not a time; the directives of a file share one
    # elaboration table and the command one normal-form memo, so the
    # convert finds n + n's normal form where the normalize left it
    lf = load(_ladder_source(100))
    normalize_d, convert_d = lf.directives
    tc = _FileChecker(lf, 10000)
    tc.confluent = _confluent(lf, 10000)
    first = _calls(lambda: tc.normal_form(normalize_d.terms[0]))
    second = _calls(lambda: tc.convertible(*convert_d.terms))
    assert tc.confluent
    ratio = second / first
    _report(26, ratio <= 0.25,
            "a command normalizes each shared term once: calls of "
            "ladder(100)'s convert after its normalize / of the normalize "
            f"= {second} / {first} = {ratio:.2f} (bound 0.25)")


def _print_frames(d):
    """Printer frames of `pp` on the normal form of peano tree_d."""
    lf = load(_tree_source(d), fuel=10**6)
    (directive,) = lf.directives
    nf = normalize(directive.terms[0], lf.rules, 10**6)
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        count += (event == "call"
                  and frame.f_code.co_filename == cac.printer.__file__)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        pp(nf)
    finally:
        sys.setprofile(previous)
    return count


def test_acceptance_27_printing_follows_the_shared_subterms():
    # a count of frames, not a time; a binder-free subterm met a second
    # time is printed from its kept text, so the walk follows the
    # distinct subterms of the normal form
    small, large = _print_frames(6), _print_frames(12)
    ratio = large / small
    _report(27, ratio <= 1.5,
            "the printer prints each shared subterm once: printer frames "
            f"on peano tree_12's normal form / on tree_6's = {large} / "
            f"{small} = {ratio:.2f} (bound 1.5)")


def test_acceptance_28_printing_keeps_no_text_of_an_unshared_term():
    # a ratio of traced heap peaks; only a subterm met twice keeps its
    # text, so printing succ^k(zero) holds O(k), not O(k^2), characters
    small, large = _peano(75), _peano(300)
    ps, pl = _peak(lambda: pp(small)), _peak(lambda: pp(large))
    ratio = pl / ps
    _report(28, ratio <= 4.8,
            "printing an unshared term keeps no text: peak of "
            f"pp(succ^300(zero)) / of pp(succ^75(zero)) = {pl} / {ps} B = "
            f"{ratio:.2f} (bound 4.8)")


def test_acceptance_29_loading_has_no_depth_limit():
    # one loop with its own stacks parses and elaborates every level, so
    # a numeral far deeper than the recursion limit loads
    depth = 10_000
    lf = _unless_recursion_error(
        load, "inductive nat : * := zero : nat | succ : nat -> nat .\n"
        f"normalize {'succ(' * depth}zero{')' * depth} .\n")
    assert lf != "RecursionError"
    (directive,) = lf.directives
    built = Symb("zero", ())
    for _ in range(depth):
        built = Symb("succ", (built,))
    ok = _unless_recursion_error(operator.eq, directive.terms, [built]) \
        is True and depth > sys.getrecursionlimit()
    _report(29, ok, "loading has no depth limit: load reads normalize "
                    f"succ^{depth}(zero), and its term equals one built "
                    "directly")


def test_acceptance_30_each_declared_type_is_kind_checked_once():
    # a count of calls, not a time; the declared types of a file are
    # elaborated through one table, and a declaration reuses the sort of
    # a type object already checked, so synthetic(160)'s 162 symbols of
    # three distinct types cost three kind checks
    source = _synthetic(160)
    calls = _calls(lambda: load(source), only=TypeChecker.infer)
    _report(30, calls <= 20,
            "loading kind-checks each declared type once: "
            f"load(synthetic(160)) makes {calls} TypeChecker.infer calls "
            "(bound 20)")


def test_acceptance_31_critical_pairs_rename_only_shared_variables():
    # a count of calls, not a time; `load` gives each rule its own
    # variables, so synthetic(160)'s 320 rules are overlapped as they
    # are, and unification is tried only under the partner's head: its
    # 160 critical pairs cost at most one unify call each
    rules = load(_synthetic(160)).rules
    renames = _calls(lambda: critical_pairs(rules), only=rename_apart)
    unifies = _calls(lambda: critical_pairs(rules), only=unify)
    _report(31, renames == 0 and unifies <= 160,
            "critical pairs rename no rule of a loaded file and unify only "
            f"under matching heads: critical_pairs(synthetic(160)) makes "
            f"{renames} rename_apart calls (bound 0) and {unifies} unify "
            "calls (bound 160)")


def test_normalization_fuel_counts_every_remembered_contraction():
    # tree_4 holds 16 equal additions of 25 contractions each: the fuel
    # must stop the shared term exactly where it stops a copy that
    # shares no node, and both must give the same normal form
    lf = load(_tree_source(4))
    (directive,) = lf.directives
    shared = directive.terms[0]

    def unshared(t):
        return map_children(t, unshared)

    copy = unshared(shared)
    assert shared.args[0] is shared.args[1]
    assert copy.args[0] is not copy.args[1] and copy == shared
    forms = []
    for t in (shared, copy):
        forms.append(pp(normalize(t, lf.rules, 400)))
        with pytest.raises(FuelExhausted) as e:
            normalize(t, lf.rules, 399)
        assert e.value.message == "fuel exhausted during normalization"
    assert forms[0] == forms[1]
    # tree_12's 4096 leaves are one object, normalized once, yet the
    # fuel still pays 25 contractions for each
    lf = load(_tree_source(12))
    (directive,) = lf.directives
    normalize(directive.terms[0], lf.rules, 102_400)
    with pytest.raises(FuelExhausted):
        normalize(directive.terms[0], lf.rules, 102_399)


def test_normalization_takes_a_shared_leaf_once():
    # node(L, L) with one object L: the second L is a remembered normal
    # form, even though a beta step above the focus cut the walk back to
    # L's own slot while L was being normalized
    one, two = _tree_calls(0), _tree_calls(1)
    assert two / one <= 1.1, (one, two)


def test_acceptance_32_each_left_hand_side_is_walked_once():
    # a count of calls, not a time; loading, S4, S5 and the well-formed
    # rule test read derived types from one typed walk of the lhs, and no
    # position-by-position derived type is left to call; critical_pairs
    # walks each lhs once for its positions under a rule head, its
    # repeated variables and the variables it shares with an earlier
    # rule, so A1 counts no variables and builds no variable sets;
    # var_counts is left to A4's duplication test, one call per rule
    # side, and free_vars in critical_pairs to unify's occurs check
    source = _synthetic(160)
    kept = [f"{module.__name__}.{name}" for module, name in [
        (cac.schema, "derived_type"), (cac.schema, "typed_occurrences"),
        (cac.terms, "positions_of")] if hasattr(module, name)]
    lf = load(source)
    symbols = _calls(lambda: check_admissible(lf.signature, lf.rules),
                     only=symbols_of)
    counts = _calls(lambda: check_admissible(lf.signature, lf.rules),
                    only=var_counts)
    free = _calls(lambda: critical_pairs(lf.rules), only=free_vars)
    _report(32, not kept and symbols == 0 and counts <= 640
            and free <= 320,
            "each left-hand side is walked once for its types and its "
            f"overlaps: position-by-position walks defined: {kept} "
            "(bound none); check_admissible of synthetic(160) makes "
            f"{symbols} symbols_of calls (bound 0) and {counts} var_counts "
            f"calls (bound 640), and critical_pairs {free} free_vars "
            "calls (bound 320)")


def _tower_source(k):
    """f(s^k(x)) -> x and s(s(x)) -> x under prec f > s: terminating,
    and s overlaps f's lhs at k - 1 positions, whose pairs f(s^(k-2)(x))
    and x are different normal forms."""
    return ("symbol o : * .\nsymbol s : o -> o .\nsymbol f : o -> o .\n"
            "pragma prec f > s .\n"
            f"rule f({'s(' * k}x{')' * k}) -> x .\nrule s(s(x)) -> x .\n")


def _a1_calls(source):
    """Python and builtin calls made by A1 on the loaded source."""
    lf = load(source)
    orientation = Orientation(lf.signature)
    return _calls(lambda: confluence_check(lf.rules, orientation))


def test_acceptance_33_joinability_normalizes_after_the_early_meet(
        tmp_path):
    # counts of calls, not times; when a search's first level does not
    # meet, both sides are normalized: a conversion whose sides have one
    # normal form stops there, and under a termination proof A1 decides
    # each critical pair by its normal forms and stops at the first pair
    # whose normal forms differ
    f = tmp_path / "int_trunc.cac"
    f.write_text(corpus_source("int") + "rule p(0) -> 0 .\n",
                 encoding="utf-8")
    chain = "0"
    for _ in range(8):
        chain = f"plus(p(s(0)), {chain})"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        expands = _calls(lambda: main(["convert", str(f), "-e", chain,
                                       "-e", "0"]), only=_Search._expand)
    levels = []
    for n in (8, 12, 16, 20):
        lf = load(width_source(n))
        levels.append(confluence_check(lf.rules, Orientation(lf.signature))
                      .level.value)
    wide, narrow = _a1_calls(width_source(20)), _a1_calls(width_source(10))
    tall, short = _a1_calls(_tower_source(200)), _a1_calls(_tower_source(100))
    ok = out.getvalue() == "convertible\n" and expands <= 11
    ok &= levels == ["NEWMAN"] * 4
    ok &= wide / narrow <= 2.5 and tall / short <= 4.5
    _report(33, ok,
            "joinability normalizes both sides after the early meet: "
            f"convert of the 8-deep int_trunc chain against 0 makes "
            f"{expands} _Search._expand calls (bound 11); A1 on the width-n "
            f"family at n = 8, 12, 16, 20 is {levels} (bound NEWMAN); A1 "
            f"calls at width 20 / 10 = {wide} / {narrow} = "
            f"{wide / narrow:.2f} (bound 2.5), and on f(s^k(x)) -> x at "
            f"k = 200 / 100 = {tall} / {short} = {tall / short:.2f} "
            "(bound 4.5)")
