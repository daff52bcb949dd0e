"""Inductive-type translation: constructors, recursors, computation
rules, strong elimination, and bundle certification."""

import pytest

from cac import (GeneratedBundle, InductiveDecl, OverallVerdict, STAR,
                 Signature, Symb, TypeChecker, Var, Variable, arrow,
                 check_admissible, load, normalize, pi, pp, selim_for_motive,
                 translate_inductive)
from cac.cic import BridgeError, is_small
from cac.terms import App, Environment, Sort


def nat_decl():
    x = Variable.fresh("nat", Sort.BOX)
    return InductiveDecl("nat", STAR, x, (
        ("zero", Var(x)),
        ("succ", arrow(Var(x), Var(x))),
    ))


def num(n):
    t = Symb("zero", ())
    for _ in range(n):
        t = Symb("succ", (t,))
    return t


def test_translate_nat_symbols():
    sig = Signature()
    bundle = translate_inductive(nat_decl(), sig)
    assert bundle.inductive == "nat"
    assert bundle.welim == "WElim_nat"
    assert set(bundle.symbols) >= {"nat", "zero", "succ", "WElim_nat"}
    assert sig.decls["succ"].arity == 1
    assert sig.structure.ind_of("nat") == frozenset()
    assert sig.structure.acc_of("succ") == frozenset({1})


def test_welim_type_shape():
    sig = Signature()
    bundle = translate_inductive(nat_decl(), sig)
    d = sig.decls["WElim_nat"]
    assert d.arity == 4  # motive, two branches, scrutinee
    assert pp(d.typ) == "(Q:★) -> Q -> (nat -> Q -> Q) -> nat -> Q"


def test_iota_rules_compute():
    sig = Signature()
    bundle = translate_inductive(nat_decl(), sig)
    assert len(bundle.rules) == 2
    names = {r.name for r in bundle.rules}
    assert names == {"iota_WElim_nat_zero", "iota_WElim_nat_succ"}
    # doubling by recursion: f_succ ignores the predecessor
    from cac.terms import lam
    x = Variable.fresh("x", Sort.STAR)
    y = Variable.fresh("y", Sort.STAR)
    f_succ = lam(x, Symb("nat", ()),
                 lam(y, Symb("nat", ()),
                     Symb("succ", (Symb("succ", (Var(y),)),))))
    t = Symb("WElim_nat", (Symb("nat", ()), num(0), f_succ, num(3)))
    assert normalize(t, bundle.rules) == num(6)


def test_iota_rules_are_typed():
    sig = Signature()
    bundle = translate_inductive(nat_decl(), sig)
    tc = TypeChecker(sig, bundle.rules)
    for r in bundle.rules:
        tc.env_valid(r.ann_env)


def test_bundle_certifies_admissible():
    sig = Signature()
    bundle = translate_inductive(nat_decl(), sig)
    report = check_admissible(sig, bundle.rules)
    assert report.overall == OverallVerdict.ADMISSIBLE
    assert report.a1.level.value == "ORTHOGONAL"
    assert report.a4_non_algebraic == frozenset({"WElim_nat"})
    assert report.a4_non_algebraic_props.safe.holds
    assert report.a4_non_algebraic_props.recursive.holds


def test_corrupted_bundle_fails_schema():
    sig = Signature()
    bundle = translate_inductive(nat_decl(), sig)
    succ_rule = next(r for r in bundle.rules if "succ" in r.name)
    # swap the structural recursion argument for the whole scrutinee
    bad_rhs = _swap_recursion_argument(succ_rule)
    bad = succ_rule._replace(rhs=bad_rhs)
    rules = [r if "succ" not in r.name else bad for r in bundle.rules]
    from cac import satisfies_general_schema
    v = satisfies_general_schema(bad, TypeChecker(sig, rules))
    assert not v.ok


def _swap_recursion_argument(rule):
    """Replace the recursive call's scrutinee with the lhs scrutinee."""
    from cac.terms import App, Symb as S

    scrutinee = rule.lhs.args[3]  # succ(b)

    def fix(t):
        if isinstance(t, S) and t.name == "WElim_nat":
            return S(t.name, t.args[:3] + (scrutinee,))
        if isinstance(t, S):
            return S(t.name, tuple(fix(a) for a in t.args))
        if isinstance(t, App):
            return App(fix(t.head), fix(t.arg))
        return t

    return fix(rule.rhs)


def list_decl():
    x = Variable.fresh("list", Sort.BOX)
    a = Variable.fresh("A", Sort.BOX)
    return InductiveDecl(
        "list", arrow(STAR, STAR), x, (
            ("nil", pi(a, STAR, App(Var(x), Var(a)))),
            ("cons", pi(a, STAR,
                        arrow(Var(a),
                              arrow(App(Var(x), Var(a)),
                                    App(Var(x), Var(a)))))),
        ))


def test_polymorphic_inductive_list():
    sig = Signature()
    decl = list_decl()
    bundle = translate_inductive(decl, sig)
    assert sig.decls["cons"].arity == 3
    report = check_admissible(sig, bundle.rules)
    assert report.overall == OverallVerdict.ADMISSIBLE


def test_strong_elimination_of_parameterized_type_rejected():
    # a motive over list's parameter would abstract over a kind, which
    # has no type in the calculus
    sig = Signature()
    decl = list_decl()
    bundle = translate_inductive(decl, sig)
    with pytest.raises(BridgeError) as e:
        selim_for_motive(decl, bundle, sig, STAR)
    assert e.value.code == "parameterized-type"
    assert "SElim_list_1" not in sig.decls


def test_heterogeneous_inductive_rejected():
    sig = Signature()
    x = Variable.fresh("listh", Sort.BOX)
    a = Variable.fresh("A", Sort.BOX)
    decl = InductiveDecl(
        "listh", STAR, x, (
            ("nilh", Var(x)),
            ("consh", pi(a, STAR,
                         arrow(Var(a), arrow(Var(x), Var(x))))),
        ))
    with pytest.raises(BridgeError):
        translate_inductive(decl, sig)


# (source, code, message): each way a file can write an inductive
# declaration that is not basic
MALFORMED_INDUCTIVES = [
    ("symbol o : * . inductive t : o := c : t .", "bad-arity-type",
     "the arity of t must end in ★, got o"),
    ("symbol o : * . inductive t : * := c : (t -> o) -> t .",
     "non-basic-constructor", "constructor c: argument type t -> o uses "
     "the inductive type other than as a full application"),
    ("symbol o : * . inductive t : * := c : o .", "bad-constructor-output",
     "constructor c does not end in the inductive type"),
    ("inductive t : * -> * := c : t .", "non-basic-constructor",
     "self-reference applied to 0 argument(s), the inductive type has "
     "arity 1"),
]


@pytest.mark.parametrize("source, code, message", MALFORMED_INDUCTIVES)
def test_malformed_inductive_declarations_are_refused(source, code,
                                                      message):
    with pytest.raises(BridgeError) as e:
        load(source)
    assert (e.value.code, e.value.message) == (code, message)


def test_output_indices_that_mention_the_type_are_refused():
    # the parser reads `t (t o)` as a symbol application, so only the
    # API can write the self-reference inside an index
    x = Variable.fresh("t", Sort.BOX)
    decl = InductiveDecl("t", arrow(STAR, STAR), x, (
        ("c", App(Var(x), App(Var(x), STAR))),))
    with pytest.raises(BridgeError) as e:
        translate_inductive(decl, Signature())
    assert (e.value.code, e.value.message) == (
        "non-basic-constructor",
        "constructor c: output indices mention the type")


def large_decl():
    """T with a constructor that packs a proposition, which is not a
    parameter of T."""
    x = Variable.fresh("T", Sort.BOX)
    a = Variable.fresh("A", Sort.BOX)
    return InductiveDecl("T", STAR, x, (("pack", pi(a, STAR, Var(x))),))


def test_is_small():
    assert is_small(nat_decl())
    assert not is_small(large_decl())


def test_strong_elimination_of_a_large_type_rejected():
    # translate_inductive refuses T (I6), so only the API gets here
    sig = Signature()
    bundle = GeneratedBundle("T", [], "WElim_T", [])
    with pytest.raises(BridgeError) as e:
        selim_for_motive(large_decl(), bundle, sig, STAR)
    assert (e.value.code, e.value.message) == (
        "not-small", "T does not support strong elimination")
    assert not sig.decls


def test_strong_elimination_with_cache():
    sig = Signature()
    bundle = translate_inductive(nat_decl(), sig)
    name1 = selim_for_motive(nat_decl(), bundle, sig, STAR)
    count = len(bundle.rules)
    name2 = selim_for_motive(nat_decl(), bundle, sig, STAR)
    assert name1 == name2  # alpha-equal motives share a symbol
    assert len(bundle.rules) == count  # and their rules are added once
    # the motive is baked in: branches + scrutinee only
    assert sig.decls[name1].arity == 3
    # computing a type by recursion: zero -> nat, succ _ -> nat
    from cac.terms import lam
    z = Variable.fresh("z", Sort.STAR)
    q = Variable.fresh("Q", Sort.BOX)
    f_succ = lam(z, Symb("nat", ()),
                 lam(q, STAR, Symb("nat", ())))
    t = Symb(name1, (Symb("nat", ()), f_succ, num(2)))
    assert normalize(t, bundle.rules) == Symb("nat", ())
    # alpha-equal motives that are two objects, with other binder names
    x, y = Variable.fresh("x", Sort.BOX), Variable.fresh("y", Sort.BOX)
    name3 = selim_for_motive(nat_decl(), bundle, sig, pi(x, STAR, STAR))
    count = len(bundle.rules)
    assert selim_for_motive(nat_decl(), bundle, sig,
                            pi(y, STAR, STAR)) == name3 != name1
    assert len(bundle.rules) == count


def test_strong_recursor_bundle_is_admissible():
    # a branch of the strong recursor for ★ returns a type, so its
    # variable has sort class □, which S2 and S3 check; a weak branch
    # returns a term of the motive, so its variable stays ★
    sig = Signature()
    bundle = translate_inductive(nat_decl(), sig)
    name = selim_for_motive(nat_decl(), bundle, sig, STAR)
    for r in bundle.rules:
        branches = [v.sort for v, _ in r.ann_env if v.name in ("f1", "f2")]
        strong = r.name.startswith(f"iota_{name}_")
        assert branches == [Sort.BOX if strong else Sort.STAR] * 2
    report = check_admissible(sig, bundle.rules)
    assert report.overall == OverallVerdict.ADMISSIBLE, report.to_text()
    assert report.a3_branch == "simple+recursive"


def test_open_motive_rejected():
    sig = Signature()
    bundle = translate_inductive(nat_decl(), sig)
    a = Variable.fresh("A", Sort.BOX)
    with pytest.raises(BridgeError):
        selim_for_motive(nat_decl(), bundle, sig, Var(a))
