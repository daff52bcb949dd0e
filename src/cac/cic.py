"""Translation of basic inductive declarations into symbols and
recursor rewrite rules (weak elimination always, strong elimination per
closed small motive), ready for the admissibility pipeline."""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from .rewriting import RewriteRule
from .signature import Signature
from .terms import (CacError, Environment, Prod, Sort, STAR, Symb, Term, Var,
                    Variable, apply_spine, free_vars, map_children,
                    pi, spine, strip_products, subst_apply)


class BridgeError(CacError):
    pass


class InductiveDecl(NamedTuple):
    """An inductive type: its name, its arity (x-vec:A-vec)*, and the
    constructor types (z-vec:B-vec) X m-vec written over the
    self-reference variable `self_var`."""

    name: str
    arity_type: Term
    self_var: Variable
    constructors: Tuple[Tuple[str, Term], ...]  # (name, type) pairs


class GeneratedBundle(NamedTuple):
    inductive: str
    symbols: List[str]
    welim: str
    rules: List[RewriteRule]


def _self_applications_ok(b: Term, x: Variable) -> bool:
    """The self-reference occurs only as the head of a full application
    spine (the 'basic' restriction for argument types)."""
    head, args = spine(b)
    if isinstance(head, Var) and head.var == x:
        return all(x not in free_vars(a) for a in args)
    return x not in free_vars(b)


def _hidden_predicates(ctype: Term) -> List[Variable]:
    """The predicate arguments of a constructor type that are not
    parameters of its output type (I6 forbids them)."""
    binders, output = strip_products(ctype)
    _, margs = spine(output)
    exposed = {m.var for m in margs if isinstance(m, Var)}
    return [v for v, _ in binders if v.sort == Sort.BOX and v not in exposed]


def _map_self(t: Term, x: Variable,
              image: Callable[[List[Term]], Term]) -> Term:
    """Rewrite every spine X a-vec of the self-reference X into
    image(a-vec), innermost spines first."""
    head, args = spine(t)
    if isinstance(head, Var) and head.var == x:
        return image([_map_self(a, x, image) for a in args])
    return map_children(t, lambda c: _map_self(c, x, image))


def _to_symbol(iname: str, arity: int) -> Callable[[List[Term]], Term]:
    """The image of X a-vec in a declared type: the type symbol applied
    to exactly its arity of arguments."""
    def image(args: List[Term]) -> Term:
        if len(args) != arity:
            raise BridgeError(
                "non-basic-constructor",
                f"self-reference applied to {len(args)} argument(s), "
                f"the inductive type has arity {arity}")
        return Symb(iname, tuple(args))
    return image


def translate_inductive(d: InductiveDecl, sig: Signature, rules=(),
                        fuel: int = 10000) -> GeneratedBundle:
    """Declare the type symbol, its constructors, and the weak recursor,
    type-checking each against `rules`; record the inductive structure
    (no inductive positions, all constructor arguments accessible)."""
    params, core = strip_products(d.arity_type)
    if core != STAR:
        raise BridgeError("bad-arity-type",
                          f"the arity of {d.name} must end in ★, got {core}")
    arity = len(params)
    sig.declare(d.name, arity, d.arity_type, rules, fuel=fuel)
    sig.structure.ind[d.name] = frozenset()

    bundle = GeneratedBundle(d.name, [d.name], f"WElim_{d.name}", [])
    x = d.self_var

    for cname, ctype in d.constructors:
        binders, output = strip_products(ctype)
        # basic restriction + I6 on the declared shape
        for _, b in binders:
            if not _self_applications_ok(b, x):
                raise BridgeError(
                    "non-basic-constructor",
                    f"constructor {cname}: argument type {b} uses the "
                    "inductive type other than as a full application")
        head, margs = spine(output)
        if not (isinstance(head, Var) and head.var == x):
            raise BridgeError(
                "bad-constructor-output",
                f"constructor {cname} does not end in the inductive type")
        if any(x in free_vars(m) for m in margs):
            raise BridgeError(
                "non-basic-constructor",
                f"constructor {cname}: output indices mention the type")
        hidden = _hidden_predicates(ctype)
        if hidden:
            raise BridgeError(
                "i6-violation",
                f"constructor {cname}: predicate argument {hidden[0]} is "
                "not a parameter of the output type")
        to_type = _to_symbol(d.name, arity)
        ctor_type = _rebuild_telescope(
            [(v, _map_self(b, x, to_type)) for v, b in binders],
            to_type([_map_self(m, x, to_type) for m in margs]))
        sig.declare(cname, len(binders), ctor_type, rules, fuel=fuel)
        sig.structure.acc[cname] = frozenset(range(1, len(binders) + 1))
        bundle.symbols.append(cname)

    qv = Variable.fresh("Q", Sort.BOX)
    welim_type = _recursor_type(d, params, Var(qv), [(qv, d.arity_type)])
    welim_arity = 1 + len(d.constructors) + arity + 1
    sig.declare(bundle.welim, welim_arity, welim_type, rules, fuel=fuel)
    # recursive calls are compared on the scrutinee argument
    sig.status[bundle.welim] = (welim_arity,)
    bundle.symbols.append(bundle.welim)
    generate_iota_rules(d, bundle, sig)
    return bundle


def _rebuild_telescope(binders, core: Term) -> Term:
    t = core
    for v, dom in reversed(binders):
        t = pi(v, dom, t)
    return t


def _branch_type(d: InductiveDecl, ctype: Term, motive: Term,
                 arity: int) -> Term:
    """C_i{I,Q}: the original telescope with the self-reference mapped
    to the type symbol, then a copy of each argument with the
    self-reference mapped to the motive, ending in the motive at the
    output indices."""
    x = d.self_var
    to_type = _to_symbol(d.name, arity)

    def to_motive(args: List[Term]) -> Term:
        return apply_spine(motive, args)

    binders, output = strip_products(ctype)
    _, margs = spine(output)
    firsts = [(v, _map_self(b, x, to_type)) for v, b in binders]
    seconds = [(Variable.fresh(v.name + "'", v.sort),
                _map_self(b, x, to_motive)) for v, b in binders]
    core = to_motive([_map_self(m, x, to_type) for m in margs])
    return _rebuild_telescope(firsts + seconds, core)


def _recursor_type(d: InductiveDecl, params, motive: Term,
                   lead=()) -> Term:
    """The type of a recursor for `motive`: the `lead` binders, one
    branch per constructor, the indices, then the scrutinee; it ends in
    the motive at the indices."""
    fbinders = [(Variable.fresh(f"f_{cname}", Sort.STAR),
                 _branch_type(d, ctype, motive, len(params)))
                for cname, ctype in d.constructors]
    xbinders = [(Variable.fresh(v.name, v.sort), t) for v, t in params]
    # re-thread dependencies among the x-binders
    ren = {old: Var(new) for (old, _), (new, _) in zip(params, xbinders)}
    xbinders = [(v, subst_apply(t, ren)) for v, t in xbinders]
    xs = [Var(v) for v, _ in xbinders]
    cv = Variable.fresh("c", Sort.STAR)
    return _rebuild_telescope(
        list(lead) + fbinders + xbinders + [(cv, Symb(d.name, tuple(xs)))],
        apply_spine(motive, xs))


def generate_iota_rules(d: InductiveDecl, bundle: GeneratedBundle,
                        sig: Signature, name: Optional[str] = None,
                        motive: Optional[Term] = None) -> None:
    """Append to `bundle.rules` one computation rule per constructor:
    the recursor applied to a constructor form hands the branch the
    constructor's arguments plus, for each recursive argument, the
    recursive result.  By default the recursor is the bundle's weak
    one, which takes its motive as first argument; a strong recursor
    `name` has `motive` built in."""
    x = d.self_var
    name = name or bundle.welim
    params, _ = strip_products(d.arity_type)
    for idx, (cname, ctype) in enumerate(d.constructors, start=1):
        cdecl = sig.decls[cname]
        lead, mot = [], motive
        if motive is None:
            qv = Variable.fresh("Q", Sort.BOX)
            lead, mot = [(qv, d.arity_type)], Var(qv)
        fvars = [Variable.fresh(f"f{i}", Sort.STAR)
                 for i in range(1, len(d.constructors) + 1)]
        avars = [Variable.fresh(f"a{i}", v.sort)
                 for i, (v, _) in enumerate(params, start=1)]
        binders, _ = strip_products(ctype)
        bvars = [Variable.fresh(f"b{j}", v.sort)
                 for j, (v, _) in enumerate(binders, start=1)]
        fixed = tuple(Var(v) for v, _ in lead) + tuple(Var(f) for f in fvars)
        lhs = Symb(name, fixed + tuple(Var(a) for a in avars)
                   + (Symb(cname, tuple(Var(b) for b in bvars)),))
        gamma_zb = {v: Var(b) for (v, _), b in zip(binders, bvars)}
        seconds = []
        for (v, b), bv in zip(binders, bvars):
            head, aprime = spine(b)
            if isinstance(head, Var) and head.var == x:
                rec_args = [subst_apply(a, gamma_zb) for a in aprime]
                seconds.append(Symb(name, fixed + tuple(rec_args)
                                    + (Var(bv),)))
            else:
                seconds.append(Var(bv))
        rhs = apply_spine(Var(fvars[idx - 1]),
                          [Var(b) for b in bvars] + seconds)
        # annotation environment: the motive (weak recursor only), the
        # branches, then the constructor arguments at their instantiated
        # declared types; the index variables are handled by the
        # substitution mapping each to the constructor's output index
        # (typing the scrutinee forces the identification)
        env = lead + [(fv, _branch_type(d, fctype, mot, len(params)))
                      for fv, (_, fctype) in zip(fvars, d.constructors)]
        cgamma = cdecl.inst(tuple(Var(b) for b in bvars))
        env += [(bv, subst_apply(u, cgamma))
                for bv, (_, u) in zip(bvars, cdecl.binders)]
        assert isinstance(cdecl.output, Symb)
        rho = {a: subst_apply(m, cgamma)
               for a, m in zip(avars, cdecl.output.args)}
        bundle.rules.append(RewriteRule(f"iota_{name}_{cname}", lhs, rhs,
                                        Environment.of(env), rho))


# ---------------------------------------------------------------------------
# strong elimination (per closed small motive)


def is_small(d: InductiveDecl) -> bool:
    """Small: no constructor has predicate arguments beyond the
    parameters of the type (which basic I6-checked inductives expose as
    output arguments)."""
    return not any(_hidden_predicates(ctype) for _, ctype in d.constructors)


def selim_for_motive(d: InductiveDecl, bundle: GeneratedBundle,
                     sig: Signature, motive: Term,
                     fuel: int = 10000) -> str:
    """The name of the strong recursor specialized to a closed kind K
    as the motive.  The first call for K declares it and appends its
    computation rules to `bundle.rules`.  A type whose arity has binders
    (parameters or indices), such as `list : * -> *`, is refused: a
    motive over them would be an abstraction whose body is a kind, and
    that has no type in the calculus."""
    if isinstance(d.arity_type, Prod):
        raise BridgeError("parameterized-type",
                          f"{d.name} has parameters; strong elimination "
                          "needs a type of arity *")
    if not is_small(d):
        raise BridgeError("not-small",
                          f"{d.name} does not support strong elimination")
    if free_vars(motive):
        raise BridgeError("open-motive", "the motive must be closed")
    # reuse an existing symbol for an alpha-equal motive
    known = sig.selim_cache.setdefault(d.name, [])
    for name, m in known:
        if m == motive:
            return name
    name = f"SElim_{d.name}_{len(known) + 1}"
    sig.declare(name, len(d.constructors) + 1,
                _recursor_type(d, [], motive), fuel=fuel)
    known.append((name, motive))
    generate_iota_rules(d, bundle, sig, name, motive)
    return name
