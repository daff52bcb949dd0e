"""Symbol declarations, precedence, inductive structure (Ind/Acc)."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from .rewriting import RuleSet
from .terms import (CacError, Environment, Prod, Sort, Symb, Term, Var,
                    Variable, open_, sort_class_of_type, symbols_of)


class DeclarationError(CacError):
    pass


class SymbolDecl(NamedTuple):
    """A symbol with its arity and declared type (x1:T1)...(xn:Tn)U."""

    name: str
    arity: int
    typ: Term
    sort: Sort  # the s with |- typ : s
    # telescope: binder variables paired with their domains, plus output
    binders: Tuple        # tuple of (Variable, Term)
    output: Term
    # whether some binder occurs in a later binder's domain or in output
    dependent: bool

    def inst(self, args: Iterable[Term]) -> dict:
        """The substitution gamma = {x-vec -> t-vec}, for the binders'
        domains and the output, the only terms it is applied to.  It is
        empty when the telescope is not dependent, since it would change
        none of them, and `subst_apply` returns at once on it."""
        if not self.dependent:
            return {}
        return dict(zip((v for v, _ in self.binders), args))


def split_telescope(typ: Term, arity: int,
                    name: str) -> Tuple[Tuple, Term, bool]:
    """Open the first `arity` products of a declared type, and tell
    whether the telescope is dependent: `open_` returns a codomain in
    which the opened binder does not occur as it is."""
    binders = []
    dependent = False
    t = typ
    for _ in range(arity):
        if not isinstance(t, Prod):
            raise DeclarationError(
                "arity-mismatch",
                f"type of {name} has fewer than {arity} leading products")
        v = Variable.fresh(t.hint or "x", sort_class_of_type(t.domain))
        binders.append((v, t.domain))
        u = open_(t.codomain, Var(v))
        dependent = dependent or u is not t.codomain
        t = u
    return tuple(binders), t, dependent


class Precedence:
    """Quasi-order >=_F on symbols: equivalence classes plus a strict
    order on classes.  Defaults (symbols mentioned in tau_f sit strictly
    below f) are kept separately so user pragmas can override them."""

    def __init__(self):
        self._parent: Dict[str, str] = {}
        self._user_gt: set = set()      # (a, b) meaning a >_F b
        self._default_gt: set = set()
        self._changed()

    def _changed(self):
        """Drop what is derived from the pragmas; rebuilt on demand."""
        self._succ: Optional[Dict[str, List[str]]] = None
        self._order: Optional[Tuple[Optional[List[str]],
                                    Dict[str, int]]] = None
        self._reach: Dict[str, Tuple[set, List[str]]] = {}

    def find(self, a: str) -> str:
        """The representative of a's equivalence class.  Walks the
        links with a loop, so a long chain of `=` pragmas cannot exhaust
        the interpreter's stack, then points every symbol on the path
        at the root."""
        parent = self._parent
        root = a
        while parent.get(root, root) != root:
            root = parent[root]
        while a != root:
            parent[a], a = root, parent[a]
        return root

    def add_eq(self, a: str, b: str):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb
        self._changed()

    def add_gt(self, a: str, b: str):
        self._user_gt.add((a, b))
        self._changed()

    def add_default_gt(self, a: str, b: str):
        self._default_gt.add((a, b))
        self._changed()

    def eq(self, a: str, b: str) -> bool:
        return self.find(a) == self.find(b)

    def _strict_edges(self) -> set:
        """Effective strict edges on class representatives."""
        edges = set()
        for a, b in self._user_gt:
            edges.add((self.find(a), self.find(b)))
        for a, b in self._default_gt:
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue  # user pragma made them equivalent
            if (rb, ra) in edges:
                continue  # user pragma says otherwise
            edges.add((ra, rb))
        return edges

    def _successors(self) -> Dict[str, List[str]]:
        """Successor lists of the strict edges, built once per pragma
        state; sorted so that find_cycle's witness is reproducible."""
        if self._succ is None:
            succ: Dict[str, List[str]] = {}
            for u, v in self._strict_edges():
                succ.setdefault(u, []).append(v)
            self._succ = {u: sorted(succ[u]) for u in sorted(succ)}
        return self._succ

    def gt(self, a: str, b: str) -> bool:
        """a >_F b in the transitive closure of the strict class order.
        False at once when a's rank is not above b's.  Otherwise b is
        looked up among the classes found below a so far; a search from
        a, kept until the next pragma, goes on only until it finds b,
        so each source's edges are walked at most once per pragma state
        and a long chain costs no quadratic memory."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        rank = self._analysed()[1]
        if rank and rank.get(ra, 0) <= rank.get(rb, 0):
            return False
        search = self._reach.get(ra)
        if search is None:
            search = self._reach[ra] = (set(), [ra])
        below, stack = search
        succ = self._successors()
        while stack and rb not in below:
            for v in succ.get(stack.pop(), ()):
                if v not in below:
                    below.add(v)
                    stack.append(v)
        return rb in below

    def find_cycle(self) -> Optional[List[str]]:
        """A cycle in the strict class order, or None if acyclic."""
        return self._analysed()[0]

    def _analysed(self) -> Tuple[Optional[List[str]], Dict[str, int]]:
        """One depth-first search of the strict class order per pragma
        state, with an explicit stack so that long precedence chains
        cannot exhaust the interpreter's stack.  It gives a cycle, or
        None, and each class's rank: its height, the length of the
        longest chain of strict edges below it, so that a > b implies
        rank(a) > rank(b).  A cyclic order has no such rank, and its
        ranks are empty."""
        if self._order is not None:
            return self._order
        succ = self._successors()
        rank: Dict[str, int] = {}
        for root in succ:
            if root in rank:
                continue
            path = [root]
            on_path = {root: 0}
            pending = [iter(succ[root])]
            while pending:
                for v in pending[-1]:
                    if v in on_path:
                        self._order = (path[on_path[v]:] + [v], {})
                        return self._order
                    if v not in rank:
                        on_path[v] = len(path)
                        path.append(v)
                        pending.append(iter(succ.get(v, ())))
                        break
                else:
                    pending.pop()
                    u = path.pop()
                    del on_path[u]
                    rank[u] = 1 + max(map(rank.__getitem__,
                                          succ.get(u, ())), default=-1)
        self._order = (None, rank)
        return self._order


class InductiveStructure:
    """User-supplied Ind (inductive positions of free predicate symbols)
    and Acc (accessible argument positions of constructors)."""

    def __init__(self):
        self.ind: Dict[str, FrozenSet[int]] = {}
        self.acc: Dict[str, FrozenSet[int]] = {}

    def ind_of(self, name: str) -> FrozenSet[int]:
        return self.ind.get(name, frozenset())

    def acc_of(self, name: str) -> FrozenSet[int]:
        return self.acc.get(name, frozenset())


class Signature:
    def __init__(self):
        self.decls: Dict[str, SymbolDecl] = {}
        # Co(C): the object symbols whose output is headed by C, in
        # declaration order
        self.constructors: Dict[str, List[str]] = {}
        self.precedence = Precedence()
        self.structure = InductiveStructure()
        # per-symbol argument status: the 1-based positions compared by
        # the recursive-call guard (default: all positions in order)
        self.status: Dict[str, Tuple[int, ...]] = {}
        # strong recursors per inductive type: (symbol, motive) pairs, so
        # that alpha-equal motives share one symbol
        self.selim_cache: Dict[str, List[Tuple[str, Term]]] = {}
        # the sort of each declared type object, by its id, under the
        # rule index, its length and the fuel in `_sorts_under`
        self._sorts: Dict[int, Sort] = {}
        self._sorts_under: tuple = ()

    def __contains__(self, name: str) -> bool:
        return name in self.decls

    def declare(self, name: str, arity: int, typ: Term,
                rules=(), fuel: int = 10000) -> SymbolDecl:
        """Declare a symbol: shape-check the telescope and kind-check
        |- typ : s against the current signature and rules.  A type
        object declared before is not checked again while the rules are
        the same index at the same length and the fuel is the same: the
        judgment depends on nothing else, as a declared name keeps its
        type.  Its declaration keeps the object alive, so its id names
        it as long as the memo does."""
        if name in self.decls:
            raise DeclarationError("duplicate-name", f"symbol {name} already declared")
        mentioned = symbols_of(typ)
        unknown = mentioned.difference(self.decls)  # a lookup per name
        if unknown:
            raise DeclarationError(
                "unknown-symbol",
                f"type of {name} mentions undeclared symbol(s) {sorted(unknown)}")
        binders, output, dependent = split_telescope(typ, arity, name)

        index = RuleSet.of(rules)
        under = (index, len(index), fuel)  # a RuleSet equals only itself
        if under != self._sorts_under:
            self._sorts, self._sorts_under = {}, under
        sort = self._sorts.get(id(typ))
        if sort is None:
            from .typing import TypeChecker  # typing imports this module
            sort = TypeChecker(self, index, fuel=fuel).sort_of(Environment(),
                                                               typ)

        decl = SymbolDecl(name, arity, typ, sort, binders, output, dependent)
        self.decls[name] = decl
        self._sorts[id(typ)] = sort
        target = self.constructor_target(name)
        if target is not None:
            self.constructors.setdefault(target, []).append(name)
        # default precedence: symbols used in tau_f are strictly below f
        for g in mentioned:
            self.precedence.add_default_gt(name, g)
        return decl

    # -- classification -----------------------------------------------------

    def free_and_defined(self, rules) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        defined = frozenset(RuleSet.of(rules).heads & self.decls.keys())
        free = frozenset(self.decls) - defined
        return free, defined

    def free_predicate_symbols(self, rules) -> List[str]:
        heads = RuleSet.of(rules).heads
        return [n for n, d in self.decls.items()
                if d.sort == Sort.BOX and n not in heads]

    def defined_predicate_symbols(self, rules) -> List[str]:
        heads = RuleSet.of(rules).heads
        return [n for n, d in self.decls.items()
                if d.sort == Sort.BOX and n in heads]

    def constructors_of(self, cname: str) -> List[str]:
        """Co(C): object symbols whose fully applied output type is headed
        by C — including defined symbols."""
        return list(self.constructors.get(cname, ()))

    def constructor_target(self, cname: str) -> Optional[str]:
        """The predicate a constructor builds: the head of its output."""
        d = self.decls.get(cname)
        if d is not None and d.sort == Sort.STAR \
                and isinstance(d.output, Symb):
            return d.output.name
        return None
