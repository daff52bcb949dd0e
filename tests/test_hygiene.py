"""Source hygiene: every name a checker module imports is used in it,
no module imports one thing twice, imports sit at module level unless
they break an import cycle, importing the CLI pulls in no class
generator, terms, tokens and parse nodes carry no instance dictionary,
no parser outlives loading, no nested function refers to itself, so
no call leaves cyclic garbage, no function outside a fixed list
calls itself, directly or through a builtin over a term's fields, and
no parameter outside a fixed list keeps a default that no call in the
package sets."""

import ast
import gc
from array import array
import pathlib
import subprocess
import sys
import types
import weakref
from collections import Counter

import cac
import cac.cli
import cac.syntax
import cac.terms
from cac.positivity import signed_occurrences
from cac.rewriting import rename_apart, unify

SOURCES = sorted(p for p in pathlib.Path(cac.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    """(name bound, dotted name imported, line) of every import anywhere
    in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), a.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = "." * node.level + (node.module or "")
            for a in node.names:
                yield (a.asname or a.name), f"{source}.{a.name}", node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in (args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg]):
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    """Every name read in tree, including inside string annotations."""
    trees = [tree]
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                trees.append(ast.parse(c.value, mode="eval"))
    return {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, _, line in _imported(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_nothing_is_imported_twice():
    twice = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        counts = Counter(what for _, what, _ in _imported(tree))
        twice += [f"{path.name}: {what}" for what, n in counts.items()
                  if n > 1]
    assert not twice, "imported twice:\n" + "\n".join(twice)


# the import that must wait until first use, because the module it
# imports imports the importing one: typing imports signature
CYCLE_BREAKERS = {("signature.py", ".typing.TypeChecker")}


def test_imports_are_at_module_level():
    nested = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and id(node) not in top:
                nested += [f"{path.name}:{line}: {what}"
                           for _, what, line in _imported(node)
                           if (path.name, what) not in CYCLE_BREAKERS]
    assert not nested, "imports below module level:\n" + "\n".join(nested)


def test_importing_the_cli_loads_no_class_generator():
    # every `cac` command pays for its imports: `dataclasses` brings in
    # `inspect`, `ast`, `dis` and `tokenize`, and runs generated code
    # through `exec` for every class it decorates; `json` loads its
    # decoder and scanner, and the CLI needs only the C string encoder
    src = str(pathlib.Path(cac.__file__).parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import cac.cli; "
             "print(sorted({'dataclasses', 'inspect', 'json'}"
             " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_terms_have_no_instance_dict():
    # the joinability search holds its visited terms in hash sets, which
    # the slots pay for: a __dict__ per node raised its peak memory
    path = pathlib.Path(cac.terms.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.name for node in tree.body
             if isinstance(node, ast.ClassDef)
             and any(isinstance(b, ast.Name) and b.id == "Term"
                     for b in node.bases)}
    names |= {"Term", "Variable", "Environment"}
    assert {"SortT", "Var", "BVar", "Symb", "Abs", "Prod", "App"} <= names
    with_dict = [n for n in sorted(names)
                 if hasattr(object.__new__(getattr(cac.terms, n)),
                            "__dict__")]
    assert not with_dict, "instances with a __dict__: " + ", ".join(with_dict)


def test_tokens_and_parse_nodes_have_no_instance_dict():
    # a file holds one item per declaration, each term a span of the
    # program's code, and the parser's frames are plain ints
    syn = cac.syntax
    samples = [syn.Item(syn.LoadedFile.add_symbol, 1, ["x", (3, 4)],
                        ["symbol", "x", ":", "o", "."], array("q", [3]), 0,
                        6)]
    with_dict = [type(s).__name__ for s in samples if hasattr(s, "__dict__")]
    assert not with_dict, "instances with a __dict__: " + ", ".join(with_dict)


def test_nothing_of_the_parser_outlives_loading(monkeypatch, capsys):
    # a parser holds its file's token list: kept on the LoadedFile, it
    # would stay alive through every check that follows the load
    syn = cac.syntax
    made = []
    init = syn.Parser.__init__

    def recorded(self, source):
        made.append(weakref.ref(self))
        init(self, source)

    monkeypatch.setattr(syn.Parser, "__init__", recorded)
    fresh = set(vars(syn.LoadedFile()))
    int_path = pathlib.Path(cac.__file__).parent / "corpus" / "int.cac"
    assert set(vars(syn.load(int_path.read_text(encoding="utf-8")))) == fresh
    loaded = []
    load_file = cac.cli._load_file
    monkeypatch.setattr(cac.cli, "_load_file",
                        lambda *a: loaded.append(load_file(*a)) or loaded[-1])
    assert cac.cli.main(["convert", str(int_path), "-e", "s(p(0))",
                         "-e", "p(s(0))"]) == 0
    capsys.readouterr()
    assert set(vars(loaded[0])) == fresh
    assert len(made) == 4   # the file twice, then the two expressions
    assert [r for r in made if r() is not None] == []


def _nested_cycles(tree):
    """Nested functions that reach themselves through the names they read:
    each call of the enclosing function then builds a closure that
    refers to itself, a reference cycle only the cyclic collector frees."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = {n.name: n for n in ast.walk(outer)
                 if n is not outer
                 and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        reads = {name: {n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name) and n.id in inner}
                 for name, node in inner.items()}
        for name, node in inner.items():
            seen, todo = set(), list(reads[name])
            while todo:
                g = todo.pop()
                if g not in seen:
                    seen.add(g)
                    todo += reads[g]
            if name in seen:
                found.append((node.lineno, f"{outer.name}.{name}"))
    return sorted(set(found))


def test_no_nested_function_refers_to_itself():
    cyclic = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        cyclic += [f"{path.name}:{line}: {name}"
                   for line, name in _nested_cycles(tree)]
    assert not cyclic, ("nested functions that refer to themselves:\n"
                        + "\n".join(cyclic))


# Functions that call themselves, each with the depth it costs: directly,
# or, for a dunder method of a term, through a builtin over its fields.
# The list may only shrink: a walk that leaves it keeps its own stack
# instead.
RECURSIVE = {
    "cic._map_self": "self-references of a declared constructor type",
    "cli.to_json": "nesting of a report, a few levels",
    "orderings.rpo_greater": "levels of algebraic rule sides, memoized",
    "printer._Printer._pp": "term levels; the README states the printer's limit",
    "rewriting._Search._build": "levels of a right-hand side",
    "terms.Abs.__hash__": "term levels, through hash of its fields",
    "terms.App.__hash__": "term levels, through hash of its fields",
    "terms.Prod.__hash__": "term levels, through hash of its fields",
    "terms.Symb.__hash__": "term levels, through hash of its arguments",
    "terms._Frozen.__repr__": "term levels, through repr of each field",
    "terms._map_leaves": "term levels, for open_, close and subst_apply",
    "typing.replay": "levels of a recorded typing derivation",
    "typing.TypeChecker.infer": "term levels; the README states its limit",
}

# A dunder method that hands a field holding terms to one of these
# recurses through the builtin, where `_self_calling` cannot see it.
TEXT_DUNDERS = {"__str__", "__repr__", "__format__", "__hash__"}
TEXT_BUILTINS = {"str", "repr", "format", "hash"}
TERM_FIELDS = {"args", "domain", "body", "codomain", "head", "arg"}


def _self_calling(tree, prefix):
    """Qualified name of every function in tree that calls itself
    directly: by name, as self.<name>, or, for a method, as <name> of
    any plain name, such as another instance of its class."""
    found = []

    def visit(node, qual, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{qual}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(c, ast.Call) and (
                            isinstance(c.func, ast.Name)
                            and c.func.id == child.name
                            or isinstance(c.func, ast.Attribute)
                            and c.func.attr == child.name
                            and isinstance(c.func.value, ast.Name)
                            and (in_class or c.func.value.id == "self"))
                        for c in ast.walk(child)):
                    found.append(name)
                visit(child, name, isinstance(child, ast.ClassDef))
            else:
                visit(child, qual, in_class)

    visit(tree, prefix, False)
    return found


def _reads_a_field(node, slot_vars):
    return any(isinstance(n, ast.Attribute) and n.attr in TERM_FIELDS
               or isinstance(n, ast.Name) and n.id in slot_vars
               for n in ast.walk(node))


def _dunders_through_builtins(tree, prefix):
    """Qualified name of every method of TEXT_DUNDERS in tree that hands
    a field of TERM_FIELDS, or a name bound by a loop over `__slots__`,
    to a builtin of TEXT_BUILTINS (calling it, or passing it beside the
    field, as to `map`) or to an f-string."""
    found = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef)
                    and fn.name in TEXT_DUNDERS):
                continue
            slot_vars = {n.id for c in ast.walk(fn)
                         if isinstance(c, (ast.comprehension, ast.For))
                         and isinstance(c.iter, ast.Attribute)
                         and c.iter.attr == "__slots__"
                         for n in ast.walk(c.target)
                         if isinstance(n, ast.Name)}
            sinks = [n for n in ast.walk(fn)
                     if isinstance(n, ast.FormattedValue)
                     or isinstance(n, ast.Call) and any(
                         isinstance(f, ast.Name) and f.id in TEXT_BUILTINS
                         for f in [n.func, *n.args])]
            if any(_reads_a_field(n, slot_vars) for n in sinks):
                found.append(f"{prefix}.{cls.name}.{fn.name}")
    return found


def test_only_listed_functions_recurse():
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(_self_calling(tree, path.stem))
        if path.name == "terms.py":
            found.update(_dunders_through_builtins(tree, path.stem))
    assert not found - RECURSIVE.keys(), (
        "functions that call themselves and are not listed: "
        + ", ".join(sorted(found - RECURSIVE.keys())))
    assert not RECURSIVE.keys() - found, (
        "listed functions that no longer recurse; drop them from the list: "
        + ", ".join(sorted(RECURSIVE.keys() - found)))


def test_unify_free_vars_and_polarity_leave_no_cyclic_garbage(corpus):
    # a recursive closure is a reference cycle: with the collector off,
    # every call of its enclosing function would leave one behind
    calls = {"unify": [], "free_vars": [], "polarity": []}
    for lf in corpus.values():
        for r in lf.rules:
            calls["free_vars"] += [(cac.terms.free_vars, (r.lhs,)),
                                   (cac.terms.free_vars, (r.rhs,))]
            calls["unify"] += [(unify, (r.lhs, rename_apart(r2).lhs))
                               for r2 in lf.rules]
        calls["polarity"] += [
            (list, (signed_occurrences(d.typ, lf.signature),))
            for d in lf.signature.decls.values()]
    assert all(len(c) >= 20 for c in calls.values())
    left = {}
    gc.collect()
    gc.disable()
    try:
        for name, todo in calls.items():
            for f, args in todo:
                f(*args)
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == {"unify": 0, "free_vars": 0, "polarity": 0}


# Functions that `cac` exports though nothing in the package calls them,
# each with the reason it stays.  Any other export that nothing calls is
# a second way into code that callers can reach directly.
UNCALLED_EXPORTS = {
    "arrow": "term constructor, paired with pi for non-dependent products",
    "lam": "term constructor, paired with pi for abstractions",
    "replay": "re-checks a recorded derivation; it calls only itself",
    "selim_for_motive": "strong elimination; no .cac syntax reaches it yet",
}


def _called_names(tree):
    """Names called anywhere in tree, by name or as an attribute, except
    by the function of that name itself."""
    called = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                if name is not None and name != inside:
                    called.add(name)
            visit(child, inside)

    visit(tree, None)
    return called


def test_every_exported_function_has_a_caller():
    exported = {name for name in cac.__dict__
                if isinstance(cac.__dict__[name], types.FunctionType)}
    called = set()
    for path in SOURCES:
        called |= _called_names(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = exported - called
    assert not uncalled - UNCALLED_EXPORTS.keys(), (
        "exported functions that nothing in the package calls: "
        + ", ".join(sorted(uncalled - UNCALLED_EXPORTS.keys())))
    assert not UNCALLED_EXPORTS.keys() - uncalled, (
        "listed exports that are called now; drop them from the list: "
        + ", ".join(sorted(UNCALLED_EXPORTS.keys() - uncalled)))


# Parameters with a default that no call in the package sets, each with
# the reason the default stays.  Any other such default is a mode that
# only tests reach, or that nothing reaches at all.
UNSET_DEFAULTS = {
    "cli.main argv": "the console script passes none; tests and perfbench do",
    "cic.selim_for_motive fuel": "no caller in the package yet",
    "schema.acc_reachable limit": "tests shrink the bound",
}

CONSTRUCTORS = ("__init__", "__new__")


def _defaults(tree, prefix):
    """(qualified name, callee key, positional index or None, parameter)
    of every parameter with a default of every function in tree.  The
    callee key of a constructor is its class's name in a tuple; the
    index of a method's parameter does not count self or cls."""
    found = []

    def visit(node, qual, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{qual}.{child.name}", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}.{child.name}"
                key = ((cls.name,) if cls is not None
                       and child.name in CONSTRUCTORS else child.name)
                skip = int(cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list))
                a = child.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                found.extend((name, key, i - skip, p.arg)
                             for i, p in enumerate(pos[first:], first))
                found.extend((name, key, None, p.arg)
                             for p, d in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None)
                visit(child, name, None)
            else:
                visit(child, qual, cls)

    visit(tree, prefix, None)
    return found


def _calls(tree):
    """(callee key, positional count, keyword names) of every call in
    tree, with None for a count or names that a * or ** argument may
    extend.  A call of a class, of cls inside the class, or of
    super().__init__ or super().__new__ names its class's key."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f, args = child.func, child.args
                key = (f.id if isinstance(f, ast.Name)
                       else f.attr if isinstance(f, ast.Attribute) else None)
                if key == "cls" and cls is not None:
                    key = (cls.name,)
                elif (key in CONSTRUCTORS and cls is not None and cls.bases
                      and isinstance(f.value, ast.Call)
                      and isinstance(f.value.func, ast.Name)
                      and f.value.func.id == "super"):
                    base = cls.bases[0]
                    key = (base.id if isinstance(base, ast.Name)
                           else base.attr,)
                    if f.attr == "__new__":
                        args = args[1:]
                elif isinstance(f, ast.Name) and f.id[:1].isupper():
                    key = (f.id,)
                npos = (None if any(isinstance(a, ast.Starred) for a in args)
                        else len(args))
                names = {k.arg for k in child.keywords}
                found.append((key, npos, None if None in names else names))
            visit(child, child if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return found


def test_every_default_is_set_by_some_caller():
    defaults, calls = [], {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defaults += _defaults(tree, path.stem)
        for key, npos, names in _calls(tree):
            calls.setdefault(key, []).append((npos, names))
    unset = {f"{name} {param}" for name, key, i, param in defaults
             if not any(npos is None or names is None or param in names
                        or i is not None and i < npos
                        for npos, names in calls.get(key, ()))}
    assert not unset - UNSET_DEFAULTS.keys(), (
        "defaults that no call in the package sets: "
        + ", ".join(sorted(unset - UNSET_DEFAULTS.keys())))
    assert not UNSET_DEFAULTS.keys() - unset, (
        "listed defaults that a call sets now; drop them from the list: "
        + ", ".join(sorted(UNSET_DEFAULTS.keys() - unset)))
