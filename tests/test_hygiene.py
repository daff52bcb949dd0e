"""Source hygiene: every name a checker module imports is used in it,
no module imports one thing twice, imports sit at module level unless
they break an import cycle, terms, tokens and parse nodes carry no
instance dictionary, and no nested function refers to itself, so no
call leaves cyclic garbage."""

import ast
import gc
import pathlib
from collections import Counter

import cac
import cac.syntax
import cac.terms
from cac.positivity import polarity
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


# the two imports that must wait until first use, because the module
# they import imports the importing one: the printer imports terms, and
# typing imports signature
CYCLE_BREAKERS = {("terms.py", ".printer.pp"),
                  ("signature.py", ".typing.TypeChecker")}


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
    # a file of n tokens holds n tokens and about as many parse nodes,
    # and one item per declaration
    syn = cac.syntax
    name = syn.PName("x", 1, 1)
    samples = [syn.Token("name", "x", 1, 1), name, syn.PStar(),
               syn.PSymbApp("f", (name,), 1, 1), syn.PApp(name, name),
               syn.PAbs("x", name, name), syn.PProd(None, name, name),
               syn.Item(syn.LoadedFile.add_symbol, 1, ["x", name])]
    with_dict = [type(s).__name__ for s in samples if hasattr(s, "__dict__")]
    assert not with_dict, "instances with a __dict__: " + ", ".join(with_dict)


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
        calls["polarity"] += [(polarity, (d.typ, lf.signature))
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
