"""Source hygiene: every name a checker module imports is used in it,
no module imports one thing twice, imports sit at module level unless
they break an import cycle, and terms, tokens and parse nodes carry no
instance dictionary."""

import ast
import pathlib
from collections import Counter

import cac
import cac.syntax
import cac.terms

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
