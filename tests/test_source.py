"""Checks on the package source itself."""

import ast
from collections import Counter
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dressedspin"


def _module_names(tree):
    """The names a module binds at its top level: definitions, assignments and imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).partition(".")[0] for alias in node.names)


def _private_module_names(tree):
    """The private (single leading underscore, not dunder) names a module binds at its top level."""
    return (name for name in _module_names(tree) if name.startswith("_") and not name.endswith("__"))


def _exports(tree):
    """The names listed in a module's top-level __all__, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_private_module_name_is_used_in_the_package():
    # a private helper, constant or class that nothing in src/ names besides
    # its own definition is a leftover of a deletion
    modules = sorted(SRC.glob("*.py"))
    uses = Counter()
    for path in modules:
        with path.open("rb") as fh:
            uses.update(tok.string for tok in tokenize.tokenize(fh.readline) if tok.type == tokenize.NAME)
    unused = [
        f"{path.name}: {name}"
        for path in modules
        for name in _private_module_names(ast.parse(path.read_text(encoding="utf-8")))
        if uses[name] < 2
    ]
    assert unused == []


def test_every_export_is_bound_in_its_module():
    # a deletion that leaves its name in __all__ breaks `from module import *`
    unbound = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set(_module_names(tree))
        unbound += [f"{path.name}: {name}" for name in _exports(tree) if name not in names]
    assert unbound == []
