"""Checks on the package source itself."""

import ast
from collections import Counter
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dressedspin"


def _private_module_names(tree):
    """The private (single leading underscore, not dunder) names a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))


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
