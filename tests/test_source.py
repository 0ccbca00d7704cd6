"""Rules on the package's source as written, checked on its syntax trees."""

import ast
from pathlib import Path

import septenary

_SRC = Path(septenary.__file__).parent


def _private_definitions(tree: ast.Module):
    """The private names a module binds at its top level: its functions,
    classes and constants. Dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names
                    if n.startswith("_") and not n.startswith("__"))


def _reads(tree: ast.Module):
    """Every name the module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr


def test_every_private_name_is_read_by_the_package():
    # code may not exist for tests alone: a private helper that only the
    # tests reach is dead in the package
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(_SRC.glob("*.py"))}
    defined = [(module, name) for module, tree in trees.items()
               for name in _private_definitions(tree)]
    read = {name for tree in trees.values() for name in _reads(tree)}
    assert len(defined) > 50
    assert [d for d in defined if d[1] not in read] == []
