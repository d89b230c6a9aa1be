"""The package's surface: every public module-level function and class of
``src/coordsim`` is loaded by some other code in ``src/coordsim``, so
nothing in the package lives only for its tests."""

import ast
from pathlib import Path

import coordsim

PACKAGE = Path(coordsim.__file__).resolve().parent
# called from outside the package: the console script's entry point
ENTRY_POINTS = {("cli", "main")}


def public_definitions(tree: ast.Module):
    """The public module-level functions and classes of ``tree``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def loaded_names(tree: ast.AST, skip: ast.AST | None = None):
    """Names loaded in ``tree``, as a bare name or as an attribute, outside
    the subtree ``skip``; docstrings and other strings are not loads."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    assert {"cli", "coordalg", "digraph", "simharness", "vehicle"} <= set(trees)
    unused = []
    for module, tree in sorted(trees.items()):
        for node in public_definitions(tree):
            if (module, node.name) in ENTRY_POINTS:
                continue
            callers = [
                other
                for other, other_tree in trees.items()
                if node.name in loaded_names(other_tree, node if other == module else None)
            ]
            if not callers:
                unused.append(f"{module}.{node.name}")
    assert not unused, f"public names that no code in src/coordsim loads: {unused}"
