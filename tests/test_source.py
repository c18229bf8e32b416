"""Checks on the source tree itself."""

import ast
from pathlib import Path

import pgarc


def referenced_name(node):
    """The name that a node refers to: a name, an attribute or an imported
    name; None for any other node, docstrings and comments included."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unreferenced_private_names(package: Path) -> list[str]:
    """module:name for each module-level function or class of the package
    whose name starts with a single underscore and that no code of the
    package refers to outside its own definition."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    refs = [(id(n), referenced_name(n)) for tree in trees.values() for n in ast.walk(tree)]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and i not in own for i, name in refs):
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_private_function_and_class_is_used():
    """Code that nothing in the package calls is deleted: every private
    module-level function or class of src/pgarc is referenced from
    src/pgarc outside its own definition (tests and scripts do not
    count)."""
    assert unreferenced_private_names(Path(pgarc.__file__).parent) == []
