"""Every name a package module imports is used in that module, and every
function and class a package module defines is reached from outside itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "origami_h2"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


# __init__ imports only to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def names_in(node) -> set:
    """Every name, attribute and imported name that occurs under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unreached_definitions() -> list:
    """Top-level functions and classes that nothing outside their own definition reaches.

    A definition is reached when another statement of a package module names
    it, when ``__init__`` exports it, or when the acceptance tests import it.
    """
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    exported = names_in(trees.pop("__init__.py"))
    accepted = {alias.name for node in ast.parse(ACCEPTANCE.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    statements = [(node, names_in(node)) for tree in trees.values() for node in tree.body]
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            named = any(node.name in names for other, names in statements if other is not node)
            if not (named or node.name in exported or node.name in accepted):
                unreached.append(f"{module}:{node.name}")
    return unreached


def test_every_definition_is_reached():
    assert unreached_definitions() == []
