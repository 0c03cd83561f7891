"""Every package module imports only the standard library and its own
package, every name a package module imports is used in that module, every
function, class, module-level name and class member a package module
defines is reached from outside itself, and every attribute a class's
``__init__`` sets on ``self`` is read outside ``__init__``."""

import ast
import sys
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


def foreign_imports(source: str) -> list:
    """Absolute imports that name no standard-library module (``__future__`` is one)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_the_standard_library():
    found = [f"{p.name}: {name}" for p in sorted(PACKAGE.glob("*.py"))
             for name in foreign_imports(p.read_text())]
    assert found == []


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


def attributes_in(node) -> set:
    """Every attribute name accessed under ``node``."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def attributes_read(node) -> set:
    """Every attribute name read, not assigned, under ``node``."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def instance_attributes(tree) -> list:
    """(name, ``__init__``, class) of every ``self.<name> = …`` in a class's ``__init__``."""
    return [(sub.attr, init, cls) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for init in cls.body if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for sub in ast.walk(init)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name) and sub.value.id == "self"]


def definitions(tree) -> list:
    """(name, node, owner) of every non-dunder name a module defines.

    These are its top-level functions, classes and assigned names (owner
    None), and the methods and properties of its classes (owner the class).
    """
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node, None))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node, None) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(member.name, member, node) for member in node.body
                      if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [entry for entry in found if not entry[0].startswith("__")]


def unreached_definitions() -> list:
    """Definitions that nothing outside their own definition reaches.

    A top-level definition is reached when another statement of a package
    module names it, when ``__init__`` exports it, or when the acceptance
    tests import it.  A class member is reached only by an attribute access
    outside its class or from the other members of its class, so a local
    variable of the same name does not keep it alive.  An instance
    attribute is reached only by an attribute read outside the ``__init__``
    that sets it.
    """
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    exported = names_in(trees.pop("__init__.py"))
    accepted = {alias.name for node in ast.parse(ACCEPTANCE.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    statements = [(node, names_in(node), attributes_in(node))
                  for tree in trees.values() for node in tree.body]
    unreached = []
    for module, tree in trees.items():
        for name, node, owner in definitions(tree):
            if owner is None:
                reached = (any(name in names for other, names, _ in statements if other is not node)
                           or name in exported or name in accepted)
            else:
                reached = (any(name in attrs for other, _, attrs in statements if other is not owner)
                           or any(name in names_in(m) for m in owner.body if m is not node))
            if not reached:
                unreached.append(f"{module}:{owner.name + '.' if owner else ''}{name}")
        for name, init, owner in instance_attributes(tree):
            readers = [node for node, _, _ in statements if node is not owner]
            readers += [m for m in owner.body if m is not init]
            if not any(name in attributes_read(node) for node in readers):
                unreached.append(f"{module}:{owner.name}.{name}")
    return unreached


def test_every_definition_is_reached():
    assert unreached_definitions() == []


def callers(name: str) -> list:
    """(module, top-level definition) of every call of ``name`` in the package."""
    found = []
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(p.read_text()).body:
            found += [(p.name, getattr(node, "name", None)) for sub in ast.walk(node)
                      if isinstance(sub, ast.Call) and name in (getattr(sub.func, "id", None),
                                                                getattr(sub.func, "attr", None))]
    return found


def test_only_orbit_builds_an_orbit():
    # orbit() is the one place that lays out an orbit's positions; the codec returns its result
    assert callers("Orbit") == [("sl2_orbit.py", "orbit")]
