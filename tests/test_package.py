"""Package hygiene, read from the source with the standard library ast."""

import ast
import collections
import types
from pathlib import Path

import pytest

import diskcomplex

MODULES = sorted(
    p for p in Path(diskcomplex.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_all_is_sorted_and_names_every_public_object():
    public = {
        name for name, value in vars(diskcomplex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert diskcomplex.__all__ == sorted(diskcomplex.__all__)
    assert set(diskcomplex.__all__) == public


def test_every_private_helper_is_named_outside_its_definition():
    # a def or class statement is not a Name node, so a module-level
    # _helper that only its own definition mentions is counted 0 times
    trees = {
        p.name: ast.parse(p.read_text())
        for p in Path(diskcomplex.__file__).parent.glob("*.py")
    }
    named = collections.Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    unused = [
        f"{module}:{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not named[node.name]
    ]
    assert unused == []


def test_every_method_is_named_in_the_package_or_its_tests():
    # a def statement is not an Attribute node, so a method or property
    # that only its own definition mentions is never named; dunder methods
    # are called by the language itself
    package = Path(diskcomplex.__file__).parent
    trees = {
        p: ast.parse(p.read_text())
        for p in [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    }
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [
        f"{path.name}:{cls.name}.{node.name}"
        for path, tree in sorted(trees.items())
        if path.parent == package
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    ]
    assert unused == []


def test_no_module_imports_another_modules_private_name():
    # a private helper stays private to its module: a caller elsewhere in
    # the package gets a public name, or the helper moves to the caller;
    # dunder names such as __version__ are public
    imports = [
        f"{path.name}: {alias.name}"
        for path in Path(diskcomplex.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("diskcomplex"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert sorted(imports) == []
