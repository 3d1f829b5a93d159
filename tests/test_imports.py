import ast
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polychow"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)


def absolute_imports(path):
    """The modules that `path` imports by absolute name."""
    tree = ast.parse(path.read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    return names | {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 0}


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    # polychow has no third-party runtime dependencies
    outside = {name for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"polychow"}}
    assert not outside, sorted(outside)


def test_no_module_imports_fractions():
    # polychow computes in integers only: on a Fraction the `//` of a
    # Bareiss step in linalg floors silently
    assert [path.name for path in MODULES + [PACKAGE / "__init__.py"]
            if "fractions" in absolute_imports(path)] == []


def test_no_module_imports_random():
    # every verdict is decided exactly, so no run draws a random number;
    # the samplers that check the certificates live in tests/oracles.py
    assert [path.name for path in MODULES + [PACKAGE / "__init__.py"]
            if "random" in absolute_imports(path)] == []


def test_no_module_imports_cached_property():
    # `polymatroid.memoized` is the one memo mechanism: each structure keeps
    # what derives from it in its own `_memo`; this catches the name
    # imported from functools and `functools.cached_property` alike
    assert [path.name for path in MODULES + [PACKAGE / "__init__.py"]
            if any(getattr(node, "name", None) == "cached_property"
                   or getattr(node, "attr", None) == "cached_property"
                   for node in ast.walk(ast.parse(path.read_text())))] == []


def test_no_ground_subclass_redefines_a_ground_method():
    # `polymatroid.Ground` holds the one closure, flat test and enumeration
    # of flats for every ground set; a subclass supplies `n` and `rank` only
    from polychow.polymatroid import Ground
    methods = {name for name in vars(Ground) if not is_dunder(name)}
    subclasses = {cls for path in MODULES for cls in vars(import_module("polychow." + path.stem))
                  .values() if isinstance(cls, type) and issubclass(cls, Ground)}
    assert sorted("%s.%s" % (cls.__name__, name) for cls in subclasses - {Ground}
                  for name in methods & set(vars(cls))) == []


def test_every_module_level_definition_is_referenced_elsewhere_in_src():
    # a function or class that only the tests reach belongs in the tests
    nodes = [node for path in MODULES for node in ast.parse(path.read_text()).body]
    names = [{getattr(sub, "id", None) or getattr(sub, "attr", None) for sub in ast.walk(node)}
             for node in nodes]
    unreferenced = {node.name for node in nodes
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not any(node.name in used for other, used in zip(nodes, names)
                                if other is not node)}
    assert unreferenced == set(), sorted(unreferenced)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def referenced_names(node):
    """Every Name id and attribute name in the tree under node."""
    return Counter(getattr(sub, "id", None) or getattr(sub, "attr", None)
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def overrides_outside_src(cls, name):
    """Whether a base class from outside polychow defines the method, which
    its own code then calls (argparse calls `ArgumentParser.error`)."""
    return any(name in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("polychow"))


def test_every_slot_is_read_and_every_method_is_referenced_in_src():
    # an attribute or method that only the tests read belongs in the tests
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    referenced = sum(map(referenced_names, trees.values()), Counter())
    unread, unreferenced = [], []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                        getattr(target, "id", None) == "__slots__" for target in node.targets):
                    unread += ["%s.%s" % (cls.name, slot.value) for slot in node.value.elts
                               if slot.value not in read]
                elif isinstance(node, ast.FunctionDef) and not is_dunder(node.name) \
                        and not overrides_outside_src(
                            getattr(import_module("polychow." + module), cls.name), node.name):
                    # a recursive call inside the method itself does not count
                    if referenced[node.name] == referenced_names(node)[node.name]:
                        unreferenced.append("%s.%s" % (cls.name, node.name))
    assert unread == [], unread
    assert unreferenced == [], unreferenced


def test_all_names_exactly_the_names_the_package_imports():
    # a removed or renamed name cannot stay behind in one of the two lists
    import polychow
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(imported)) == len(imported)
    assert sorted(polychow.__all__) == sorted(imported)
    assert all(hasattr(polychow, name) for name in polychow.__all__)
