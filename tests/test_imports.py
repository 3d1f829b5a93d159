import ast
import sys
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


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    # polychow has no third-party runtime dependencies
    tree = ast.parse(path.read_text())
    outside = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    outside |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    outside = {name for name in outside
               if name.split(".")[0] not in sys.stdlib_module_names | {"polychow"}}
    assert not outside, sorted(outside)


def test_every_module_level_definition_is_referenced_elsewhere_in_src():
    # a function or class that only the tests reach belongs in the tests
    nodes = [node for path in MODULES for node in ast.parse(path.read_text()).body]
    names = [{getattr(sub, "id", None) or getattr(sub, "attr", None) for sub in ast.walk(node)}
             for node in nodes]
    unreferenced = {node.name for node in nodes
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not any(node.name in used for other, used in zip(nodes, names)
                                if other is not node)}
    # ROADMAP item 4 plans to compare verify-all's fan with this third
    # construction; until then only the tests call it
    assert unreferenced == {"maximal_bergman_fan_direct"}, sorted(unreferenced)
