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
