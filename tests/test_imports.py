"""Every module-level import in the package has a use."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plislab"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each name a top-level import binds and no code reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_checker_finds_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, replace\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: replace"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
