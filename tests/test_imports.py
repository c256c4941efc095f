"""Import hygiene: every module-level import in the package has a use, no
source imports scipy or the benchmark, and the library surface does not
load the experiments."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plislab"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
FORBIDDEN = ("scipy", "perfbench")
# loaded by `import plislab` or `import plislab.cli`; the experiments load on demand
LIBRARY_SURFACE = (PACKAGE / "__init__.py", PACKAGE / "cli.py")


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


def _run_on_import(tree):
    """Every node outside function bodies: what runs when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def imported_names(nodes) -> set[str]:
    """Each module an import among nodes may load, relative ones with their dots:
    `from . import x` gives '.x', `from a.b import c` gives 'a.b' and 'a.b.c'."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module:
                names.add(base)
            sep = "." if node.module else ""
            names.update(base + sep + alias.name for alias in node.names)
    return names


def forbidden_imports(source: str) -> list[str]:
    """Imports of scipy or perfbench anywhere in source, inside functions too."""
    names = imported_names(ast.walk(ast.parse(source)))
    return sorted(n for n in names if n.split(".")[0] in FORBIDDEN)


def experiments_on_import(source: str) -> list[str]:
    """Imports of the experiments module that run when source is imported."""
    names = imported_names(_run_on_import(ast.parse(source)))
    return sorted(n for n in names if "experiments" in n.split("."))


def package_imports(source: str) -> set[str]:
    """The plislab modules source imports anywhere in it, by module name."""
    names = set()
    for name in imported_names(ast.walk(ast.parse(source))):
        if name.startswith("."):
            names.add(name.lstrip(".").split(".")[0])
        elif name.startswith("plislab."):
            names.add(name.split(".")[1])
    return names


def test_checker_finds_package_imports():
    source = (
        "import numpy as np\n"
        "from . import rng\n"
        "from .errors import ConfigError\n"
        "def f():\n"
        "    from plislab.plis import SubjectRecord\n"
    )
    assert package_imports(source) == {"rng", "errors", "plis"}


def test_datasets_imports_only_rng_and_errors():
    # the data layer does not load the tape, DP-SGD or the accountant
    source = (PACKAGE / "datasets.py").read_text(encoding="utf-8")
    assert package_imports(source) <= {"rng", "errors"}


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


@pytest.mark.parametrize(
    "source, found",
    [
        ("import scipy\n", ["scipy"]),
        ("from scipy.stats import spearmanr\n", ["scipy.stats", "scipy.stats.spearmanr"]),
        ("def f():\n    import scipy.stats as st\n", ["scipy.stats"]),
        ("from perfbench import stats\n", ["perfbench", "perfbench.stats"]),
        ("import perfbench.workloads\n", ["perfbench.workloads"]),
        ("import numpy\nfrom .scipy_free import x\nimport scipyish\n", []),
    ],
)
def test_checker_finds_scipy_and_perfbench(source, found):
    assert forbidden_imports(source) == found


@pytest.mark.parametrize(
    "source, found",
    [
        ("from . import experiments\n", [".experiments"]),
        ("from . import datasets, experiments as ex\n", [".experiments"]),
        ("from .experiments import SWEEPS\n", [".experiments", ".experiments.SWEEPS"]),
        ("import plislab.experiments\n", ["plislab.experiments"]),
        ("try:\n    from plislab import experiments\nexcept ImportError:\n    pass\n",
         ["plislab.experiments"]),
        ("class A:\n    from . import experiments\n", [".experiments"]),
        ("def f():\n    from . import experiments\n", []),
    ],
)
def test_checker_finds_experiments_imported_on_import(source, found):
    assert experiments_on_import(source) == found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_scipy_or_perfbench_imports(path):
    assert forbidden_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", LIBRARY_SURFACE, ids=lambda p: p.name)
def test_library_surface_does_not_import_experiments(path):
    assert experiments_on_import(path.read_text(encoding="utf-8")) == []


def test_importing_the_cli_leaves_experiments_unloaded():
    code = "import sys, plislab.cli; print('plislab.experiments' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.stdout.strip() == "False"
