"""Every plislab attribute the benchmark patches or calls exists.

perfbench/spans.py patches the (module, attribute) pairs of its _TARGETS
table, and perfbench/workloads.py calls attributes of the plislab modules
it imports.  Both are read with ast, not imported (test_imports forbids
importing perfbench), so a deletion that would crash a traced benchmark
run fails tier-1 first.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(tree, name: str):
    """The value of the module-level assignment to name."""
    return next(
        stmt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == name for t in stmt.targets)
    )


def span_targets(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for each entry of _TARGETS, its `_P + "name"` modules resolved."""
    tree = ast.parse(source)
    prefix = ast.literal_eval(_assigned(tree, "_P"))
    pairs = set()
    for entry in _assigned(tree, "_TARGETS").elts:
        modules, attr = entry.elts[:2]
        for module in modules.elts:
            if isinstance(module, ast.BinOp) and getattr(module.left, "id", None) == "_P":
                module = prefix + ast.literal_eval(module.right)
            else:
                module = ast.literal_eval(module)
            pairs.add((module, ast.literal_eval(attr)))
    return pairs


def workload_calls(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for each attribute taken from a module of `from plislab import ...`."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name: "plislab." + alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "plislab"
        for alias in stmt.names
    }
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_readers_resolve_both_tables():
    spans = (
        '_P = "plislab."\n'
        "_TARGETS = (\n"
        '    ((_P + "dpsgd", _P + "plis"), "clip_differentiable", "x", None),\n'
        '    (("plislab.rng",), "gaussians", "y", None),\n'
        ")\n"
    )
    assert span_targets(spans) == {
        ("plislab.dpsgd", "clip_differentiable"),
        ("plislab.plis", "clip_differentiable"),
        ("plislab.rng", "gaussians"),
    }
    workloads = (
        "import numpy as np\n"
        "from plislab import attack, models as m\n"
        "def f(s):\n"
        "    return attack.reconstruct(m.cnn_spec(4, 4, 2), np.zeros(1), s.x)\n"
    )
    assert workload_calls(workloads) == {
        ("plislab.attack", "reconstruct"),
        ("plislab.models", "cnn_spec"),
    }


PINS = sorted(
    span_targets((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    | workload_calls((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
)


@pytest.mark.parametrize("module, attr", PINS, ids=[f"{m}.{a}" for m, a in PINS])
def test_benchmark_name_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)
