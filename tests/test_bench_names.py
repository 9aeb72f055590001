"""The benchmark reaches degbal by name: each name it uses must exist.

bench/spans.py traces the functions it lists in TRACED, bench/run.py calls
attributes of the general, oracle and cli modules, and bench/run.py and
bench/inputs.py import names from degbal.  The files are read, not changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _resolves(module: str, name: str) -> bool:
    """module.name is an attribute, or a submodule of a package."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    return hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"degbal.{module}"), name, None))
    ]
    assert not missing


def test_called_module_attributes_resolve():
    tree = ast.parse((BENCH / "run.py").read_text())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("general", "oracle", "cli")
    }
    assert {name for _, name in used} >= {"decompose_balanced", "decompose_result", "main"}
    missing = [f"{m}.{name}" for m, name in sorted(used) if not _resolves(f"degbal.{m}", name)]
    assert not missing


def test_imported_names_resolve():
    imported = [
        (node.module, alias.name)
        for path in ("run.py", "inputs.py")
        for node in ast.walk(ast.parse((BENCH / path).read_text()))
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "degbal"
        for alias in node.names
    ]
    assert ("degbal.connected", "Statement") in imported
    missing = [f"{m}.{name}" for m, name in imported if not _resolves(m, name)]
    assert not missing
