"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "phylokit"


def test_no_assert_statements():
    # python -O strips asserts, so a check that guards a result must raise
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/phylokit: {', '.join(found)}"


def test_every_export_is_defined():
    # a deleted name left in __all__ breaks `from phylokit.x import *`
    stale = []
    for path in sorted(SOURCE.glob("*.py")):
        name = "phylokit" if path.stem == "__init__" else f"phylokit.{path.stem}"
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", ())
        stale.extend(f"{name}.{entry}" for entry in exports if not hasattr(module, entry))
    assert not stale, f"__all__ names undefined attributes: {', '.join(stale)}"
