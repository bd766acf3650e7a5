"""The oracles check the library from outside it, so `oracles.py` may
import from `planecurrents` only the value types it builds and reads."""

import ast
from pathlib import Path

VALUE_TYPES = {"Point", "Line", "Conic", "DivisorCurrent", "LevelSet"}


def _is_library(module: str) -> bool:
    return module.split(".")[0] == "planecurrents"


def test_oracles_import_only_value_types_from_the_library():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(_is_library(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and _is_library(node.module or ""):
            imported.update(alias.name for alias in node.names)
    assert imported and imported <= VALUE_TYPES, imported - VALUE_TYPES
