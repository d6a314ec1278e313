"""The span tables of perfbench/tracer.py name attributes that exist.

The tracer skips a name it cannot resolve without an error, so a renamed
or removed function would silently read 0 in its per-layer rows.  The
tables are read from the source with ast, without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables() -> dict:
    tree = ast.parse(TRACER.read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "METHODS", "STRUCTURES")
    }


def test_traced_names_resolve():
    tables = _tables()
    assert set(tables) == {"FUNCTIONS", "METHODS", "STRUCTURES"}
    missing = []
    for table in ("FUNCTIONS", "STRUCTURES"):
        for name, modname, attr in tables[table]:
            if not callable(getattr(importlib.import_module(modname), attr, None)):
                missing.append(name)
    for name, modname, cls_name, attr in tables["METHODS"]:
        # the tracer looks the method up in the class's own namespace
        cls = getattr(importlib.import_module(modname), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(name)
    assert not missing, missing
