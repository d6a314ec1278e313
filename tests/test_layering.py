"""The packed-key layout stays behind superpoly.py.

A key's meaning depends on d and on the field widths, so only superpoly
may read exponent fields, check guard bits or pack and unpack keys; the
other modules call its kernels.  Linear operators run on packed keys, so
no module keeps a per-Monomial rule path.  The modules are read with
ast, without importing them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyvec"
LAYOUT_NAMES = {"EXP_FIELD", "EXP_BITS", "guard_checked", "pack", "unpack"}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_only_superpoly_uses_the_key_layout():
    trees = _trees()
    assert "superpoly.py" in trees
    used = {name: sorted(_names(tree) & LAYOUT_NAMES) for name, tree in trees.items()
            if name != "superpoly.py"}
    assert not any(used.values()), used


def test_no_module_defines_map_monomials():
    defined = [name for name, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == "map_monomials"]
    assert not defined, defined
