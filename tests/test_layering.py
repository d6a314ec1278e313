"""The packed-key layout stays behind superpoly.py, and the summand grid
behind complexes.py.

A key's meaning depends on d and on the field widths, so only superpoly
may read exponent fields, masks, the sign table or per-key degrees, check
guard bits, shift bits or pack and unpack keys; the other modules call
its kernels (Delta, K and the top-constant pairing among them).  Linear
operators run on packed keys, so no module keeps a per-Monomial rule
path.  Likewise the summand keys ("f", i, j) and ("p", m) are spelled out
by complexes, which places a part through the grid's step tables, phi's
rule or a carrier home, and by linf's mbcov source; the homotopy data and
the sl2 field side never name a summand.  Fields are validated at the
public edge: only complexes and linf's source b2, whose parts are valid
by construction, build one through the trusted constructor; sl2 and the
homotopy data go through the validating one.  Every SuperPoly is built
by SuperPoly._of, the one normalizer: nothing else calls __new__ for it
or sets its fields.  Every import sits at module level, and the imports
inside the package form an acyclic graph.  The suites, sho and sl2 seed
their families through Report.sampled, so their own sample_seed calls
are secondary choices named by a string literal, and verify_datum,
homotopy_relations and cocycle_check do not call sample_seed.  Only
superpoly builds a random generator: every draw goes through its
sampler kernel, whose stream the seed rule fixes.  The modules are read
with ast, without importing them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyvec"
LAYOUT_NAMES = {"EXP_FIELD", "EXP_BITS", "guard_checked", "pack", "unpack", "key_layout", "KeyLayout",
                "x_degree_of", "_key_degree", "sign_table", "odd_mask", "bit_count"}


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
    used = {name: found for name, tree in trees.items()
            if name != "superpoly.py" and (found := sorted(_names(tree) & LAYOUT_NAMES))}
    assert not used, used


def test_only_superpoly_shifts_bits():
    shifting = sorted(name for name, tree in _trees().items() if name != "superpoly.py"
                      and any(isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.LShift)
                              for node in ast.walk(tree)))
    assert not shifting, shifting


def test_no_module_defines_map_monomials():
    defined = [name for name, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == "map_monomials"]
    assert not defined, defined


def _importing_functions(tree) -> set[str]:
    """The qualified names of the functions whose bodies import."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(child)):
                    out.add(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_imports_sit_at_module_level():
    found = {name: sorted(_importing_functions(tree)) for name, tree in _trees().items()}
    assert {name: fns for name, fns in found.items() if fns} == {}


def _package_imports(name: str, tree) -> set[str]:
    """The polyvec modules (file names) that a module imports: from .x
    import ..., and from . import x, where x is a module or else a name
    of the package's __init__."""
    modules = {path.name for path in SRC.glob("*.py")}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0] + ".py")
            else:
                out |= {f"{a.name}.py" if f"{a.name}.py" in modules else "__init__.py" for a in node.names}
    return out - {name}


def test_package_imports_are_acyclic():
    graph = {name: _package_imports(name, tree) for name, tree in _trees().items()}
    assert graph["contraction.py"] >= {"complexes.py", "pvcalc.py"}
    done, on_path = set(), []

    def visit(name):
        if name in on_path:
            raise AssertionError("import cycle: " + " -> ".join(on_path[on_path.index(name):] + [name]))
        if name in done:
            return
        on_path.append(name)
        for target in sorted(graph.get(name, ())):
            visit(target)
        on_path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_homotopy_data_and_sl2_name_no_summand_key():
    trees = _trees()
    literals = {name: [ast.unparse(node) for node in ast.walk(trees[name])
                       if isinstance(node, ast.Tuple) and node.elts
                       and isinstance(node.elts[0], ast.Constant) and node.elts[0].value in ("f", "p")]
                for name in ("contraction.py", "sl2.py")}
    assert literals == {"contraction.py": [], "sl2.py": []}
    # the check sees the literals that complexes does spell out
    assert any(isinstance(node, ast.Tuple) and node.elts and isinstance(node.elts[0], ast.Constant)
               and node.elts[0].value == "p" for node in ast.walk(trees["complexes.py"]))


def test_only_complexes_and_linf_build_trusted_fields():
    # the receivers of ._trusted in every module
    trees = _trees()
    callers = {name: sorted({ast.unparse(node.value) for node in ast.walk(tree)
                             if isinstance(node, ast.Attribute) and node.attr == "_trusted"})
               for name, tree in trees.items()}
    assert {name: found for name, found in callers.items() if found} == {
        "complexes.py": ["DescendantField"], "linf.py": ["DescendantField"]}
    # sl2 builds its fields through the validating constructor
    assert any(isinstance(node, ast.Call) and ast.unparse(node.func) == "DescendantField"
               for node in ast.walk(trees["sl2.py"]))


def _enclosing(tree, match) -> set[str]:
    """The qualified names of the innermost functions or classes around
    the nodes where match holds ("<module>" for module-level code)."""
    out = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if name == "<module>" else f"{name}.{child.name}")
            else:
                if match(child):
                    out.add(name)
                visit(child, name)

    visit(tree, "<module>")
    return out


def _calls_new(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"


def _builds_superpoly(node) -> bool:
    """A __new__ call on or of SuperPoly, or a store to a SuperPoly field
    that no other class of the package names (_terms, _den)."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr in ("_terms", "_den")
    return _calls_new(node) and "SuperPoly" in {ast.unparse(node.func.value),
                                                *(ast.unparse(arg) for arg in node.args)}


def test_only_of_builds_a_superpoly():
    # every SuperPoly is brought to canonical form by the one normalizer:
    # in superpoly every __new__ call and field store sits in SuperPoly._of,
    # and no other module builds one by hand
    trees = _trees()
    assert _enclosing(trees["superpoly.py"], _calls_new) == {"SuperPoly._of"}
    assert _enclosing(trees["superpoly.py"], _builds_superpoly) == {"SuperPoly._of"}
    others = {name: sorted(found) for name, tree in trees.items()
              if name != "superpoly.py" and (found := _enclosing(tree, _builds_superpoly))}
    assert others == {}
    # the check sees sho's own __new__ call, which builds a field, not a SuperPoly
    assert _enclosing(trees["sho.py"], _calls_new) == {"SuperVectorField._of"}


def test_suites_sho_and_sl2_seed_families_only_through_the_runner():
    # sample_seed(seed, "<choice>"): a family-level call would name its
    # family by an expression (a check id), which Report.sampled owns
    trees = _trees()
    seconds = {name: [node.args[1] for node in ast.walk(trees[name])
                      if isinstance(node, ast.Call) and ast.unparse(node.func) == "sample_seed"]
               for name in ("suites.py", "sho.py", "sl2.py")}
    assert all(seconds.values()), seconds
    spelled = {name: [ast.unparse(arg) for arg in args
                      if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str))]
               for name, args in seconds.items()}
    assert spelled == {"suites.py": [], "sho.py": [], "sl2.py": []}
    # what sho has left is random_sho_generator's xi-degree choice
    assert [arg.value for arg in seconds["sho.py"]] == ["xi_degree"]


def test_datum_and_cocycle_families_draw_only_through_the_runner():
    trees = _trees()
    bodies = {f"{module}:{node.name}": node for module, name in (("contraction.py", "verify_datum"),
                                                                 ("contraction.py", "homotopy_relations"),
                                                                 ("sho.py", "cocycle_check"))
              for node in ast.walk(trees[module]) if isinstance(node, ast.FunctionDef) and node.name == name}
    assert len(bodies) == 3
    calls = {name: [ast.unparse(node) for node in ast.walk(body)
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == "sample_seed"]
             for name, body in bodies.items()}
    assert calls == {"contraction.py:verify_datum": [], "contraction.py:homotopy_relations": [],
                     "sho.py:cocycle_check": []}
    # both record their seeded families through the runner
    assert all(any(isinstance(node, ast.Call) and ast.unparse(node.func) == "report.sampled"
                   for node in ast.walk(body)) for body in bodies.values())


RANDOM_MODULES = {"random", "_random", "secrets", "numpy"}
RANDOM_NAMES = {"Random", "SystemRandom", "getrandbits", "_Generator"}


def _random_uses(tree) -> list[str]:
    """The random modules a tree imports and the generator names it reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in RANDOM_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in RANDOM_MODULES:
            found.append(node.module)
    return found + sorted(_names(tree) & RANDOM_NAMES)


def test_only_superpoly_builds_a_random_generator():
    uses = {name: found for name, tree in _trees().items() if (found := _random_uses(tree))}
    assert set(uses) == {"superpoly.py"}, uses
    assert {"random", "Random", "getrandbits"} <= set(uses["superpoly.py"])
