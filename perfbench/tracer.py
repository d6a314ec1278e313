"""Spans around the public functions of polyvec, installed from outside.

A Tracer replaces every binding of each traced function -- the defining
module's attribute and every ``from .x import f`` copy in the other
polyvec modules -- with a wrapper that records a span (name, start, end,
parent).  Names imported inside function bodies resolve through the
defining module at call time, so they are covered as well.  Brackets of
the L-infinity structures built during a campaign are closures, so the
factories that return them are wrapped to wrap the brackets.

Spans are kept in memory; self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import Counter

# (span name, defining module, attribute).  Two attributes may share a
# span name (both directions of the volume-form transport).
FUNCTIONS = [
    ("superpoly.monomial_basis", "polyvec.superpoly", "monomial_basis"),
    ("superpoly.random_poly", "polyvec.superpoly", "random_poly"),
    ("pvcalc.divergence", "polyvec.pvcalc", "divergence"),
    ("pvcalc.schouten", "polyvec.pvcalc", "schouten"),
    ("pvcalc.symmetric_bracket", "polyvec.pvcalc", "symmetric_bracket"),
    ("pvcalc.vee_omega", "polyvec.pvcalc", "vee_omega"),
    ("pvcalc.vee_omega", "polyvec.pvcalc", "vee_omega_inv"),
    ("pvcalc.euler_contraction", "polyvec.pvcalc", "euler_contraction"),
    ("contraction.contraction_K", "polyvec.contraction", "contraction_K"),
    ("contraction.verify_datum", "polyvec.contraction", "verify_datum"),
    ("contraction.build_datum", "polyvec.contraction", "build_datum"),
    ("complexes.differential", "polyvec.complexes", "differential"),
    ("complexes.random_field", "polyvec.complexes", "random_field"),
    ("linf.jacobi_defect", "polyvec.linf", "jacobi_defect"),
    ("sho.ext_bracket_d3", "polyvec.sho", "ext_bracket_d3"),
    ("sho.hamiltonian_vf", "polyvec.sho", "hamiltonian_vf"),
    ("sho.vf_bracket", "polyvec.sho", "vf_bracket"),
    ("sho.cocycle_check", "polyvec.sho", "cocycle_check"),
    ("sho.ham_generator", "polyvec.sho", "ham_generator"),
    ("sl2.act_e", "polyvec.sl2", "act_e"),
    ("sl2.act_f", "polyvec.sl2", "act_f"),
    ("sl2.extend_f", "polyvec.sl2", "extend_f"),
    ("linalg.solve_combination", "polyvec._linalg", "solve_combination"),
]

# (span name, defining module, class, method)
METHODS = [
    ("superpoly.mul", "polyvec.superpoly", "SuperPoly", "__mul__"),
    ("superpoly.add", "polyvec.superpoly", "SuperPoly", "__add__"),
    ("superpoly.d_odd", "polyvec.superpoly", "SuperPoly", "d_odd"),
    ("superpoly.d_even", "polyvec.superpoly", "SuperPoly", "d_even"),
    ("complexes.random_element", "polyvec.complexes", "CarrierModel", "random_element"),
]

# Factories whose returned structures get their brackets wrapped.
STRUCTURES = [
    ("linf.transfer", "polyvec.linf", "transfer"),
    ("linf.minimal", "polyvec.linf", "minimal_model_structure"),
    ("linf.field", "polyvec.linf", "field_structure"),
]


def _nterms(p) -> int:
    terms = getattr(p, "_terms", None)
    return len(terms) if terms is not None else sum(1 for _ in p.terms())


def _mul_hook(counters, args, out):
    counters["superpoly.mul.term_pairs"] += _nterms(args[0]) * _nterms(args[1])
    counters["superpoly.mul.out_terms"] += _nterms(out)


def _nonzero_hook(name):
    key = name + ".nonzero"

    def hook(counters, args, out):
        if not out.is_zero():
            counters[key] += 1

    return hook


HOOKS = {
    "superpoly.mul": _mul_hook,
    "complexes.random_element": _nonzero_hook("complexes.random_element"),
    "linf.minimal.central": _nonzero_hook("linf.minimal.central"),
}


class Tracer:
    """Records spans into memory while installed; see install()."""

    def __init__(self, names: set[str] | None = None):
        # names=None traces everything; otherwise only the listed span names
        self.names = names
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    def wanted(self, name: str) -> bool:
        return self.names is None or name in self.names

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, out)
            return out

        return functools.update_wrapper(traced, fn)

    # -- installation ------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every polyvec module attribute bound to original at replacement."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "polyvec" or modname.startswith("polyvec.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _structure_factory(self, prefix: str, factory):
        tracer = self

        def build(*args, **kwargs):
            structure = factory(*args, **kwargs)
            for n, bracket in list(structure.brackets.items()):
                if n < 2:
                    continue
                if prefix == "linf.transfer":
                    name = f"linf.transfer.b{n}"
                elif prefix == "linf.minimal":
                    name = "linf.minimal.b2" if n == 2 else "linf.minimal.central"
                else:
                    name = f"linf.field.b{n}"
                if tracer.wanted(name):
                    structure.brackets[n] = tracer.wrap(name, bracket)
            return structure

        build.__wrapped__ = factory
        return build

    def install(self):
        """Wrap every binding of the traced functions; undo with uninstall()."""
        import polyvec  # noqa: F401  (loads every submodule)
        from polyvec import suites

        for name, modname, attr in FUNCTIONS:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is not None and self.wanted(name):
                self._rebind(original, self.wrap(name, original))
        for name, modname, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is not None and self.wanted(name):
                setattr(cls, attr, self.wrap(name, original))
                self._undo.append((cls, attr, original))
        for prefix, modname, attr in STRUCTURES:
            original = getattr(importlib.import_module(modname), attr, None)
            wanted = self.names is None or any(n.startswith(prefix + ".") for n in self.names)
            if original is not None and wanted:
                self._rebind(original, self._structure_factory(prefix, original))
        for suite, fn in list(suites.SUITES.items()):
            name = f"suites.{suite}"
            if self.wanted(name):
                wrapped = self.wrap(name, fn)
                suites.SUITES[suite] = wrapped
                self._undo.append((suites.SUITES, suite, fn))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    # -- aggregation -------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self_ns and inclusive ns of outermost spans."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
            row["calls"] += 1
            row["self_ns"] += (t1 - t0) - child_ns[i]
            if parent < 0 or self.spans[parent][0] != name:
                row["incl_ns"] += t1 - t0
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped TSV: index, name, start_ns, end_ns, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0}\t{t1}\t{parent}\n")
