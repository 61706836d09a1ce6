"""Spans around the public functions of each projflow layer.

``Tracer.install`` wraps the functions in ``TARGETS`` from outside the
library: every module namespace and class attribute bound to the original
function object is rebound to the wrapper (``poly_gcd`` is imported into
several modules; ``Poly.__rmul__`` is the same function as ``__mul__``), and
``uninstall`` puts the originals back.  Spans are kept in flat arrays and
turned into per-layer metrics, and written out, after the run.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array

# (layer, attribute path in projflow.<layer>, metric name)
TARGETS = (
    ("algebra", "Poly.__mul__", "algebra.Poly.mul"),
    ("algebra", "Poly.eval_hom", "algebra.Poly.eval_hom"),
    ("algebra", "Poly.subs_polys", "algebra.Poly.subs_polys"),
    ("algebra", "Poly.derivative", "algebra.Poly.derivative"),
    ("algebra", "poly_gcd", "algebra.poly_gcd"),
    ("algebra", "divexact", "algebra.divexact"),
    ("algebra", "RatFn.__init__", "algebra.RatFn.init"),
    ("algebra", "RatFn.subs", "algebra.RatFn.subs"),
    ("algebra", "linear_factors_q", "algebra.linear_factors_q"),
    ("algebra", "count_real_projective_roots",
     "algebra.count_real_projective_roots"),
    ("flowcore", "verify_translation", "flowcore.verify_translation"),
    ("flowcore", "verify_pde", "flowcore.verify_pde"),
    ("flowcore", "vector_field", "flowcore.vector_field"),
    ("flowcore", "level_of", "flowcore.level_of"),
    ("flowcore", "check_boundary", "flowcore.check_boundary"),
    ("flowcore", "zeros_poles", "flowcore.zeros_poles"),
    ("birmap", "HomBir.__init__", "birmap.HomBir.init"),
    ("birmap", "HomBir.compose", "birmap.HomBir.compose"),
    ("birmap", "HomBir.inverse", "birmap.HomBir.inverse"),
    ("birmap", "conjugate_flow", "birmap.conjugate_flow"),
    ("birmap", "conjugate_vf_radial", "birmap.conjugate_vf_radial"),
    ("odesolve", "rational_solutions", "odesolve.rational_solutions"),
    ("odesolve", "solve_differ", "odesolve.solve_differ"),
    ("odesolve", "orbit_ode_reduce", "odesolve.orbit_ode_reduce"),
    ("classify", "canonicalize", "classify.canonicalize"),
    ("classify", "univariate_classify", "classify.univariate_classify"),
    ("classify", "orbit_invariant", "classify.orbit_invariant"),
    ("classify", "classify_degenerate", "classify.classify_degenerate"),
    ("classify", "quadratic_classify", "classify.quadratic_classify"),
    ("classify", "reduce_denominator_step",
     "classify.reduce_denominator_step"),
    ("classify", "step2_obstruction", "classify.step2_obstruction"),
    ("series", "expand_from_vf", "series.expand_from_vf"),
    ("series", "expand_flow", "series.expand_flow"),
    ("series", "diagonal_series", "series.diagonal_series"),
    ("series", "prime_growth_diagnostic", "series.prime_growth_diagnostic"),
    ("parser", "parse_input", "parser.parse_input"),
    ("cli", "main", "cli.main"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
MUL = "algebra.Poly.mul"
GCD = "algebra.poly_gcd"


def metric_units():
    """Every per-layer metric name with its unit and better direction."""
    out = {}
    for _, _, name in TARGETS:
        out[name + ".calls"] = ("count", "lower")
        out[name + ".self_s"] = ("s", "lower")
    out[MUL + ".terms_out"] = ("count", "lower")
    out[MUL + ".max_coeff_bits"] = ("bits", "lower")
    out[GCD + ".nontrivial_share"] = ("ratio", "higher")
    out[GCD + ".max_terms_in"] = ("count", "lower")
    for layer in LAYERS:
        out[layer + ".errors"] = ("count", "lower")
    return out


def _coeff_bits(poly):
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


class Tracer:
    """Records one span per call of a target function: (name, start, end,
    parent span, case), plus counters that need the call's arguments or
    result."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self.name_ids = array("i")
        self.parents = array("i")
        self.cases = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.case = -1
        self._case_first = 0
        self.errors = dict.fromkeys(LAYERS, 0)
        self.mul_terms = 0
        self.mul_bits = 0
        self.gcd_nontrivial = 0
        self.gcd_terms_in = 0
        self._patched = []

    # -- installation ------------------------------------------------------
    def install(self):
        for layer in LAYERS:
            importlib.import_module("projflow." + layer)
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "projflow" or k.startswith("projflow.")]
        for index, (layer, path, name) in enumerate(TARGETS):
            mod = sys.modules["projflow." + layer]
            owner = mod
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            wrapper = self._wrap(index, layer, name, orig)
            for holder in modules + ([owner] if owner is not mod else []):
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()

    def _wrap(self, index, layer, name, fn):
        names, parents, cases = self.name_ids, self.parents, self.cases
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter
        after = {MUL: self._after_mul, GCD: self._after_gcd}.get(name)

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            cases.append(self.case)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _after_mul(self, args, out):
        self.mul_terms += len(out.terms)
        bits = _coeff_bits(out)
        if bits > self.mul_bits:
            self.mul_bits = bits

    def _after_gcd(self, args, out):
        if not out.is_constant():
            self.gcd_nontrivial += 1
        size = max(len(args[0].terms), len(args[1].terms))
        if size > self.gcd_terms_in:
            self.gcd_terms_in = size

    def start_case(self, case):
        self.case = case
        self._case_first = len(self.starts)

    def end_case(self):
        """Repair the arrays after a case, which a timeout signal may have
        interrupted between two appends or before a span's end was set."""
        n = min(len(a) for a in (self.name_ids, self.parents, self.cases,
                                 self.starts, self.ends))
        for a in (self.name_ids, self.parents, self.cases, self.starts,
                  self.ends):
            del a[n:]
        now = time.perf_counter()
        for i in range(self._case_first, n):
            if self.ends[i] == 0.0:
                self.ends[i] = now
        self.stack.clear()

    # -- results ------------------------------------------------------------
    def metrics(self):
        """Per-layer metrics; self time is span time minus the time of the
        spans nested directly inside it."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_ids[i]
            calls[k] += 1
            self_s[k] += self.ends[i] - self.starts[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[name + ".calls"] = calls[k]
            out[name + ".self_s"] = self_s[k]
        gcd_calls = calls[self.names.index(GCD)]
        out[MUL + ".terms_out"] = self.mul_terms
        out[MUL + ".max_coeff_bits"] = self.mul_bits
        out[GCD + ".nontrivial_share"] = (self.gcd_nontrivial / gcd_calls
                                          if gcd_calls else 0.0)
        out[GCD + ".max_terms_in"] = self.gcd_terms_in
        for layer in LAYERS:
            out[layer + ".errors"] = self.errors[layer]
        return out

    def write(self, path):
        """Spans as tab-separated lines: name, start, end, parent, case."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tcase\n")
            for i in range(len(self.starts)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[self.name_ids[i]], self.starts[i],
                    self.ends[i], self.parents[i], self.cases[i]))
