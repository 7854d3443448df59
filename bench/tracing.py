"""Span tracing of symgb's layers, installed at run time by the benchmark.

``Tracer`` replaces public functions in their *defining* module (for example
``symgb.groebner.divide`` and ``symgb.poly.Polynomial.__mul__``).  Calls
inside the library go through those module globals and class attributes, so
the wrappers see ``buchberger -> divide`` as well as calls from the
benchmark.  Leaving the ``with`` block restores every original.

Each span records its name, start, end and parent.  Self time is a span's
duration minus the durations of its child spans; inclusive times (``.s``)
count only the outermost span of a name, so recursion is not counted twice.
Counter hooks run after their span has closed and their time is excluded
from every open span, so they do not inflate the layer times.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _after_init(tracer: "Tracer", parent: Optional[str], args, result) -> None:
    terms = args[0].terms
    tracer.maxima["poly.max_terms"] = max(tracer.maxima["poly.max_terms"], len(terms))
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for _, c in terms), default=0)
    tracer.maxima["poly.max_coeff_bits"] = max(tracer.maxima["poly.max_coeff_bits"], bits)


def _after_divide(tracer: "Tracer", parent: Optional[str], args, result) -> None:
    if parent == "groebner.buchberger":
        tracer.counts["groebner.reductions"] += 1
        if result.remainder.is_zero():
            tracer.counts["groebner.zero_reductions"] += 1


def _after_buchberger(tracer: "Tracer", parent: Optional[str], args, result) -> None:
    tracer.maxima["groebner.basis_len_max"] = max(
        tracer.maxima["groebner.basis_len_max"], len(result.elements))


def _after_reduced_gb(tracer: "Tracer", parent: Optional[str], args, result) -> None:
    if isinstance(args[0], (list, tuple)):
        tracer.bases.append((tuple(args[0]), result))


def _after_certify(tracer: "Tracer", parent: Optional[str], args, result) -> None:
    tracer.counts["involution.carrier_pairs"] += result.carrier_size


def _after_staircase(tracer: "Tracer", parent: Optional[str], args, result) -> None:
    # box_points is computed, not observed: the product of the pure-power caps
    # bounds the box the staircase count walks.
    lms, arity = args[0], args[1]
    caps = [None] * arity
    for m in lms:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            i = support[0]
            caps[i] = m[i] if caps[i] is None else min(caps[i], m[i])
    box = 1
    for c in caps:
        box *= c or 0
    tracer.counts["hilbert.box_points"] += box
    tracer.counts["hilbert.standard_monomials"] += result.dimension()


def _patch_table(lib) -> List[Tuple[object, Tuple[str, ...], str, Optional[Callable]]]:
    """(owner, attributes, span name, counter hook) for every traced call."""
    P = lib.poly.Polynomial
    return [
        (P, ("__init__",), "poly.init", _after_init),
        (P, ("__mul__", "__rmul__"), "poly.mul", None),
        (P, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"), "poly.add", None),
        (P, ("mul_term",), "poly.mul_term", None),
        (lib.groebner, ("divide",), "groebner.divide", _after_divide),
        (lib.groebner, ("s_polynomial",), "groebner.s_polynomial", None),
        (lib.groebner, ("buchberger",), "groebner.buchberger", _after_buchberger),
        (lib.groebner, ("reduce_basis",), "groebner.reduce_basis", None),
        (lib.groebner, ("reduced_groebner_basis",), "groebner.reduced_groebner_basis",
         _after_reduced_gb),
        (lib.symfunc, ("elementary", "homogeneous", "powersum"), "symfunc.build", None),
        (lib.symfunc, ("hkn_identity_defect", "ekn_identity_defect", "telescope_defect",
                       "newton_defect", "check_e1ek_reduction"), "symfunc.defect", None),
        (lib.involution, ("certify_involution",), "involution.certify", _after_certify),
        (lib.involution, ("apply_f",), "involution.apply_f", None),
        (lib.hilbert, ("staircase_series",), "hilbert.staircase", _after_staircase),
        (lib.verify, ("run_sweep",), "verify.cell", None),
    ]


class Tracer:
    """Context manager that traces one sweep over one import of symgb."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = defaultdict(int)
        self.bases: list = []
        self.missing: List[str] = []
        self._stack: list = []        # open spans: [id, name, start, excluded, child]
        self._depth: Counter = Counter()
        self._excluded = 0.0          # hook time, hidden from every span
        self._patched: list = []
        self._caches = [f for f in vars(lib.symfunc).values() if hasattr(f, "cache_info")]
        self._cache_start: list = []
        self.cache_hits = self.cache_misses = 0
        self._t0 = 0.0

    # -- span bookkeeping --------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            depth[name] += 1
            frame = [len(self.spans) + len(stack), name, perf_counter(), self._excluded, 0.0]
            stack.append(frame)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                sid, _, start, excluded_at_start, child = frame
                dur = end - start - (self._excluded - excluded_at_start)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[4] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - child
                if not depth[name]:
                    self.incl_s[name] += dur
                self.spans.append((sid, name, start - self._t0, end - self._t0,
                                   parent[0] if parent is not None else -1))
            if after is not None:
                h0 = perf_counter()
                after(self, parent[1] if parent is not None else None, args, return_value)
                self._excluded += perf_counter() - h0
            return return_value

        return traced

    def __enter__(self) -> "Tracer":
        self._t0 = perf_counter()
        self._cache_start = [f.cache_info() for f in self._caches]
        try:
            for owner, attrs, name, after in _patch_table(self.lib):
                for attr in attrs:
                    original = owner.__dict__.get(attr) if isinstance(owner, type) \
                        else getattr(owner, attr, None)
                    if original is None:
                        self.missing.append(f"{name}:{attr}")
                        continue
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, after))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        self.cache_hits = sum(f.cache_info().hits - s.hits
                              for f, s in zip(self._caches, self._cache_start))
        self.cache_misses = sum(f.cache_info().misses - s.misses
                                for f, s in zip(self._caches, self._cache_start))

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def exact_counts(self) -> Dict[str, int]:
        """Every count that must repeat exactly for the same code and seed."""
        out = {f"{name}.calls": c for name, c in self.calls.items()}
        out.update(self.counts)
        out.update(self.maxima)
        out["symfunc.cache_hits"] = self.cache_hits
        out["symfunc.cache_misses"] = self.cache_misses
        return dict(sorted(out.items()))

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        c, s, incl, n = self.calls, self.self_s, self.incl_s, self.counts
        reductions = n["groebner.reductions"]
        lookups = self.cache_hits + self.cache_misses
        certify_s = incl["involution.certify"]
        return {
            "groebner.divide.calls": (c["groebner.divide"], "count"),
            "groebner.divide.self_s": (s["groebner.divide"], "s"),
            "groebner.reductions": (reductions, "count"),
            "groebner.zero_reductions": (n["groebner.zero_reductions"], "count"),
            "groebner.useful_reduction_ratio": (
                (reductions - n["groebner.zero_reductions"]) / reductions
                if reductions else 0.0, "ratio"),
            "groebner.buchberger.self_s": (s["groebner.buchberger"], "s"),
            "groebner.s_polynomial.s": (incl["groebner.s_polynomial"], "s"),
            "groebner.reduce_basis.s": (incl["groebner.reduce_basis"], "s"),
            "groebner.basis_len_max": (self.maxima["groebner.basis_len_max"], "count"),
            "poly.init.calls": (c["poly.init"], "count"),
            "poly.init.self_s": (s["poly.init"], "s"),
            "poly.mul.calls": (c["poly.mul"], "count"),
            "poly.mul.self_s": (s["poly.mul"], "s"),
            "poly.add.calls": (c["poly.add"], "count"),
            "poly.add.self_s": (s["poly.add"], "s"),
            "poly.mul_term.calls": (c["poly.mul_term"], "count"),
            "poly.mul_term.s": (incl["poly.mul_term"], "s"),
            "poly.max_terms": (self.maxima["poly.max_terms"], "terms"),
            "poly.max_coeff_bits": (self.maxima["poly.max_coeff_bits"], "bits"),
            "symfunc.build.calls": (c["symfunc.build"], "count"),
            "symfunc.build.s": (incl["symfunc.build"], "s"),
            "symfunc.defect.self_s": (s["symfunc.defect"], "s"),
            "symfunc.cache_hit_ratio": (self.cache_hits / lookups if lookups else 0.0,
                                        "ratio"),
            "involution.certify.calls": (c["involution.certify"], "count"),
            "involution.certify.self_s": (s["involution.certify"], "s"),
            "involution.apply_f.calls": (c["involution.apply_f"], "count"),
            "involution.carrier_pairs": (n["involution.carrier_pairs"], "count"),
            "involution.pairs_per_s": (n["involution.carrier_pairs"] / certify_s
                                       if certify_s else 0.0, "1/s"),
            "hilbert.staircase.calls": (c["hilbert.staircase"], "count"),
            "hilbert.staircase.s": (incl["hilbert.staircase"], "s"),
            "hilbert.box_points": (n["hilbert.box_points"], "count"),
            "hilbert.standard_monomials": (n["hilbert.standard_monomials"], "count"),
            "verify.cells": (c["verify.cell"], "count"),
            "verify.cell.self_s": (s["verify.cell"], "s"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
