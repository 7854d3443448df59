"""Sweep-style verification of the closed-form Groebner bases, the
symmetric-function identities, the involution certificates and the
Hilbert-series corollary, over ranges of (k, n)."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import factorial
from typing import Callable, List, Optional, Sequence, Tuple

from . import groebner, hilbert, involution, symfunc
from .poly import format_polynomial


@dataclass(frozen=True)
class CellResult:
    target: str
    k: Optional[int]
    n: int
    ok: bool
    witness: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def record(self) -> str:
        k = "-" if self.k is None else self.k
        witness = f" witness={self.witness}" if self.witness else ""
        return f"target={self.target} k={k} n={self.n} status={self.status}{witness}"

    def text(self) -> str:
        k = "" if self.k is None else f" k={self.k}"
        witness = f"  [{self.witness}]" if self.witness else ""
        return f"{self.status} {self.target}{k} n={self.n}{witness}"


# The generators of the last computed_gb_ek call and its Buchberger run,
# read, fed, reduced and stored under the lock, so that concurrent sweeps
# never read a basis off a run that another thread has fed since.
_gb_ek_run: Tuple[list, Optional[groebner._Buchberger]] = ([], None)
_gb_ek_lock = threading.Lock()


def computed_gb_ek(k: int, n: int) -> groebner.GroebnerBasis:
    """The reduced lex basis of <e_{1,n}..e_{k,n}>, by Buchberger.

    When the last call's generators equal this call's first k - 1 (compared
    as polynomials, so a patched ``symfunc.elementary`` never matches a run
    on the real e's), its run, whose basis generates <e_1..e_{k-1}>, is
    resumed with e_k (incremental Buchberger: Gebauer and Moller, J.
    Symbolic Comput. 6, 1988); otherwise a run starts from e_1..e_k.  The
    reduced basis is unique, so both give the same elements.  A sweep lists
    k ascending at each n, so it makes one run on e_1..e_n at each n and
    reads a basis off it after each generator.  The basis's ``stats`` count
    the whole run that gave it: on a resumed run, from e_1 to e_k."""
    global _gb_ek_run
    gens = [symfunc.elementary(i, n, n) for i in range(1, k + 1)]
    with _gb_ek_lock:
        stored, run = _gb_ek_run
        if run is not None and stored == gens[:-1]:
            run.add(gens[-1:])
        else:
            run = groebner._Buchberger(gens)
        _gb_ek_run = gens, run
        return run.reduced()


def computed_gb_e1ek(k: int, n: int) -> groebner.GroebnerBasis:
    gens = [symfunc.elementary(1, n, n), symfunc.elementary(k, n, n)]
    return groebner.reduced_groebner_basis(gens)


# Largest n whose <e_1..e_n> basis hilbert_series builds: a fresh
# computed_gb_ek(n, n) takes 0.016 / 0.044 / 0.13 / 0.4 s at n = 10 / 11 /
# 12 / 13 (Python 3.11.7, 2-vCPU Xeon), about 3x more for each step of n.
MAX_HILBERT_N = 13


def _refuse_builds(k: int, n: int) -> None:
    """Refuse a cell (k, n) whose e, h or p may store more than the build
    limit: each has at most C(n, i) terms, i <= k, of cost at most n + k."""
    limit, i = symfunc.MAX_SYM_EXPONENTS, min(k, n // 2)
    if symfunc._comb_capped(n, i, limit) * (n + k) > limit:
        raise ValueError(f"the cell k={k} n={n} builds e, h or p of up to "
                         f"C({n},{i})*{n + k} exponents, more than the limit "
                         f"of {limit}")


def _refuse_hilbert_n(n: int) -> None:
    if n > MAX_HILBERT_N:
        raise ValueError(f"the Hilbert series at n={n} needs the Groebner "
                         f"basis of <e_1..e_{n}>, more than the limit of "
                         f"n={MAX_HILBERT_N}")


def require_n(n: int) -> int:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n


def hilbert_series(n: int) -> Tuple[hilbert.SeriesPoly, hilbert.SeriesPoly]:
    """(staircase series of the reduced basis of <e_1..e_n>, closed form)."""
    _refuse_hilbert_n(require_n(n))  # before any Groebner work
    gb = computed_gb_ek(n, n)
    series = hilbert.staircase_series(gb.leading_monomials(), n)
    return series, hilbert.closed_form_series(n)


# Each check maps a cell (k, n) to (ok, witness).  Checks look symfunc and
# involution functions up on their modules at call time, so replacing a
# module attribute (in a test, or to trace it) reaches the sweep.

def _basis_check(gb: groebner.GroebnerBasis, expected: list) -> Tuple[bool, str]:
    got = list(gb.elements)
    if got == expected:
        return True, ""
    return False, ("computed={" + "; ".join(format_polynomial(g) for g in got)
                   + "} expected={"
                   + "; ".join(format_polynomial(g) for g in expected) + "}")


def _defect_check(defect) -> Tuple[bool, str]:
    if defect.is_zero():
        return True, ""
    return False, f"defect={format_polynomial(defect)}"


def _certify_check(report: involution.CertReport) -> Tuple[bool, str]:
    return report.ok, "" if report.ok else repr(report)


def _hilbert_check(k: None, n: int) -> Tuple[bool, str]:
    series, expected = hilbert_series(n)
    if series == expected and series.dimension() == factorial(n):
        return True, f"dim={series.dimension()}"
    return False, f"computed={series} expected={expected}"


def _e1ek_reduction_check(k: int, n: int) -> Tuple[bool, str]:
    ok = symfunc.check_e1ek_reduction(k, n)
    return ok, "" if ok else "reduction identity failed"


def _ks(lo: int, past_n: int = 0) -> Callable[[int], range]:
    return lambda n: range(lo, n + 1 + past_n)


@dataclass(frozen=True)
class Target:
    check: Callable[[Optional[int], int], Tuple[bool, str]]
    max_n: int  # default n ceiling, keeping the full sweep fast
    ks: Callable[[int], Sequence[Optional[int]]]  # k of the cells at n; grows with n
    # (k, n) -> raises ValueError for a cell past a hard limit; run_sweep asks
    # it of every selected cell at the top n, before it lists any cell
    refuse: Callable[[Optional[int], int], object]


# hkn, ekn and newton also sweep k = n+1, n+2, where they hold trivially.
# A carrier's 2^k C(n, k) pairs grow with n, so no cell is larger than one
# with the same k at the top n.
TARGETS = {
    "gb-ek": Target(lambda k, n: _basis_check(
        computed_gb_ek(k, n), symfunc.conjectured_gb_ek(k, n)), 12, _ks(1),
        _refuse_builds),
    "gb-e1ek": Target(lambda k, n: _basis_check(
        computed_gb_e1ek(k, n), symfunc.conjectured_gb_e1ek(k, n)), 12, _ks(2),
        _refuse_builds),
    "hkn": Target(lambda k, n: _defect_check(
        symfunc.hkn_identity_defect(k, n)), 12, _ks(1, 2), _refuse_builds),
    "ekn": Target(lambda k, n: _defect_check(
        symfunc.ekn_identity_defect(k, n)), 12, _ks(1, 2), _refuse_builds),
    "telescope": Target(lambda k, n: _defect_check(
        symfunc.telescope_defect(k, n)), 12, _ks(1), _refuse_builds),
    "newton": Target(lambda k, n: _defect_check(
        symfunc.newton_defect(k, n)), 12, _ks(1, 2), _refuse_builds),
    "e1ek-reduction": Target(_e1ek_reduction_check, 12, _ks(1), _refuse_builds),
    "involution-hkn": Target(lambda k, n: _certify_check(
        involution.certify_involution("hkn", k, n)), 11, _ks(1),
        lambda k, n: involution.refuse_carrier("hkn", k, n)),
    "involution-ekn": Target(lambda k, n: _certify_check(
        involution.certify_involution("ekn", k, n)), 11, _ks(1),
        lambda k, n: involution.refuse_carrier("ekn", k, n)),
    "hilbert": Target(_hilbert_check, 11, lambda n: (None,),
                      lambda k, n: _refuse_hilbert_n(n)),
}


def run_sweep(target: str, n_lo: int, n_hi: int,
              fixed_k: Optional[int] = None) -> List[CellResult]:
    """Check every (k, n) cell of the target with n_lo <= n <= n_hi, or only
    the cells with k = fixed_k; an n_lo below 1, or a range or a fixed_k
    that selects no cell, is an error, and the cells at n_hi are refused or
    not before any is listed."""
    spec = TARGETS.get(target)
    if spec is None:
        raise ValueError(f"unknown target {target!r}")
    require_n(n_lo)
    ks = spec.ks if fixed_k is None else (  # the k selected at n
        lambda n: (fixed_k,) if fixed_k in spec.ks(n) else ())
    if n_hi < n_lo or not ks(n_hi):  # the k of a target grow with n
        with_k = "" if fixed_k is None or ks(n_hi) else f" with k={fixed_k}"
        raise ValueError(f"{target} has no cell{with_k} for n in {n_lo}..{n_hi}")
    for k in ks(n_hi):
        spec.refuse(k, n_hi)
    return [CellResult(target, k, n, *spec.check(k, n))
            for n in range(n_lo, n_hi + 1) for k in ks(n)]
