"""Hilbert series of monomial quotients, and the closed-form product series
prod_{i=1..n} (1 - t^i) / (1 - t)^n.

For a monomial ideal I in n variables the Hilbert series of Q[x]/I is
K(t) / (1 - t)^n for a polynomial K, the Hilbert numerator.
``hilbert_numerator`` computes K, artinian or not, by the pivot recursion
of Bayer and Stillman ("Computation of Hilbert functions", J. Symbolic
Comput. 14, 1992): for a pure power p = x_i^e outside I,

    K(I) = K(I + <p>) + t^e K(I : p),

down to ideals whose minimal generators are pairwise coprime, where
K = prod_m (1 - t^deg(m)).  ``staircase_series`` divides K by (1 - t)^n for
an artinian staircase, whose series is a polynomial: the count of standard
monomials by total degree.  Every product prod_d (1 - t^d) is built by
``_one_minus_powers`` and every division by (1 - t)^n made by ``_series``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import le
from typing import Dict, Iterable, List, Sequence

from .poly import Monomial, _check_monomial


# Longest series or numerator built as a dense list of coefficients: on a
# 2-vCPU Xeon a staircase series of 10^6 coefficients in 2 variables takes
# 0.1 s and 70 MB, one of 10^7 took 1.3 s and 660 MB.
MAX_SERIES_COEFFS = 10**6
# Most steps of the division of a staircase numerator by (1 - t)^n, one pass
# over the series per variable: 10^7 steps take 0.6-0.8 s on the same Xeon.
MAX_DIVISION_STEPS = 10**7


class NonArtinianError(ValueError):
    """Raised when the staircase admits infinitely many standard monomials."""


@dataclass(frozen=True)
class SeriesPoly:
    """Dense univariate polynomial in t; coeffs[d] counts degree d."""

    coeffs: tuple

    def dimension(self) -> int:
        return sum(self.coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.coeffs)) + "]"


def _check_length(what: str, length: int) -> None:
    """Raise ValueError when a dense series of ``length`` coefficients is too
    long to build."""
    if length > MAX_SERIES_COEFFS:
        raise ValueError(f"{what} has up to {length} coefficients, more than "
                         f"the limit of {MAX_SERIES_COEFFS}")


def _one_minus_powers(degrees: Iterable[int], shift: int = 0) -> Dict[int, int]:
    """t^shift prod_d (1 - t^d) as a sparse {degree: coefficient} dict."""
    out = {shift: 1}
    for d in degrees:
        step = dict(out)
        for deg, c in out.items():
            step[deg + d] = step.get(deg + d, 0) - c
        out = step
    return out


def _series(sparse: Dict[int, int], length: int, arity: int) -> SeriesPoly:
    """The ``length`` dense coefficients of ``sparse`` divided by
    (1 - t)^arity, one prefix sum per factor, with trailing zeros trimmed."""
    coeffs = [0] * length
    for d, c in sparse.items():
        coeffs[d] = c
    for _ in range(arity):
        coeffs = list(accumulate(coeffs))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return SeriesPoly(tuple(coeffs))


def _checked(leading_monomials: Sequence[Monomial], arity: int) -> List[Monomial]:
    if arity < 0:
        raise ValueError(f"negative arity {arity}")
    lms = [tuple(m) for m in leading_monomials]
    if any(len(m) != arity for m in lms):
        raise ValueError("staircase monomial arity mismatch")
    for m in lms:
        _check_monomial(m, arity)  # int exponents, none negative
    return lms


def _minimal(gens: Sequence[Monomial]) -> List[Monomial]:
    """The minimal generators of <gens>: a proper divisor has a smaller
    degree, so it is kept before any monomial it divides is looked at."""
    kept: List[Monomial] = []
    for m in sorted(set(gens), key=sum):
        if not any(all(map(le, d, m)) for d in kept):
            kept.append(m)
    return kept


def _numerator(gens: List[Monomial]) -> Dict[int, int]:
    """K(t) of the ideal of the minimal generators ``gens``, as a sparse
    {degree: coefficient} dict.  The recursion is unrolled into a work list
    of (shift, generators), each leaf adding t^shift prod_m (1 - t^deg(m))."""
    numerator: Dict[int, int] = {}
    work = [(0, gens)]
    while work:
        shift, gens = work.pop()
        # variables in the support of the most generators first: the pivot
        # splits the ideal the most
        counts = [sum(1 for e in column if e) for column in zip(*gens)]
        top = max(counts, default=0)
        if top < 2:  # pairwise coprime
            for deg, c in _one_minus_powers(map(sum, gens), shift).items():
                numerator[deg] = numerator.get(deg, 0) + c
            continue
        # x_i^e for the median exponent of x_i among the generators that are
        # not pure powers: it divides one of them, so it is not in the ideal
        i = counts.index(top)
        exps = sorted(m[i] for m in gens if 0 < m[i] < sum(m))
        e = exps[len(exps) // 2]
        pivot = tuple(e if j == i else 0 for j in range(len(counts)))
        work.append((shift, [m for m in gens if m[i] < e] + [pivot]))
        work.append((shift + e, _minimal(
            [m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in gens])))
    return {d: c for d, c in numerator.items() if c}


def hilbert_numerator(leading_monomials: Sequence[Monomial],
                      arity: int) -> SeriesPoly:
    """K(t) with Hilbert series K(t) / (1 - t)^arity for the quotient by the
    monomial ideal the leading monomials generate, artinian or not.  K may
    have negative coefficients.  Its degree is at most that of the lcm of the
    generators; an lcm of degree MAX_SERIES_COEFFS or more raises ValueError
    before the recursion starts."""
    gens = _minimal(_checked(leading_monomials, arity))
    length = sum(map(max, zip(*gens))) + 1
    _check_length("Hilbert numerator", length)
    return _series(_numerator(gens), length, 0)


def staircase_series(leading_monomials: Sequence[Monomial],
                     arity: int) -> SeriesPoly:
    """Count standard monomials (those divisible by no staircase generator)
    by total degree.

    Requires an artinian staircase: every variable must have some pure
    power x_i^c_i among the generators, otherwise there are infinitely many
    standard monomials.  The series then has at most sum(c_i - 1) + 1
    coefficients; more than ``MAX_SERIES_COEFFS``, or more than
    ``MAX_DIVISION_STEPS`` for arity times that length, raises ValueError
    before any work.  The numerator is divided exactly by (1 - t)^arity, one
    prefix sum per variable.
    """
    lms = _checked(leading_monomials, arity)
    if (0,) * arity in lms:
        return SeriesPoly(())  # unit ideal, zero quotient
    caps = [None] * arity
    for m in lms:
        d = sum(m)
        if d in m:  # a pure power x_i^d, as m is not the unit
            i = m.index(d)
            if caps[i] is None or d < caps[i]:
                caps[i] = d
    missing = [i + 1 for i, c in enumerate(caps) if c is None]
    if missing:
        raise NonArtinianError(
            "no pure power of x%s in the staircase; quotient is not "
            "finite-dimensional" % ",x".join(map(str, missing)))
    length = sum(c - 1 for c in caps) + 1
    _check_length("staircase series", length)
    if arity * length > MAX_DIVISION_STEPS:
        raise ValueError(f"staircase series takes {arity} passes over {length} "
                         f"coefficients, more than the limit of "
                         f"{MAX_DIVISION_STEPS} steps")
    # a minimal generator has no exponent above its variable's cap, so K has
    # degree at most sum(caps) = length - 1 + arity
    return _series(_numerator(_minimal(lms)), length + arity, arity)


def closed_form_series(n: int) -> SeriesPoly:
    """Expand prod_{i=1..n} (1 + t + ... + t^{i-1}), as the numerator
    prod_{i=1..n} (1 - t^i) of degree n(n+1)/2 divided by (1 - t)^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _series(_one_minus_powers(range(1, n + 1)), n * (n + 1) // 2 + 1, n)
