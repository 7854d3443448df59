"""Multivariate division, S-polynomials, Buchberger's algorithm and
interreduction to the unique reduced Groebner basis."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .poly import (
    ArityMismatchError,
    Polynomial,
    ZeroPolynomialError,
    lex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
)

_ZERO = Fraction(0)


class ZeroIdealError(ValueError):
    """Raised when a Groebner basis of the zero ideal is requested."""


@dataclass(frozen=True)
class DivisionResult:
    """Quotients aligned with the divisor list, plus the remainder."""

    quotients: tuple
    remainder: Polynomial


@dataclass(frozen=True)
class GroebnerBasis:
    arity: int
    elements: tuple
    reduced: bool = False

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def leading_monomials(self) -> list:
        return [g.leading_monomial() for g in self.elements]


def divide(f: Polynomial, divisors: Sequence[Polynomial]) -> DivisionResult:
    """Divide f by an ordered list of divisors.

    At every step the first divisor (in list order) whose leading term
    divides the current leading term is used, so the result is
    deterministic.  Guarantees: f = sum(a_i * f_i) + r, no monomial of r is
    divisible by any leading monomial of the divisors, and
    LT(f) >= LT(a_i * f_i) whenever a_i * f_i != 0.
    """
    arity = f.arity
    leads = []
    for d in divisors:
        if d.arity != arity:
            raise ArityMismatchError(
                f"arity mismatch: {arity} vs {d.arity}")
        if d.is_zero():
            raise ZeroPolynomialError("zero divisor in division")
        lc, lm = d.leading_term()
        leads.append((lm, lc, d))

    work = {m: c for m, c in f.terms}
    # min-heap over negated reversed exponent tuples pops the lex-largest
    # monomial first; `queued` prevents duplicate heap entries.
    heap = [tuple(-e for e in m[::-1]) for m in work]
    heapq.heapify(heap)
    queued = set(work)
    quotients = [dict() for _ in divisors]
    remainder = {}

    while heap:
        key = heapq.heappop(heap)
        m = tuple(-e for e in key[::-1])
        queued.discard(m)
        c = work.pop(m, None)
        if c is None:
            continue
        for qi, (lm, lc, d) in enumerate(leads):
            if mono_divides(lm, m):
                t = mono_div(m, lm)
                tc = c / lc
                quotients[qi][t] = quotients[qi].get(t, _ZERO) + tc
                # leading terms cancel; fold in the divisor's tail
                for dm, dc in d.terms[1:]:
                    mm = mono_mul(t, dm)
                    nc = work.get(mm, _ZERO) - tc * dc
                    if nc:
                        work[mm] = nc
                        if mm not in queued:
                            heapq.heappush(
                                heap, tuple(-e for e in mm[::-1]))
                            queued.add(mm)
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return DivisionResult(
        quotients=tuple(Polynomial(arity, q.items()) for q in quotients),
        remainder=Polynomial(arity, remainder.items()),
    )


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g for the lcm of the leading monomials."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("s_polynomial of a zero polynomial")
    fc, fm = f.leading_term()
    gc, gm = g.leading_term()
    lcm = mono_lcm(fm, gm)
    left = f.mul_term(mono_div(lcm, fm), Fraction(1) / fc)
    right = g.mul_term(mono_div(lcm, gm), Fraction(1) / gc)
    return left - right


def normal_form(f: Polynomial,
                basis: Union[GroebnerBasis, Sequence[Polynomial]]) -> Polynomial:
    """Remainder of f on division by the basis; zero iff f is in the ideal
    when the basis is a Groebner basis."""
    elements = basis.elements if isinstance(basis, GroebnerBasis) else basis
    if not elements:
        return f
    return divide(f, list(elements)).remainder


def buchberger(generators: Iterable[Polynomial],
               product_criterion: bool = True) -> GroebnerBasis:
    """Buchberger's algorithm with first-in-first-out pair selection.

    Pairs with coprime leading monomials are skipped when
    ``product_criterion`` is set; correctness does not depend on it.
    Raises :class:`ZeroIdealError` when no nonzero generator remains.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ZeroIdealError("all generators are zero")
    arity = gens[0].arity

    basis: list = []
    pairs: deque = deque()
    for g in gens:
        g = g.monic()
        if g in basis:
            continue
        basis.append(g)
        j = len(basis) - 1
        pairs.extend((i, j) for i in range(j))

    one = mono_one(arity)
    while pairs:
        i, j = pairs.popleft()
        fi, fj = basis[i], basis[j]
        lmi, lmj = fi.leading_monomial(), fj.leading_monomial()
        if product_criterion and mono_lcm(lmi, lmj) == mono_mul(lmi, lmj):
            continue
        s = s_polynomial(fi, fj)
        if s.is_zero():
            continue
        r = divide(s, basis).remainder
        if r.is_zero():
            continue
        r = r.monic()
        basis.append(r)
        j = len(basis) - 1
        pairs.extend((i, j) for i in range(j))
        if r.leading_monomial() == one:
            # unit ideal: no further pair can contribute anything new
            break
    return GroebnerBasis(arity=arity, elements=tuple(basis), reduced=False)


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """Interreduce a Groebner basis to the unique reduced Groebner basis:
    minimal, monic, every element fully reduced against the others, sorted
    by decreasing leading monomial."""
    elements = [g.monic() for g in gb.elements if not g.is_zero()]
    if not elements:
        return GroebnerBasis(gb.arity, (), reduced=True)

    # minimalize: drop g when some other kept element's LM divides LM(g)
    elements.sort(key=lambda g: lex_key(g.leading_monomial()))
    minimal: list = []
    for g in elements:
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)

    # interreduce tails in one pass: no LM divides another, so division keeps
    # every leading term, and a remainder reduced against the others' LMs
    # stays reduced when they are reduced in turn
    for i in range(len(minimal)):
        others = minimal[:i] + minimal[i + 1:]
        minimal[i] = divide(minimal[i], others).remainder

    minimal.sort(key=lambda g: lex_key(g.leading_monomial()), reverse=True)
    return GroebnerBasis(gb.arity, tuple(minimal), reduced=True)


def is_groebner_basis(polys: Sequence[Polynomial]) -> bool:
    """Check Buchberger's criterion: every pairwise S-polynomial has
    remainder zero on division by the set."""
    polys = [g for g in polys if not g.is_zero()]
    if not polys:
        return False
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = s_polynomial(polys[i], polys[j])
            if s.is_zero():
                continue
            if not divide(s, polys).remainder.is_zero():
                return False
    return True


def is_reduced(polys: Sequence[Polynomial]) -> bool:
    """True when every element is monic and no monomial of any element is
    divisible by another element's leading monomial."""
    polys = list(polys)
    if not polys:
        return True
    for g in polys:
        if g.is_zero() or g.leading_coefficient() != 1:
            return False
    for i, g in enumerate(polys):
        other_lms = [h.leading_monomial()
                     for j, h in enumerate(polys) if j != i]
        for m, _ in g.terms:
            if any(mono_divides(lm, m) for lm in other_lms):
                return False
    return True


def reduced_groebner_basis(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """Convenience: Buchberger followed by interreduction."""
    return reduce_basis(buchberger(generators))
