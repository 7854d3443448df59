"""Multivariate division, S-polynomials, Buchberger's algorithm and
interreduction to the unique reduced Groebner basis."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from itertools import count
from operator import add, le, neg, sub
from typing import Iterable, Optional, Sequence, Union

from .poly import (
    ArityMismatchError,
    Polynomial,
    ZeroPolynomialError,
    _coefficient,
    _exact_div,
    lex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
)


class ZeroIdealError(ValueError):
    """Raised when a Groebner basis of the zero ideal is requested."""


@dataclass(frozen=True)
class DivisionResult:
    """Quotients aligned with the divisor list, plus the remainder."""

    quotients: tuple
    remainder: Polynomial


@dataclass
class GroebnerStats:
    """What one :func:`buchberger` run did."""

    pairs: int = 0            # critical pairs formed
    product_skipped: int = 0  # new pairs with coprime leading monomials
    chain_skipped: int = 0    # new and queued pairs dropped by the chain criterion
    reductions: int = 0       # S-polynomials divided by the active basis
    zero_reductions: int = 0  # of those, the ones with remainder zero
    peak_basis: int = 0       # largest size of the active basis

    def record(self) -> str:
        return " ".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))


@dataclass(frozen=True)
class GroebnerBasis:
    arity: int
    elements: tuple
    # how the basis was computed; not part of its value
    stats: Optional[GroebnerStats] = field(default=None, compare=False)

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

    work = dict(f.terms)
    # min-heap over negated reversed exponent tuples pops the lex-largest
    # monomial first; `queued` prevents duplicate heap entries.
    heap = [(tuple(map(neg, m[::-1])), m) for m in work]
    heapq.heapify(heap)
    queued = set(work)
    quotients = [dict() for _ in divisors]
    remainder = {}

    # every divisor has f's arity, so the monomial loops below skip the
    # per-call arity checks of the public mono_* functions
    while heap:
        _, m = heapq.heappop(heap)
        queued.discard(m)
        c = work.pop(m, None)
        if c is None:
            continue
        for qi, (lm, lc, d) in enumerate(leads):
            if all(map(le, lm, m)):
                t = tuple(map(sub, m, lm))
                tc = c if lc == 1 else _exact_div(c, lc)
                quotients[qi][t] = tc
                # leading terms cancel; fold in the divisor's tail
                for dm, dc in d.terms[1:]:
                    mm = tuple(map(add, t, dm))
                    nc = work.get(mm, 0) - tc * dc
                    if nc:
                        work[mm] = nc
                        if mm not in queued:
                            heapq.heappush(heap, (tuple(map(neg, mm[::-1])), mm))
                            queued.add(mm)
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    # monomials leave the heap in strictly decreasing lex order, and so do
    # the quotient monomials m / LM(f_i) of each divisor: both are canonical
    # once their coefficients are
    return DivisionResult(
        quotients=tuple(_canonical(arity, q) for q in quotients),
        remainder=_canonical(arity, remainder),
    )


def _canonical(arity: int, decreasing: dict) -> Polynomial:
    """The polynomial of a dict of nonzero terms in decreasing lex order."""
    return Polynomial._trusted(arity, tuple(
        (m, _coefficient(c)) for m, c in decreasing.items()))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g for the lcm of the leading monomials."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("s_polynomial of a zero polynomial")
    fc, fm = f.leading_term()
    gc, gm = g.leading_term()
    lcm = mono_lcm(fm, gm)
    left = f.mul_term(mono_div(lcm, fm), _exact_div(1, fc))
    right = g.mul_term(mono_div(lcm, gm), _exact_div(1, gc))
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
    """Buchberger's algorithm with the Gebauer-Moller pair update and the
    normal selection strategy.

    Adding a polynomial h to the basis runs the Gebauer-Moller UPDATE
    (Becker & Weispfenning, *Groebner Bases*, 1993, p. 230):

    - a new pair (g, h) is dropped when LM(g) and LM(h) are coprime (the
      product criterion), or when the lcm of another new pair divides its
      lcm (the chain criterion);
    - a queued pair (g1, g2) is dropped when LM(h) divides lcm(g1, g2) and
      both lcm(g1, h) and lcm(g2, h) differ from it (the chain criterion);
    - g leaves the active basis when LM(h) divides LM(g); its queued pairs
      stay.

    S-polynomials are reduced by the active basis only, which is returned.
    Pairs are selected by least lex lcm first; ties go to the pair formed
    first, so every run of the same input does the same work.

    With ``product_criterion=False`` every pair is formed and processed and
    no element leaves the basis: the plain algorithm, kept as the reference
    the fast path is tested against.  The returned basis carries a
    :class:`GroebnerStats` of the run.  Raises :class:`ZeroIdealError` when
    no nonzero generator remains.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ZeroIdealError("all generators are zero")
    arity = gens[0].arity

    stats = GroebnerStats()
    polys: list = []    # every element that ever entered the basis
    lms: list = []      # their leading monomials
    active: list = []   # indices into polys of the active basis, in order
    pairs: list = []    # heap of (lex_key(lcm), serial, lcm, i, j), i < j
    serial = count()

    def update(h: Polynomial) -> None:
        nonlocal active, pairs
        ih, mh = len(polys), h.leading_monomial()
        polys.append(h)
        lms.append(mh)
        new = [(mono_lcm(lms[ig], mh), ig) for ig in active]
        stats.pairs += len(new)
        if product_criterion:
            kept = []  # (lcm, index, coprime), the set D of the update
            for pos, (m, ig) in enumerate(new):
                coprime = m == mono_mul(lms[ig], mh)
                if coprime or not (
                        any(mono_divides(m2, m) for m2, _ in new[pos + 1:])
                        or any(mono_divides(m2, m) for m2, _, _ in kept)):
                    kept.append((m, ig, coprime))
            stats.product_skipped += sum(c for _, _, c in kept)
            stats.chain_skipped += len(new) - len(kept)
            new = [(m, ig) for m, ig, coprime in kept if not coprime]
            queued = len(pairs)
            pairs = [p for p in pairs
                     if not mono_divides(mh, p[2])
                     or mono_lcm(lms[p[3]], mh) == p[2]
                     or mono_lcm(lms[p[4]], mh) == p[2]]
            stats.chain_skipped += queued - len(pairs)
            heapq.heapify(pairs)
            active = [ig for ig in active if not mono_divides(mh, lms[ig])]
        for m, ig in new:
            heapq.heappush(pairs, (lex_key(m), next(serial), m, ig, ih))
        active.append(ih)
        stats.peak_basis = max(stats.peak_basis, len(active))

    for g in gens:
        g = g.monic()
        if g not in polys:
            update(g)

    one = mono_one(arity)
    while pairs:
        _, _, _, i, j = heapq.heappop(pairs)
        s = s_polynomial(polys[i], polys[j])
        if s.is_zero():
            continue
        stats.reductions += 1
        r = divide(s, [polys[ig] for ig in active]).remainder
        if r.is_zero():
            stats.zero_reductions += 1
            continue
        r = r.monic()
        update(r)
        if r.leading_monomial() == one:
            # unit ideal: no further pair can contribute anything new
            break
    return GroebnerBasis(arity, tuple(polys[ig] for ig in active), stats=stats)


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """Interreduce a Groebner basis to the unique reduced Groebner basis:
    minimal, monic, every element fully reduced against the others, sorted
    by decreasing leading monomial."""
    elements = [g.monic() for g in gb.elements if not g.is_zero()]
    if not elements:
        return GroebnerBasis(gb.arity, (), stats=gb.stats)

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
    return GroebnerBasis(gb.arity, tuple(minimal), stats=gb.stats)


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
