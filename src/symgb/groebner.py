"""Multivariate division, S-polynomials, Buchberger's algorithm and
interreduction to the unique reduced Groebner basis."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from itertools import combinations, count
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .poly import (
    ArityMismatchError,
    Polynomial,
    ZeroPolynomialError,
    _exact_div,
    _guard,
    _packed_pairs,
    _packers,
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
    peak_coeff_bits: int = 0  # most bits in a coefficient of an element made primitive

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
    if any(d.is_zero() for d in divisors):
        raise ZeroPolynomialError("zero divisor in division")
    # f times the lcm of its denominators is integral
    den = lcm(*[c.denominator for c in f.coeffs])

    def step(packed: _Packed) -> DivisionResult:
        quotients = [{} for _ in divisors]
        remainder, scale = packed.reduce(
            {k: c.numerator * (den // c.denominator)
             for k, c in _packed_pairs(f, packed.width)},
            den, packed.reducers, quotients)
        # reducer i is d_i / LC(f_i) times f_i, and a quotient term (q, s)
        # stands for q / s times reducer i
        return DivisionResult(
            quotients=tuple(
                Polynomial._from_keys(f.arity, packed.width, qs, [
                    _exact_div(q * d, s * g.leading_coefficient())
                    for q, s in qs.values()])
                for qs, (_, d, _, _), g in zip(quotients, packed.reducers, divisors)),
            remainder=packed.polynomial(remainder, scale))

    return _run(f.arity, divisors, step, f.width)


# -- the reduction kernel ----------------------------------------------------
#
# Monomials are packed as in products (``poly._packers``), in fields as wide
# as ``poly._field_width`` makes them, whose top bits are kept clear as guard
# bits: LM | m iff (m - LM) & guard == 0, and LMs a, b are coprime iff
# lcm(a, b) == a + b (see ``_Packed.lcm``).  Lex reduction can raise
# exponents past any width (x2 - x1^100 turns x2^2 into x1^200), so a
# monomial entering the work that sets a guard bit raises _Overflow, and
# ``_run`` builds the whole run again, from its input polynomials, with
# fields one byte wider.  A run is deterministic and int order is lex order
# at any width, so a run redone makes the same pairs in the same order and
# ends with the same result and the same stats.  Every input enters with
# its own packed monomials (``poly._packed_pairs``), widened when another
# input, or an overflow, needs wider fields, and every output polynomial is
# built from the kernel's packed monomials, narrowed to its own width.
#
# Every coefficient in the kernel is an int.  A reducer is the primitive
# integer multiple of its polynomial, and the work is reduced fraction-free:
# where the top coefficient is not a multiple of the reducer's LC, the work
# is scaled up first, and the running scale says by how much.  The callers
# divide by the scale once, on output (Monagan and Pearce, "Sparse
# polynomial division using a heap", J. Symbolic Comput. 46, 2011).

class _Overflow(Exception):
    """A packed exponent reached the guard bit of its field."""


def _run(arity: int, polys: Sequence[Polynomial], step, width: int = 1):
    """step(packed) on ``polys`` packed as reducers in fields as wide as the
    widest of them, and at least ``width`` bytes; when the step overflows,
    it is run again on ``polys`` packed one byte wider."""
    for p in polys:  # packing does not see the arity
        if p.arity != arity:
            raise ArityMismatchError(f"arity mismatch: {arity} vs {p.arity}")
    width = max([width, *[p.width for p in polys]])
    while True:
        try:
            return step(_Packed(arity, polys, width))
        except _Overflow:
            width += 1


class _Packed:
    """Polynomials of one arity as the kernel's reducers, in fields of
    ``width`` bytes: ``reducers[i]`` is (LM, d, tail, i) of the primitive
    integer multiple of polynomial i, with packed LM and tail monomials, int
    tail coefficients and LC d > 0."""

    def __init__(self, arity: int, polys: Iterable[Polynomial], width: int):
        self.arity, self.width = arity, width
        self.pack, self.unpack = _packers(arity, width)
        self.guard = _guard(arity, width)
        self.reducers = [self.reducer(_packed_pairs(p, width), i)
                         for i, p in enumerate(polys)]

    def lcm(self, a: int, b: int) -> int:
        """lcm of the packed monomials a and b: the larger of each two fields."""
        guard = self.guard
        ge = ((a | guard) - b) & guard  # the guard bit of each field where a >= b
        low = ge - (ge >> (8 * self.width - 1))  # and all the bits below it
        return b ^ ((a ^ b) & low)

    @staticmethod
    def reducer(terms: Sequence[tuple], i: int) -> tuple:
        """Reducer i, of the packed nonzero terms in decreasing lex order."""
        den = lcm(*[c.denominator for _, c in terms])
        if den != 1:
            terms = [(k, c.numerator * (den // c.denominator)) for k, c in terms]
        g = gcd(*[c for _, c in terms])
        if terms[0][1] < 0:
            g = -g
        if g != 1:
            terms = [(k, c // g) for k, c in terms]
        (lm, d), *tail = terms
        return lm, d, tuple(tail), i

    def monic(self, reducer: tuple) -> Polynomial:
        """The monic polynomial of a reducer."""
        lm, d, tail, _ = reducer
        return self.polynomial(dict(((lm, d), *tail)), d)

    def polynomial(self, terms: dict, scale: int) -> Polynomial:
        """The polynomial of packed nonzero int terms (monomial ->
        coefficient) in decreasing lex order, divided by ``scale``."""
        coeffs = terms.values()
        if scale != 1:
            coeffs = [_exact_div(c, scale) for c in coeffs]
        return Polynomial._from_keys(self.arity, self.width, terms, coeffs)

    def s_remainder(self, i: int, j: int, basis: Sequence[int]) -> Optional[tuple]:
        """:meth:`reduce`'s (remainder, scale) of the S-polynomial of reducers
        i and j by the reducers at ``basis``, or None when it is zero."""
        (li, di, ti, _), (lj, dj, tj, _) = self.reducers[i], self.reducers[j]
        top = self.lcm(li, lj)
        # polynomial i is reducer i over di, so S times L = lcm(di, dj) is the
        # tails times L / di and L / dj, shifted to the lcm, seeded as the work
        g = gcd(di, dj)
        ai, aj = dj // g, di // g
        work = {k + (top - li): ai * c for k, c in ti}
        get, shift = work.get, top - lj
        for k, c in tj:
            k += shift
            work[k] = get(k, 0) - aj * c
        if any(k & self.guard for k in work):
            raise _Overflow
        if not any(work.values()):
            return None
        return self.reduce(work, ai * di, [self.reducers[b] for b in basis])

    def reduce(self, work: dict, scale: int, reducers: Sequence[tuple],
               quotients: Optional[list] = None) -> tuple:
        """Reduce work / scale, for the packed int ``work`` (consumed), by
        the first reducer whose LM divides.  Return (remainder, scale): the
        remainder's nonzero int terms in decreasing lex order, and the scale
        they are to be divided by.  With ``quotients``, each term of reducer
        i's quotient goes to quotients[i] as (q, s), standing for q / s."""
        guard = self.guard
        get, heappush, heappop = work.get, heapq.heappush, heapq.heappop
        # a max-heap of the monomials that entered the work, each pushed once;
        # one whose coefficient cancelled since is skipped when it pops
        heap = [-k for k in work]
        heapq.heapify(heap)
        remainder = {}
        while heap:
            k = -heappop(heap)
            c = work.pop(k)
            if not c:
                continue
            for lm, d, tail, i in reducers:
                t = k - lm
                if not t & guard:
                    break
            else:
                remainder[k] = c
                continue
            if d != 1:
                # scale everything by m = d / gcd(c, d), so that d divides c m
                g = gcd(c, d)
                if g != d:
                    m = d // g
                    scale *= m
                    for key in work:
                        work[key] *= m
                    for key in remainder:
                        remainder[key] *= m
                c //= g
            if quotients is not None:
                quotients[i][t] = c, scale
            # the leading terms cancel; fold in the reducer's tail times -c
            c = -c
            for dk, dc in tail:
                dk += t
                nc = get(dk)
                if nc is None:
                    if dk & guard:
                        raise _Overflow
                    work[dk] = c * dc
                    heappush(heap, -dk)
                else:
                    work[dk] = nc + c * dc
        return remainder, scale


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g for the lcm of the leading monomials."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("s_polynomial of a zero polynomial")

    def step(packed: _Packed) -> Polynomial:
        r, scale = packed.s_remainder(0, 1, ()) or ({}, 1)
        return packed.polynomial(r, scale)

    return _run(f.arity, (f, g), step)


def normal_form(f: Polynomial, basis: Iterable[Polynomial]) -> Polynomial:
    """Remainder of f on division by the basis; zero iff f is in the ideal
    when the basis is a Groebner basis."""
    return divide(f, list(basis)).remainder


def buchberger(generators: Iterable[Polynomial],
               product_criterion: bool = True) -> GroebnerBasis:
    """Buchberger's algorithm with the Gebauer-Moller pair update and
    degree-first pair selection, on packed leading monomials.

    Each generator is reduced by the basis before it enters: one that
    reduces to zero is dropped.  A constant that enters, generator or
    remainder, ends the run as the unit ideal.  Adding a polynomial h to the
    basis runs the Gebauer-Moller UPDATE (Becker & Weispfenning, *Groebner
    Bases*, 1993, p. 230):

    - a new pair (g, h) is dropped when LM(g) and LM(h) are coprime (the
      product criterion), or when the lcm of another new pair divides its
      lcm (the chain criterion);
    - a queued pair (g1, g2) is dropped when LM(h) divides lcm(g1, g2) and
      both lcm(g1, h) and lcm(g2, h) differ from it (the chain criterion);
    - g leaves the active basis when LM(h) divides LM(g); its queued pairs
      stay.

    S-polynomials are reduced by the active basis only, which is returned.
    The pair of least total degree of the lcm, then least lex lcm, goes
    first (the sugar strategy for homogeneous input: Giovini, Mora, Niesi,
    Robbiano, Traverso, ISSAC 1991); ties go to the pair formed first.

    With ``product_criterion=False`` the generators enter unreduced, every
    pair is formed and processed, also after a constant enters, and no
    element leaves the basis: the plain algorithm, the reference the fast
    path is tested against.  The basis carries a :class:`GroebnerStats` of
    the run, whose ``reductions`` counts S-polynomials only.  Raises
    :class:`ZeroIdealError` when no nonzero generator remains.
    """
    return _buchberger(generators, product_criterion, lambda packed, active: tuple(
        packed.monic(packed.reducers[i]) for i in active))


def _buchberger(generators: Iterable[Polynomial], product_criterion: bool,
                finish) -> GroebnerBasis:
    """The basis finish(packed, active) of a :func:`buchberger` run, with its
    stats: the reducers of ``packed`` are the generators and then every
    element that entered the basis; ``active`` indexes the basis."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ZeroIdealError("all generators are zero")

    def step(packed: _Packed) -> GroebnerBasis:
        stats = GroebnerStats()
        reducers, lcm, guard = packed.reducers, packed.lcm, packed.guard
        pairs: list = []  # heap of (degree of lcm, packed lcm, serial, i, j), i < j
        serial = count()
        active: list = []  # indices into reducers of the active basis, in order

        # add the nonzero packed remainder r to the basis; False ends the
        # run: on the fast path, a constant is the unit ideal
        def enter(r: dict) -> bool:
            ih = len(reducers)
            lh, d, tail, _ = reducer = packed.reducer(list(r.items()), ih)
            reducers.append(reducer)
            bits = max([d] + [abs(c) for _, c in tail]).bit_length()
            stats.peak_coeff_bits = max(stats.peak_coeff_bits, bits)
            new = [(lcm(reducers[ig][0], lh), ig) for ig in active]
            stats.pairs += len(new)
            if product_criterion:
                kept = []  # (lcm, index, coprime), the set D of the update
                for pos, (m, ig) in enumerate(new):
                    coprime = m == reducers[ig][0] + lh
                    if coprime or not (
                            any(not (m - m2) & guard for m2, _ in new[pos + 1:])
                            or any(not (m - m2) & guard for m2, _, _ in kept)):
                        kept.append((m, ig, coprime))
                stats.product_skipped += sum(c for _, _, c in kept)
                stats.chain_skipped += len(new) - len(kept)
                new = [(m, ig) for m, ig, coprime in kept if not coprime]
                queued = len(pairs)
                pairs[:] = [p for p in pairs if (p[1] - lh) & guard
                            or lcm(reducers[p[3]][0], lh) == p[1]
                            or lcm(reducers[p[4]][0], lh) == p[1]]
                stats.chain_skipped += queued - len(pairs)
                heapq.heapify(pairs)
                active[:] = [ig for ig in active if (reducers[ig][0] - lh) & guard]
            for m, ig in new:
                heapq.heappush(pairs, (sum(packed.unpack(m)), m, next(serial), ig, ih))
            active.append(ih)
            stats.peak_basis = max(stats.peak_basis, len(active))
            return bool(lh) or not product_criterion

        for lm, d, tail, _ in reducers[:len(gens)]:
            r = {lm: d, **dict(tail)}  # on the fast path, reduced by the basis
            if product_criterion:
                r = packed.reduce(r, 1, [reducers[ig] for ig in active])[0]
            if r and not enter(r):
                break
        else:  # the run goes on: work through the pairs
            while pairs:
                *_, i, j = heapq.heappop(pairs)
                if (s := packed.s_remainder(i, j, active)) is None:
                    continue
                r = s[0]
                stats.reductions += 1
                stats.zero_reductions += not r
                if r and not enter(r):
                    break
        return GroebnerBasis(packed.arity, finish(packed, active), stats=stats)

    return _run(gens[0].arity, gens, step)


def _interreduce(packed: _Packed, indices: Iterable[int]) -> tuple:
    """The reduced Groebner basis, sorted by decreasing leading monomial, of
    the Groebner basis formed by the reducers of ``packed`` at ``indices``;
    each reducer kept is replaced by its reduced one in place."""
    reducers, guard = packed.reducers, packed.guard
    # minimalize: drop an element when a kept one's LM divides its LM
    minimal: list = []
    for i in sorted(indices, key=lambda i: reducers[i][0]):
        if all((reducers[i][0] - reducers[j][0]) & guard for j in minimal):
            minimal.append(i)
    # no LM divides another, so only the tails need reducing; an LM that
    # divides a tail monomial m of g is at most m < LM(g), so the tail of g
    # is reduced by the elements with smaller LMs alone, reduced before it
    for pos, i in enumerate(minimal):
        lm, d, tail, _ = reducers[i]
        tail, scale = packed.reduce(dict(tail), d, [reducers[j] for j in minimal[:pos]])
        reducers[i] = packed.reducer([(lm, scale), *tail.items()], i)
    return tuple(packed.monic(reducers[i]) for i in reversed(minimal))


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """Interreduce a Groebner basis to the unique reduced Groebner basis:
    minimal, monic, every element fully reduced against the others, sorted
    by decreasing leading monomial."""
    elements = [g for g in gb.elements if not g.is_zero()]
    return _run(gb.arity, elements, lambda packed: GroebnerBasis(
        gb.arity, _interreduce(packed, range(len(elements))), stats=gb.stats))


def is_groebner_basis(polys: Sequence[Polynomial]) -> bool:
    """Check Buchberger's criterion: every pairwise S-polynomial has remainder
    zero on division by the set; a pair of coprime leading monomials has,
    and is skipped (Buchberger's first criterion)."""
    polys = [g for g in polys if not g.is_zero()]
    if not polys:
        return False
    every = range(len(polys))

    def step(packed: _Packed) -> bool:
        lms = [lm for lm, _, _, _ in packed.reducers]
        return all(packed.lcm(lms[i], lms[j]) == lms[i] + lms[j]
                   or not (s := packed.s_remainder(i, j, every)) or not s[0]
                   for i, j in combinations(every, 2))

    return _run(polys[0].arity, polys, step)


def is_reduced(polys: Sequence[Polynomial]) -> bool:
    """True when every element is monic and no monomial of any element is
    divisible by another element's leading monomial."""
    polys = list(polys)
    if any(g.is_zero() or g.leading_coefficient() != 1 for g in polys):
        return False
    if not polys:
        return True

    def step(packed: _Packed) -> bool:
        reducers, guard = packed.reducers, packed.guard
        lms = [lm for lm, _, _, _ in reducers]
        return not any(not (m - lm) & guard
                       for i, (lead, _, tail, _) in enumerate(reducers)
                       for m in (lead, *(k for k, _ in tail))
                       for j, lm in enumerate(lms) if j != i)

    return _run(polys[0].arity, polys, step)


def reduced_groebner_basis(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """The reduced Groebner basis of the ideal: :func:`buchberger`, then the
    interreduction of :func:`reduce_basis` on its packed reducers, in one
    packed run."""
    return _buchberger(generators, True, _interreduce)
