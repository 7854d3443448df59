"""Multivariate division, S-polynomials, Buchberger's algorithm and
interreduction to the unique reduced Groebner basis."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from itertools import count
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .poly import (
    ArityMismatchError,
    Polynomial,
    ZeroPolynomialError,
    _exact_div,
    _max_exponent,
    _packers,
    _product_sum,
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
    arity = f.arity
    for d in divisors:
        if d.arity != arity:
            raise ArityMismatchError(
                f"arity mismatch: {arity} vs {d.arity}")
        if d.is_zero():
            raise ZeroPolynomialError("zero divisor in division")
    packed = _Packed(arity, divisors, _max_exponent(f))
    # f times the lcm of its denominators is integral
    den = lcm(*[c.denominator for _, c in f.terms])
    seed = [(m, c.numerator * (den // c.denominator)) for m, c in f.terms]

    def step() -> tuple:
        pack = packed.pack
        quotients = [{} for _ in divisors]
        work = {pack(m): c for m, c in seed}
        return quotients, packed.reduce(work, den, packed.reducers, quotients)

    quotients, (remainder, scale) = packed.run(step)
    # reducer i is d_i / LC(f_i) times f_i, and a quotient term (q, s)
    # stands for q / s times reducer i
    unpack = packed.unpack
    return DivisionResult(
        quotients=tuple(
            Polynomial._trusted(arity, tuple(
                (unpack(t), _exact_div(q * d, s * g.leading_coefficient()))
                for t, (q, s) in qs.items()))
            for qs, (_, d, _, _), g in zip(quotients, packed.reducers, divisors)),
        remainder=packed.polynomial(remainder.items(), scale))


# -- the reduction kernel ----------------------------------------------------
#
# Monomials are packed as in products (``poly._packers``), with the top bit of
# each field kept clear as a guard bit: LM | m iff (m - LM) & guard == 0.  Lex
# reduction can raise exponents past any width (x2 - x1^100 turns x2^2 into
# x1^200), so a monomial entering the work that sets a guard bit raises
# _Overflow, and the caller re-packs one byte wider and redoes the reduction.
#
# Every coefficient in the kernel is an int.  A reducer is the primitive
# integer multiple of its polynomial, and the work is reduced fraction-free:
# where the top coefficient is not a multiple of the reducer's LC, the work
# is scaled up first, and the running scale says by how much.  The callers
# divide by the scale once, on output (Monagan and Pearce, "Sparse
# polynomial division using a heap", J. Symbolic Comput. 46, 2011).

class _Overflow(Exception):
    """A packed exponent reached the guard bit of its field."""


class _Packed:
    """Polynomials of one arity as the kernel's reducers: ``reducers[i]`` is
    (LM, d, tail, i) of the primitive integer multiple of polynomial i, with
    packed LM and tail monomials, int tail coefficients and LC d > 0."""

    def __init__(self, arity: int, polys: Iterable[Polynomial], top: int = 0):
        self.arity = arity
        polys = list(polys)
        # the fewest bytes that keep every exponent, and top, under the guard
        self.width = max([top, *map(_max_exponent, polys)]).bit_length() // 8
        self.reducers, self.unpack = [], None  # nothing to re-pack yet
        self.widen()
        pack = self.pack
        self.reducers = [self.reducer([(pack(m), c) for m, c in p.terms], i)
                         for i, p in enumerate(polys)]

    def widen(self) -> None:
        """Re-pack every reducer with fields one byte wider."""
        unpack = self.unpack
        self.width += 1
        self.pack, self.unpack = pack, _ = _packers(self.arity, self.width)
        self.guard = int.from_bytes(
            (bytes(self.width - 1) + b"\x80") * self.arity, "little")
        self.reducers = [
            (pack(unpack(lm)), d, tuple((pack(unpack(k)), c) for k, c in tail), i)
            for lm, d, tail, i in self.reducers]

    @staticmethod
    def reducer(terms: list, i: int) -> tuple:
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
        return self.polynomial(((lm, d), *tail), d)

    def run(self, step, *args):
        """step(*args), redone one byte wider for as long as it overflows."""
        while True:
            try:
                return step(*args)
            except _Overflow:
                self.widen()

    def polynomial(self, terms: Iterable[tuple], scale: int) -> Polynomial:
        """The polynomial of packed nonzero int terms in decreasing lex order,
        divided by ``scale``."""
        unpack = self.unpack
        if scale == 1:
            return Polynomial._trusted(self.arity, tuple(
                (unpack(k), c) for k, c in terms))
        return Polynomial._trusted(self.arity, tuple(
            (unpack(k), _exact_div(c, scale)) for k, c in terms))

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
    fc, fm = f.leading_term()
    gc, gm = g.leading_term()
    lcm = mono_lcm(fm, gm)
    arity = f.arity
    return _product_sum(arity, (
        (_exact_div(1, fc), Polynomial._trusted(arity, ((mono_div(lcm, fm), 1),)), f),
        (-_exact_div(1, gc), Polynomial._trusted(arity, ((mono_div(lcm, gm), 1),)), g)))


def normal_form(f: Polynomial,
                basis: Union[GroebnerBasis, Sequence[Polynomial]]) -> Polynomial:
    """Remainder of f on division by the basis; zero iff f is in the ideal
    when the basis is a Groebner basis."""
    elements = list(basis)
    if not elements:
        return f
    return divide(f, elements).remainder


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
    # every element that ever entered the basis, monic; its reducer is
    # packed once, on entry
    polys: list = []
    packed = _Packed(arity, (), max(map(_max_exponent, gens)))
    lms: list = []      # their leading monomials
    active: list = []   # indices into polys of the active basis, in order
    pairs: list = []    # heap of (lex_key(lcm), serial, lcm, i, j), i < j
    serial = count()

    def update(h: Polynomial, reducer: tuple) -> None:
        nonlocal active, pairs
        ih, mh = len(polys), h.leading_monomial()
        polys.append(h)
        packed.reducers.append(reducer)
        _, d, tail, _ = reducer
        stats.peak_coeff_bits = max(stats.peak_coeff_bits,
                                    max([d] + [abs(c) for _, c in tail]).bit_length())
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
            update(g, packed.reducer(
                [(packed.pack(m), c) for m, c in g.terms], len(polys)))

    def s_remainder(m: tuple, i: int, j: int) -> Optional[dict]:
        """The packed remainder of S(polys[i], polys[j]) on the active
        basis, or None when the S-polynomial is zero."""
        top, reducers = packed.pack(m), packed.reducers
        (li, di, ti, _), (lj, dj, tj, _) = reducers[i], reducers[j]
        # polys[i] is reducer i over di, so S times lcm(di, dj) is the
        # difference of the tails times lcm(di, dj) / di and / dj, shifted
        # to the lcm monomial; it is seeded straight into the work
        g = gcd(di, dj)
        ai, aj = dj // g, di // g
        work = {k + (top - li): ai * c for k, c in ti}
        get, shift = work.get, top - lj
        for k, c in tj:
            k += shift
            work[k] = get(k, 0) - aj * c
        if any(k & packed.guard for k in work):
            raise _Overflow
        if not any(work.values()):
            return None
        return packed.reduce(work, ai * di, [reducers[ig] for ig in active])[0]

    one = mono_one(arity)
    while pairs:
        _, _, m, i, j = heapq.heappop(pairs)
        r = packed.run(s_remainder, m, i, j)
        if r is None:
            continue
        stats.reductions += 1
        if not r:
            stats.zero_reductions += 1
            continue
        reducer = packed.reducer(list(r.items()), len(polys))
        h = packed.monic(reducer)
        update(h, reducer)
        if h.leading_monomial() == one:
            # unit ideal: no further pair can contribute anything new
            break
    return GroebnerBasis(arity, tuple(polys[ig] for ig in active), stats=stats)


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """Interreduce a Groebner basis to the unique reduced Groebner basis:
    minimal, monic, every element fully reduced against the others, sorted
    by decreasing leading monomial."""
    elements = [g for g in gb.elements if not g.is_zero()]
    if not elements:
        return GroebnerBasis(gb.arity, (), stats=gb.stats)

    # minimalize: drop g when some other kept element's LM divides LM(g)
    elements.sort(key=lambda g: lex_key(g.leading_monomial()))
    minimal: list = []
    for g in elements:
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)

    # interreduce in one pass: no LM divides another, so only the tails need
    # reducing, and a tail reduced against the others' LMs stays reduced
    # when they are reduced in turn
    packed = _Packed(gb.arity, minimal)

    def tail_remainder(i: int) -> tuple:
        reducers = packed.reducers
        _, d, tail, _ = reducers[i]
        return packed.reduce(dict(tail), d, reducers[:i] + reducers[i + 1:])

    for i in range(len(minimal)):
        tail, scale = packed.run(tail_remainder, i)
        reducer = packed.reducer([(packed.reducers[i][0], scale), *tail.items()], i)
        minimal[i], packed.reducers[i] = packed.monic(reducer), reducer

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
