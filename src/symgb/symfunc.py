"""Elementary, complete homogeneous and power-sum symmetric polynomials,
each built as the sum of wt(S) over the sets S that define it, plus the
defects (signed sums that vanish) of the identities that relate them and the
closed-form reduced Groebner bases they predict.

e, h and p are built packed (``Polynomial._from_keys``): wt(S) is the sum
of the packed variables in S, so each family is one enumeration of packed
monomials in decreasing order, and no exponent tuple is made."""

from __future__ import annotations

from itertools import chain, combinations, combinations_with_replacement
from math import comb
from typing import Callable, Iterable, NamedTuple, Optional

from .poly import Monomial, Polynomial, _check_arity, _field_width, _product_sum


# Limit of the builds `sym`, `gb` and `verify` run, in exponents stored
# (h_{10,10} stores 1847560; `sym`, which unpacks one term at a time to
# print it, peaks at 31 MB on it: ru_maxrss, Python 3.11).
MAX_SYM_EXPONENTS = 4 * 10**6


def _comb_capped(n: int, k: int, cap: int) -> int:
    """C(n, k) when it is at most cap, else cap + 1; cheap for any n, k,
    since C(n, k) >= 2^k for k <= n/2 lets k alone decide every k past
    cap's bits."""
    k = min(k, n - k)
    if k < 0:
        return 0
    if k >= cap.bit_length():
        return cap + 1
    return min(comb(n, k), cap + 1)


def _ambient(n: int, arity: Optional[int]) -> int:
    if arity is None:
        arity = max(n, 1)
    _check_arity(arity)
    if arity < n:
        raise ValueError(f"arity {arity} < variable count {n}")
    return arity


def _packed_sum(arity: int, n: int, top: int, keys) -> Polynomial:
    """The sum, each with coefficient 1, of the packed monomials that
    ``keys(xs)`` yields, for xs the packed variables x_n, x_{n-1}, ..., x_1
    in fields wide enough for ``top``, the largest exponent of the sum.

    ``keys`` must yield distinct monomials in decreasing order, as the sums
    of the combinations (with or without replacement) of xs come: the first
    place where two of them differ holds the larger variable of the one
    that comes first, and one more of that variable outweighs every smaller
    one, so the sums need no sort.  ``_ambient`` checked n against the
    arity, so the variables are not checked again here."""
    width = _field_width(top)
    xs = [1 << 8 * width * j for j in range(n - 1, -1, -1)]
    keys = tuple(keys(xs))
    return Polynomial._from_keys(arity, width, keys, (1,) * len(keys))


def elementary(k: int, n: int, arity: Optional[int] = None) -> Polynomial:
    """e_{k,n}: sum of wt(S) over all k-subsets S of {1..n}.

    Equals 0 when n < k and 1 when k = 0.  ``n <= 0`` is treated like an
    empty variable set, which keeps the identity checkers total.
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    return _packed_sum(_ambient(n, arity), n, min(k, 1),
                       lambda xs: map(sum, combinations(xs, k)))


def homogeneous(k: int, n: int, arity: Optional[int] = None) -> Polynomial:
    """h_{k,n}: sum of wt(S) over all k-multisets S with elements in {1..n}.

    Equals 1 when k = 0 and 0 when k > 0 with no variables (n <= 0).
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    return _packed_sum(_ambient(n, arity), n, k,
                       lambda xs: map(sum, combinations_with_replacement(xs, k)))


def powersum(k: int, n: int, arity: Optional[int] = None) -> Polynomial:
    """p_{k,n} = x_1^k + ... + x_n^k for k >= 1."""
    if k < 1:
        raise ValueError("power sums require k >= 1")
    return _packed_sum(_ambient(n, arity), n, k, lambda xs: [k * x for x in xs])


class SymKind(NamedTuple):
    build: Callable[..., Polynomial]  # (k, n, arity=None) -> the polynomial
    terms: Callable[[int, int, int], int]  # (k, n, cap) -> its terms, capped


# Each kind of symmetric polynomial, by the letter `sym --kind` takes.
SYM_KINDS = {
    "e": SymKind(elementary, lambda k, n, cap: _comb_capped(n, k, cap)),
    "h": SymKind(homogeneous, lambda k, n, cap: _comb_capped(n + k - 1, k, cap)),
    "p": SymKind(powersum, lambda k, n, cap: max(n, 0)),
}


def sym_build_size(kind: str, k: int, n: int) -> int:
    """Cost of building e_{k,n}, h_{k,n} or p_{k,n} in n variables, counted
    without building anything; MAX_SYM_EXPONENTS + 1 stands for every count
    above the limit.

    The result has C(n, k), C(n+k-1, k) or n terms of n exponents each, and
    each term is the weight of an enumerated k-tuple, so a term costs n + k:
    h_{k,1} = x1^k is one term but k steps.  0 for a negative k, which the
    builders reject; a kind outside ``SYM_KINDS`` raises KeyError."""
    terms = SYM_KINDS[kind].terms
    cap = MAX_SYM_EXPONENTS
    return 0 if k < 0 else min(terms(k, n, cap) * (n + k), cap + 1)


def weight(elements: Iterable[int], arity: int) -> Monomial:
    """Monomial whose exponent of x_s is the multiplicity of s."""
    exps = [0] * arity
    for s in elements:
        if not 1 <= s <= arity:
            raise ValueError(f"element {s} out of range 1..{arity}")
        exps[s - 1] += 1
    return tuple(exps)


# -- identity defects ---------------------------------------------------------
#
# Each identity is stated as the paper states it: a signed sum of products
# that vanishes.  The *_defect function returns that sum, computed by one
# _product_sum over the (sign, factor, factor) triples, so no product is
# built on its own; the identity holds iff its defect .is_zero().  k = 0
# degenerates (the alternating sums reduce to the constant 1) and is
# rejected.


def hkn_identity_defect(k: int, n: int) -> Polynomial:
    """sum_{i=0..k} (-1)^i e_{i,n} h_{k-i,n-k+1}."""
    if k < 1:
        raise ValueError("identity requires k >= 1")
    arity = max(n, 1)
    return _product_sum(arity, (
        ((-1) ** i, elementary(i, n, arity), homogeneous(k - i, n - k + 1, arity))
        for i in range(k + 1)))


def ekn_identity_defect(k: int, n: int) -> Polynomial:
    """sum_{i=0..k} (-1)^i h_{i,n-i+1} e_{k-i,n-i}.

    The i = 0 term is e_{k,n}: h_{0,n+1} = 1 would need n+1 variables.
    """
    if k < 1:
        raise ValueError("identity requires k >= 1")
    arity = max(n, 1)
    return _product_sum(arity, chain(
        [(1, elementary(k, n, arity), Polynomial.one(arity))],
        (((-1) ** i, homogeneous(i, n - i + 1, arity), elementary(k - i, n - i, arity))
         for i in range(1, k + 1))))


def telescope_defect(j: int, n: int) -> Polynomial:
    """sum_{l=0..j} x_{n-j+1}^l h_{j-l,n-j} - h_{j,n-j+1}."""
    if not 1 <= j <= n:
        raise ValueError("requires 1 <= j <= n")
    arity = max(n, 1)
    return _product_sum(arity, chain(
        ((1, Polynomial.from_monomial(weight((n - j + 1,) * ell, arity)),
          homogeneous(j - ell, n - j, arity)) for ell in range(j + 1)),
        [(-1, homogeneous(j, n - j + 1, arity), Polynomial.one(arity))]))


def newton_defect(k: int, n: int) -> Polynomial:
    """sum_{r=0..k-1} (-1)^r e_{r,n} p_{k-r,n} + (-1)^k k e_{k,n}."""
    if k < 1:
        raise ValueError("identity requires k >= 1")
    arity = max(n, 1)
    return _product_sum(arity, chain(
        (((-1) ** r, elementary(r, n, arity), powersum(k - r, n, arity))
         for r in range(k)),
        [((-1) ** k * k, elementary(k, n, arity), Polynomial.one(arity))]))


def check_e1ek_reduction(k: int, n: int) -> bool:
    """Verify e_{k,n} - e_{k,n-1} = x_n e_{k-1,n-1} and the generator
    identity e_{1,n-1} e_{k-1,n-1} - e_{k,n-1} = e_{1,n} e_{k-1,n-1} - e_{k,n}."""
    if not 1 <= k <= n:
        raise ValueError("requires 1 <= k <= n")
    arity = max(n, 1)
    one, ek1 = Polynomial.one(arity), elementary(k - 1, n - 1, arity)
    ekn, ekn1 = elementary(k, n, arity), elementary(k, n - 1, arity)
    step = [(1, ekn, one), (-1, ekn1, one), (-1, Polynomial.variable(n, arity), ek1)]
    generator = [(1, elementary(1, n - 1, arity), ek1), (-1, ekn1, one),
                 (-1, elementary(1, n, arity), ek1), (1, ekn, one)]
    return all(_product_sum(arity, parts).is_zero() for parts in (step, generator))


# -- closed-form reduced Groebner bases --------------------------------------

def conjectured_gb_ek(k: int, n: int) -> list:
    """{h_{i,n-i+1} : i = 1..k}, the closed-form reduced basis for the ideal
    generated by e_{1,n},...,e_{k,n}; sorted by decreasing leading monomial."""
    if not 1 <= k <= n:
        raise ValueError("requires 1 <= k <= n")
    return [homogeneous(i, n - i + 1, n) for i in range(1, k + 1)]


def conjectured_gb_e1ek(k: int, n: int) -> list:
    """{e_{1,n}, e_{1,n-1} e_{k-1,n-1} - e_{k,n-1}}, the closed-form reduced
    basis for the ideal generated by e_{1,n} and e_{k,n}."""
    if not 1 <= k <= n:
        raise ValueError("requires 1 <= k <= n")
    first = elementary(1, n, n)
    second = _product_sum(n, (
        (1, elementary(1, n - 1, n), elementary(k - 1, n - 1, n)),
        (-1, elementary(k, n - 1, n), Polynomial.one(n))))
    out = [first]
    if not second.is_zero():
        out.append(second.monic())
    return out
