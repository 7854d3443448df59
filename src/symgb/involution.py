"""Sign-reversing involutions certifying the alternating-sum identities
between elementary and homogeneous symmetric polynomials.

Two carrier families are supported, both consisting of signed pairs (A, B)
with sign (-1)^|A| and weight wt(A) * wt(B):

* family ``hkn`` (certifies sum_{i=0..k} (-1)^i e_{i,n} h_{k-i,n-k+1} = 0):
  A is a subset of {1..n}, B a multiset of cardinality k - |A| with
  elements in {1..n-k+1}.  The involution moves min(B) into A when
  min(B) < min(A), else moves min(A) into B (min of an empty collection
  counts as +infinity).

* family ``ekn`` (certifies sum_{i=0..k} (-1)^i h_{i,n-i+1} e_{k-i,n-i} = 0):
  A is a multiset with elements in {1..n-|A|+1}, B a subset of {1..n-|A|}
  of cardinality k - |A|.  Here the element ranges shrink as |A| grows, so
  the mirrored rule on maxima is the one that stays inside the carrier:
  move max(B) into A when max(B) >= max(A), else move max(A) into B.

Both carriers have sum_i C(n, i) C(n-i, k-i) = 2^k C(n, k) pairs, and
``refuse_carrier`` refuses one of more than ``MAX_CARRIER_PAIRS`` by that
count, before any pair is enumerated.

Each family is one ``Family`` entry of ``FAMILIES``, and every function here
works through that table on plain ``(a, b)`` tuples of sorted elements; the
certificate and the trace both stream the carrier through ``_iter_carrier``,
so neither starts on a carrier that ``refuse_carrier`` refuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, product
from math import comb
from operator import le, lt
from typing import Callable, Dict, Iterator, NamedTuple, Tuple

from .poly import Polynomial
from .symfunc import weight

Pair = Tuple[tuple, tuple]


class Family(NamedTuple):
    # (k, n) -> the carrier's (a, b) pairs in (|A|, A, B) lexicographic order
    carrier: Callable[[int, int], Iterator[Pair]]
    # (a, b) -> the involution's image of a nonempty carrier pair, unchecked
    step: Callable[[tuple, tuple], Pair]
    # (k, n, a, b) -> whether (a, b) is in the carrier
    member: Callable[[int, int, tuple, tuple], bool]
    # (k, n, cap) -> the carrier's size in closed form, or cap + 1 above cap
    size: Callable[[int, int, int], int]


def _pow2_binomial(k: int, n: int, cap: int) -> int:
    """2^k C(n, k), or cap + 1 when it is larger; cheap for any k and n,
    since C(n, k) >= 1 lets 2^k alone decide every k past cap's bits."""
    if not 0 <= k <= n:
        return 0
    if k >= cap.bit_length():
        return cap + 1
    return min(comb(n, k) << k, cap + 1)


def _hkn_carrier(k: int, n: int) -> Iterator[Pair]:
    b_pool = range(1, n - k + 2)
    return chain.from_iterable(
        product(combinations(range(1, n + 1), i),
                combinations_with_replacement(b_pool, k - i))
        for i in range(k + 1))


def _hkn_step(a: tuple, b: tuple) -> Pair:
    # the moved element is the least of its new home: it goes on the front
    if b and (not a or b[0] < a[0]):
        return b[:1] + a, b[1:]
    return a[1:], a[:1] + b


def _hkn_member(k: int, n: int, a: tuple, b: tuple) -> bool:
    # A: set in {1..n}; B: multiset in {1..n-k+1}
    i = len(a)
    return (i <= k and len(b) == k - i
            and all(map(lt, a, a[1:])) and all(map(le, b, b[1:]))
            and (not a or 1 <= a[0] and a[-1] <= n)
            and (not b or 1 <= b[0] and b[-1] <= n - k + 1))


def _ekn_carrier(k: int, n: int) -> Iterator[Pair]:
    return chain.from_iterable(
        product(combinations_with_replacement(range(1, n - i + 2), i),
                combinations(range(1, n - i + 1), k - i))
        for i in range(k + 1))


def _ekn_step(a: tuple, b: tuple) -> Pair:
    # the moved element is the greatest of its new home: it goes on the back
    if b and (not a or b[-1] >= a[-1]):
        return a + b[-1:], b[:-1]
    return a[:-1], b + a[-1:]


def _ekn_member(k: int, n: int, a: tuple, b: tuple) -> bool:
    # A: multiset in {1..n-i+1}; B: set in {1..n-i}
    i = len(a)
    return (i <= k and len(b) == k - i
            and all(map(le, a, a[1:])) and all(map(lt, b, b[1:]))
            and (not a or 1 <= a[0] and a[-1] <= n - i + 1)
            and (not b or 1 <= b[0] and b[-1] <= n - i))


FAMILIES: Dict[str, Family] = {
    "hkn": Family(_hkn_carrier, _hkn_step, _hkn_member, _pow2_binomial),
    "ekn": Family(_ekn_carrier, _ekn_step, _ekn_member, _pow2_binomial),
}


def _family(family: str) -> Family:
    spec = FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    return spec


# Limit of the pairs a certificate streams: the largest carrier under it,
# 860160 pairs at k=13, n=15, takes 4-5 s and 44 MB on a 2-vCPU Xeon.
MAX_CARRIER_PAIRS = 10**6


def carrier_size(family: str, k: int, n: int) -> int:
    """Pairs in the family's carrier, by the closed form of its ``FAMILIES``
    entry, counted without enumerating them; MAX_CARRIER_PAIRS + 1 stands
    for every count above the limit."""
    return _family(family).size(k, n, MAX_CARRIER_PAIRS)


def refuse_carrier(family: str, k: int, n: int) -> None:
    """Raise ValueError when the carrier has more than MAX_CARRIER_PAIRS
    pairs, before any pair is enumerated."""
    if carrier_size(family, k, n) > MAX_CARRIER_PAIRS:
        raise ValueError(f"the {family} carrier for k={k}, n={n} has more "
                         f"than the limit of {MAX_CARRIER_PAIRS} pairs")


def _format_pair(a: tuple, b: tuple) -> str:
    fmt = lambda xs: "{" + ",".join(map(str, xs)) + "}"
    return f"({fmt(a)}|{fmt(b)})"


def _iter_carrier(family: str, k: int, n: int) -> Iterator[Pair]:
    """Stream the carrier's (a, b) pairs in (|A|, A, B) order, after
    ``refuse_carrier`` has passed the carrier's closed-form size.  An empty
    carrier (k > n) is not enumerated: ``itertools.product`` would build
    every A side before it saw that the B side is empty."""
    spec = _family(family)
    if k < 1:
        raise ValueError("carrier requires k >= 1")
    refuse_carrier(family, k, n)
    return spec.carrier(k, n) if carrier_size(family, k, n) else iter(())


@dataclass(frozen=True)
class CertReport:
    family: str
    k: int
    n: int
    carrier_size: int
    carrier_closed: bool
    is_involution: bool
    sign_reversing: bool
    fixed_point_free: bool
    weight_sum_zero: bool

    @property
    def ok(self) -> bool:
        return (self.carrier_closed and self.is_involution
                and self.sign_reversing and self.fixed_point_free
                and self.weight_sum_zero)


def certify_involution(family: str, k: int, n: int) -> CertReport:
    """Stream the carrier, apply the involution to each pair, and check
    closure, involutivity, sign reversal, freeness from fixed points, and
    that the signed weights sum to the zero polynomial.  The enumerated pairs
    are trusted; each image gets one ``member`` test, so closure fails
    exactly where an image leaves the carrier, and the other flags are
    checked on the images that stay in it.

    The sign of (a, b) is read as the parity ``len(a) & 1`` and its weight
    as the sorted tuple of a + b; distinct sorted tuples are distinct
    monomials, so the weights sum to zero iff every signed count cancels."""
    pairs = _iter_carrier(family, k, n)
    spec = FAMILIES[family]
    step, member = spec.step, spec.member
    carrier_size = 0
    carrier_closed = True
    is_involution = True
    sign_reversing = True
    fixed_point_free = True
    weight_acc: dict = {}
    for p in pairs:
        carrier_size += 1
        a, b = p
        odd = len(a) & 1
        key = tuple(sorted(a + b))
        weight_acc[key] = weight_acc.get(key, 0) + (-1 if odd else 1)
        q = qa, qb = step(a, b)
        if not member(k, n, qa, qb):
            carrier_closed = False
            continue
        if q == p:
            fixed_point_free = False
        if len(qa) & 1 == odd:
            sign_reversing = False
        if step(qa, qb) != p:
            is_involution = False
    return CertReport(
        family=family, k=k, n=n,
        carrier_size=carrier_size,
        carrier_closed=carrier_closed,
        is_involution=is_involution,
        sign_reversing=sign_reversing,
        fixed_point_free=fixed_point_free,
        weight_sum_zero=not any(weight_acc.values()),
    )


def orbit_trace(family: str, k: int, n: int) -> Iterator[str]:
    """Trace lines "(A|B) <-> (A'|B') weight ±monomial", one per orbit, as
    the carrier streams.  The carrier runs in (|A|, A, B) order and the step
    changes |A| by one, so each orbit is met first at its pair with the
    smaller |A|, and the line is made there."""
    from .poly import format_polynomial

    pairs = _iter_carrier(family, k, n)
    step = FAMILIES[family].step
    arity = max(n, 1)
    for a, b in pairs:
        qa, qb = step(a, b)
        if len(a) < len(qa):
            sign = -1 if len(a) & 1 else 1
            wpoly = Polynomial(arity, [(weight(a + b, arity), sign)])
            yield (f"{_format_pair(a, b)} <-> {_format_pair(qa, qb)} "
                   f"weight {format_polynomial(wpoly)}")
