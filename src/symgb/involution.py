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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterator, List

from .poly import Polynomial
from .symfunc import weight

FAMILIES = ("hkn", "ekn")


@dataclass(frozen=True)
class SignedPair:
    family: str
    k: int
    n: int
    a: tuple
    b: tuple

    @property
    def sign(self) -> int:
        return -1 if len(self.a) % 2 else 1

    def weight_monomial(self) -> tuple:
        return weight(self.a + self.b, max(self.n, 1))

    def __str__(self) -> str:
        fmt = lambda xs: "{" + ",".join(map(str, xs)) + "}"
        return f"({fmt(self.a)}|{fmt(self.b)})"


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def in_carrier(p: SignedPair) -> bool:
    """Explicit membership test for the pair's carrier."""
    _check_family(p.family)
    k, n = p.k, p.n
    i = len(p.a)
    if i > k or len(p.b) != k - i:
        return False
    if p.family == "hkn":
        # A: set in {1..n}; B: multiset in {1..n-k+1}
        if len(set(p.a)) != i or p.a != tuple(sorted(p.a)):
            return False
        if any(not 1 <= x <= n for x in p.a):
            return False
        if p.b != tuple(sorted(p.b)):
            return False
        return all(1 <= x <= n - k + 1 for x in p.b)
    # ekn: A multiset in {1..n-i+1}; B set in {1..n-i}
    if p.a != tuple(sorted(p.a)):
        return False
    if any(not 1 <= x <= n - i + 1 for x in p.a):
        return False
    if len(set(p.b)) != len(p.b) or p.b != tuple(sorted(p.b)):
        return False
    return all(1 <= x <= n - i for x in p.b)


def enumerate_carrier(family: str, k: int, n: int) -> List[SignedPair]:
    """All carrier pairs, ordered lexicographically by (|A|, A, B)."""
    return list(_iter_carrier(family, k, n))


def _iter_carrier(family: str, k: int, n: int) -> Iterator[SignedPair]:
    """Stream the carrier pairs in ``enumerate_carrier`` order."""
    _check_family(family)
    if k < 1:
        raise ValueError("carrier requires k >= 1")
    for i in range(k + 1):
        if family == "hkn":
            a_choices = combinations(range(1, n + 1), i)
            b_pool = range(1, n - k + 2)
            for a in a_choices:
                for b in combinations_with_replacement(b_pool, k - i):
                    yield SignedPair(family, k, n, a, b)
        else:
            a_pool = range(1, n - i + 2)
            b_pool = range(1, n - i + 1)
            for a in combinations_with_replacement(a_pool, i):
                for b in combinations(b_pool, k - i):
                    yield SignedPair(family, k, n, a, b)


def _flip(p: SignedPair) -> SignedPair:
    """The involution step on a nonempty carrier pair, unchecked.  The moved
    element is the least of its new home (hkn) or the greatest (ekn), so it
    goes on the front or the back of the tuple."""
    a, b = p.a, p.b
    if p.family == "hkn":
        if b and (not a or b[0] < a[0]):
            a, b = b[:1] + a, b[1:]
        else:
            a, b = a[1:], a[:1] + b
    elif b and (not a or b[-1] >= a[-1]):
        a, b = a + b[-1:], b[:-1]
    else:
        a, b = a[:-1], b + a[-1:]
    return SignedPair(p.family, p.k, p.n, a, b)


def apply_f(p: SignedPair) -> SignedPair:
    """One application of the family's sign-reversing involution."""
    if not in_carrier(p):
        raise ValueError(f"{p} is not in the {p.family} carrier")
    if not p.a and not p.b:
        raise ValueError("involution undefined on the empty pair (k=0)")
    return _flip(p)


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
    are trusted; ``apply_f`` validates each image, so closure fails exactly
    where it rejects one, and the other flags are checked on the images
    that stay in the carrier."""
    carrier_size = 0
    carrier_closed = True
    is_involution = True
    sign_reversing = True
    fixed_point_free = True
    weight_acc: dict = {}
    for p in _iter_carrier(family, k, n):
        carrier_size += 1
        m = p.weight_monomial()
        weight_acc[m] = weight_acc.get(m, 0) + p.sign
        q = _flip(p)
        try:
            back = apply_f(q)
        except ValueError:
            carrier_closed = False
            continue
        if q == p:
            fixed_point_free = False
        if q.sign != -p.sign:
            sign_reversing = False
        if back != p:
            is_involution = False
    weight_sum = Polynomial(max(n, 1), weight_acc.items())
    return CertReport(
        family=family, k=k, n=n,
        carrier_size=carrier_size,
        carrier_closed=carrier_closed,
        is_involution=is_involution,
        sign_reversing=sign_reversing,
        fixed_point_free=fixed_point_free,
        weight_sum_zero=weight_sum.is_zero(),
    )


def orbit_trace(family: str, k: int, n: int) -> List[str]:
    """Trace lines "(A|B) <-> (A'|B') weight ±monomial", one per orbit."""
    from .poly import format_polynomial

    seen = set()
    lines = []
    for p in _iter_carrier(family, k, n):
        if p in seen:
            continue
        q = _flip(p)
        seen.add(p)
        seen.add(q)
        wpoly = Polynomial(max(n, 1), [(p.weight_monomial(), p.sign)])
        lines.append(f"{p} <-> {q} weight {format_polynomial(wpoly)}")
    return lines
