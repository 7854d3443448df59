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
works through that table on plain ``(a, b)`` tuples of sorted elements.  Its
carrier is k + 1 layers, one per |A| = i: a pair (A_i, B_i) of pools of sorted
tuples, whose pairs are ``product(A_i, B_i)``.  A pair (a, b) is in the
carrier iff a is in A_j and b in B_j for j = |a| <= k, so the pools alone
define the carrier.  The certificate and the trace both get the layers and
the step from ``_layers``, which counts the carrier once, so neither starts
on one that ``refuse_carrier`` refuses; both stream each layer's pairs.

The certificate follows Zeilberger's proof of Newton's identities (D.
Zeilberger, "A combinatorial proof of Newton's identities", Discrete Math.
49, 1984): the signed weights cancel because the involution pairs each pair
with one of the other sign and the same weight.  It checks five laws on each
stepped pair: its image is in the carrier, steps back to it, has the other
sign, is not the pair itself, and has its weight, the monomial of the
k-multiset a + b, compared by an int key that adds under multiset union
(``_power_sums``).  It steps only the positive pairs, those of even |A|, when
it can: if the laws hold on them and the carrier holds as many distinct
negative pairs as positive ones, the images are every negative pair, so the
laws hold on the whole carrier.  The weights cancel pair by pair then, and
are counted only when a law fails or a pool repeats a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, product, repeat
from math import comb
from operator import add, and_, itemgetter, lshift, mul, sub
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .poly import Polynomial, format_polynomial
from .symfunc import weight

Pair = Tuple[tuple, tuple]
# (A_i, B_i): the pools of sorted tuples whose product is the pairs with |A| = i
Layer = Tuple[Tuple[tuple, ...], Tuple[tuple, ...]]


class Family(NamedTuple):
    # (k, n) -> the carrier's k + 1 layers, in (|A|, A, B) lexicographic order
    carrier: Callable[[int, int], List[Layer]]
    # (a, b) -> the involution's image of a nonempty carrier pair, unchecked
    step: Callable[[tuple, tuple], Pair]
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


def _pool(built: dict, multiset: bool, top: int, size: int) -> Tuple[tuple, ...]:
    """The sorted tuples of ``size`` elements of {1..top}, repeated or not as
    ``multiset`` says, built once per carrier in ``built``: sets and
    multisets of at most one element are the same tuples, so at k = 1 the
    A pool of one layer is the B pool of the other."""
    key = (multiset and size > 1, top, size)
    pool = built.get(key)
    if pool is None:
        pick = combinations_with_replacement if multiset else combinations
        pool = built[key] = tuple(pick(range(1, top + 1), size))
    return pool


def _hkn_carrier(k: int, n: int) -> List[Layer]:
    # A: set in {1..n}; B: multiset in {1..n-k+1}
    built: dict = {}
    return [(_pool(built, False, n, i), _pool(built, True, n - k + 1, k - i))
            for i in range(k + 1)]


def _hkn_step(a: tuple, b: tuple) -> Pair:
    # the moved element is the least of its new home: it goes on the front
    if b and (not a or b[0] < a[0]):
        return b[:1] + a, b[1:]
    return a[1:], a[:1] + b


def _ekn_carrier(k: int, n: int) -> List[Layer]:
    # A: multiset in {1..n-i+1}; B: set in {1..n-i}
    built: dict = {}
    return [(_pool(built, True, n - i + 1, i), _pool(built, False, n - i, k - i))
            for i in range(k + 1)]


def _ekn_step(a: tuple, b: tuple) -> Pair:
    # the moved element is the greatest of its new home: it goes on the back
    if b and (not a or b[-1] >= a[-1]):
        return a + b[-1:], b[:-1]
    return a[:-1], b + a[-1:]


FAMILIES: Dict[str, Family] = {
    "hkn": Family(_hkn_carrier, _hkn_step, _pow2_binomial),
    "ekn": Family(_ekn_carrier, _ekn_step, _pow2_binomial),
}


def _family(family: str) -> Family:
    spec = FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    return spec


# Limit of the pairs a certificate steps: the largest carrier under it,
# 860160 pairs at k=13, n=15, takes 0.45-0.75 s and 24 MB on a 2-vCPU Xeon,
# and the widest, 10^6 pairs at k=1, n=500000, 0.55-0.8 s and 116 MB.
MAX_CARRIER_PAIRS = 10**6


def carrier_size(family: str, k: int, n: int) -> int:
    """Pairs in the family's carrier, by the closed form of its ``FAMILIES``
    entry, counted without enumerating them; MAX_CARRIER_PAIRS + 1 stands
    for every count above the limit."""
    return _family(family).size(k, n, MAX_CARRIER_PAIRS)


def refuse_carrier(family: str, k: int, n: int) -> int:
    """The carrier's size by ``carrier_size``; raise ValueError when it has
    more than MAX_CARRIER_PAIRS pairs, before any pair is enumerated."""
    if (size := carrier_size(family, k, n)) > MAX_CARRIER_PAIRS:
        raise ValueError(f"the {family} carrier for k={k}, n={n} has more "
                         f"than the limit of {MAX_CARRIER_PAIRS} pairs")
    return size


def _format_pair(a: tuple, b: tuple) -> str:
    fmt = lambda xs: "{" + ",".join(map(str, xs)) + "}"
    return f"({fmt(a)}|{fmt(b)})"


def _layers(family: str, k: int, n: int) -> Tuple[List[Layer], Callable]:
    """The carrier's layers, once ``refuse_carrier`` has passed its
    closed-form size, and the family's step.  An empty carrier (k > n) has
    no layers and builds no pools: its A pools alone would hold 2^n tuples."""
    spec = _family(family)
    if k < 1:
        raise ValueError("carrier requires k >= 1")
    return spec.carrier(k, n) if refuse_carrier(family, k, n) else [], spec.step


def _power_sums(k: int, n: int) -> List[int]:
    """phi[e] for e in 0..n: the power sums (e, e^2, ..., e^k) packed into
    fields of (k n^j).bit_length() bits, e^j in the j-th from the bottom.
    A k-multiset of {1..n} sums each power to at most k n^j, so the phi of
    its elements add without a carry, and their sum, its key, holds its
    first k power sums, which fix it (Newton's identities)."""
    phi = powers = list(range(n + 1))
    offset = 0
    for j in range(2, k + 1):
        offset += (k * n ** (j - 1)).bit_length()
        powers = list(map(mul, powers, range(n + 1)))
        phi = list(map(add, phi, map(lshift, powers, repeat(offset))))
    return phi


def _pool_keys(phi: List[int], pool: Sequence[tuple]) -> List[int]:
    """The key of each tuple of a pool of equal-length tuples: the sum of
    the phi of its elements, one position at a time.  The first position's
    keys are phi's own ints, so a pool of singletons makes no new ones."""
    size = len(pool[0]) if pool else 0
    if not size:
        return [0] * len(pool)
    keys = list(map(phi.__getitem__, map(itemgetter(0), pool)))
    for i in range(1, size):
        keys = list(map(add, keys, map(phi.__getitem__, map(itemgetter(i), pool))))
    return keys


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
    weight_preserving: bool
    weight_sum_zero: bool

    # the checks, in the order `symgb involution` prints them
    FLAGS = ("carrier_closed", "is_involution", "sign_reversing",
             "fixed_point_free", "weight_preserving", "weight_sum_zero")

    @property
    def ok(self) -> bool:
        return all(getattr(self, name) for name in self.FLAGS)


def _laws(layers: List[Layer], step: Callable, parity: int,
          a_keys: List[dict], b_keys: List[dict]) -> List[bool]:
    """Step each pair of the layers whose |A| has the given parity, and
    return [carrier_closed, is_involution, sign_reversing, fixed_point_free,
    weight_preserving] over those pairs.  Each image gets one pool lookup
    per side, which gives both its membership and its key, so closure
    fails exactly where an image leaves the carrier, and the other flags
    are checked on the images that stay in it."""
    k = len(layers) - 1
    carrier_closed = is_involution = sign_reversing = True
    fixed_point_free = weight_preserving = True
    for i in range(parity, k + 1, 2):
        a_key, b_key = a_keys[i], b_keys[i]
        for p in product(*layers[i]):
            a, b = p
            q = qa, qb = step(a, b)
            j = len(qa)
            try:
                image_key = a_keys[j][qa] + b_keys[j][qb]
            except (IndexError, KeyError):  # |qa| > k, or a side in no pool
                carrier_closed = False
                continue
            if image_key != a_key[a] + b_key[b]:
                weight_preserving = False
            if j & 1 == parity:
                # a fixed point keeps |A|: it is one of these
                sign_reversing = False
                if q == p:
                    fixed_point_free = False
            if step(qa, qb) != p:
                is_involution = False
    return [carrier_closed, is_involution, sign_reversing, fixed_point_free,
            weight_preserving]


def _weights_cancel(layers: List[Layer], keys: dict) -> bool:
    """Whether the signed weights of every pair, repeats included, sum to
    zero: each pair's key(a) + key(b) is counted +1 for even |A| and -1 for
    odd, a layer a row at a time along its longer pool, in one dict update
    per row, since the keys of a row are distinct."""
    weights: dict = {}
    get = weights.get
    for i, (a_pool, b_pool) in enumerate(layers):
        count = sub if i & 1 else add
        longer, shorter = ((a_pool, b_pool) if len(a_pool) >= len(b_pool)
                           else (b_pool, a_pool))
        longer_keys = list(map(keys[id(longer)].__getitem__, longer))
        for x in map(keys[id(shorter)].__getitem__, shorter):
            # beside the empty tuple, whose key is 0, a row is the longer
            # pool's own key list: the widest rows make no new ints
            row = list(map(add, longer_keys, repeat(x))) if x else longer_keys
            weights.update(zip(row, map(count, map(get, row, repeat(0)), repeat(1))))
    return not any(weights.values())


def certify_involution(family: str, k: int, n: int) -> CertReport:
    """Check five laws of the involution on the carrier, closure,
    involutivity, sign reversal, freeness from fixed points and weight
    preservation, and that the signed weights sum to the zero polynomial.

    ``_laws`` checks the laws on the positive pairs, those of even |A|,
    first.  Where all five hold there, the step sends the positive pairs
    into the carrier, to negative pairs of their weight that step back to
    them, so it is one-to-one on them.  If the carrier also holds as many
    distinct negative pairs as positive ones, these images are every
    negative pair: the laws hold on the whole carrier, and the odd layers
    are never stepped.  Otherwise ``_laws`` walks the odd layers too, and
    each flag is the AND of both walks, as if every pair had been stepped.
    A layer's distinct pairs are the product of the sizes of its two pool
    dicts, the maps membership is looked up in: pool lengths would count a
    repeated tuple twice, and a repeat on the positive side could then
    match a negative pair that no positive pair steps to.

    A pair's weight is keyed by key(a) + key(b), where each pool's dict
    maps its tuples to the sum of the ``_power_sums`` of their elements,
    with phi sized from the largest element the pools hold.  Distinct
    weights have distinct keys, so when the five laws hold the signed
    weights cancel pair by pair and are not counted.  ``_weights_cancel``
    counts them when a law fails or a pool repeats a tuple, which is one
    member of the carrier but two pairs of the sum: the report is then the
    one of stepping and counting every pair.  A key has 19 bits at k=1,
    n=500000, the widest carrier under the limit, and 410 at k=13, n=15."""
    layers, step = _layers(family, k, n)
    pools = {id(pool): pool for pool in chain.from_iterable(layers)}
    top = max(chain.from_iterable(chain.from_iterable(pools.values())), default=0)
    # an empty carrier (k > n) builds no keys: phi's fields would grow as k^2
    phi = _power_sums(k, top) if layers else []
    # one dict per pool: layers may share a pool
    keys = {i: dict(zip(pool, _pool_keys(phi, pool))) for i, pool in pools.items()}
    a_keys = [keys[id(pool)] for pool, _ in layers]
    b_keys = [keys[id(pool)] for _, pool in layers]
    laws = _laws(layers, step, 0, a_keys, b_keys)
    distinct = list(map(mul, map(len, a_keys), map(len, b_keys)))
    if not all(laws) or sum(distinct[::2]) != sum(distinct[1::2]):
        laws = list(map(and_, laws, _laws(layers, step, 1, a_keys, b_keys)))
    repeats = any(len(keys[i]) < len(pool) for i, pool in pools.items())
    return CertReport(
        family, k, n, sum(len(a) * len(b) for a, b in layers), *laws,
        weight_sum_zero=(all(laws) and not repeats) or _weights_cancel(layers, keys))


def orbit_trace(family: str, k: int, n: int) -> Iterator[str]:
    """Trace lines "(A|B) <-> (A'|B') weight ±monomial", one per orbit, as
    the layers are walked row by row.  The carrier runs in (|A|, A, B)
    order and the step changes |A| by one, so each orbit is met first at its
    pair with the smaller |A|, and the line is made there."""
    layers, step = _layers(family, k, n)
    arity = max(n, 1)
    for i, (a_pool, b_pool) in enumerate(layers):
        sign = -1 if i & 1 else 1
        for a, b in product(a_pool, b_pool):
            qa, qb = step(a, b)
            if i < len(qa):
                wpoly = Polynomial.from_monomial(weight(a + b, arity), sign)
                yield (f"{_format_pair(a, b)} <-> {_format_pair(qa, qb)} "
                       f"weight {format_polynomial(wpoly)}")
