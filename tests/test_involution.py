from functools import partial
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from symgb import involution
from symgb.involution import certify_involution, orbit_trace
from symgb.poly import Polynomial, format_polynomial
from symgb.symfunc import elementary, homogeneous, weight


def carrier(family, k, n):
    """The family's carrier pairs (a, b): the pairs of its ``FAMILIES``
    entry's layers, flattened in order."""
    return [p for a_pool, b_pool in involution.FAMILIES[family].carrier(k, n)
            for p in product(a_pool, b_pool)]


def pool_member(family, k, n):
    """Membership (a, b) -> bool by lookup in the family's layer pools:
    a in A_j and b in B_j for j = |a| <= k."""
    layers = involution.FAMILIES[family].carrier(k, n)
    pools = [(set(a_pool), set(b_pool)) for a_pool, b_pool in layers]
    return lambda a, b: (len(a) <= k and a in pools[len(a)][0]
                         and b in pools[len(a)][1])


def sign(pair):
    return (-1) ** len(pair[0])


def pair_weight(n, pair):
    a, b = pair
    return weight(a + b, max(n, 1))


def broken_steps(family, k, n, good):
    """Steps on (a, b) that stand in for ``good`` (the family's real step)
    in the (k, n) carrier but each break a law of the involution."""
    def identity(a, b):
        return a, b

    def leaves_carrier(a, b):
        qa, qb = good(a, b)
        return qa, qb + (n + 1,)

    def not_involutive(a, b):
        return next(q for q in carrier(family, k, n) if sign(q) != sign((a, b)))

    def unsorted_image(a, b):
        # on the orbits whose two pairs both have an unsorted arrangement,
        # so that the pairs left alone still map back to themselves
        q = good(a, b)
        if reversed_side((a, b)) and reversed_side(q):
            return reversed_side(q)
        return q

    def out_of_range(a, b):
        # the last element of a nonempty side becomes n + 1, which is past
        # every range: the image stays sorted and keeps its lengths
        qa, qb = good(a, b)
        if qb:
            return qa, qb[:-1] + (n + 1,)
        return qa[:-1] + (n + 1,), qb

    return {"identity": identity, "leaves_carrier": leaves_carrier,
            "not_involutive": not_involutive, "unsorted_image": unsorted_image,
            "out_of_range": out_of_range}


def reversed_side(pair):
    """The pair with its first side that reversal unsorts reversed, or None."""
    a, b = pair
    if a != a[::-1]:
        return a[::-1], b
    if b != b[::-1]:
        return a, b[::-1]
    return None


def rotated_matching(family, k, n):
    """A step that matches the i-th positive pair of the carrier with the
    (i+1)-th negative one, and back: closed, an involution, sign-reversing
    and free of fixed points, but blind to weight."""
    pairs = carrier(family, k, n)
    positive = [p for p in pairs if sign(p) == 1]
    negative = [p for p in pairs if sign(p) == -1]
    negative = negative[1:] + negative[:1]
    match = {**dict(zip(positive, negative)), **dict(zip(negative, positive))}
    return lambda a, b: match[a, b]


FLAGS = ("carrier_closed", "is_involution", "sign_reversing",
         "fixed_point_free", "weight_preserving", "weight_sum_zero")


def reference_certificate(family, k, n, step):
    """The carrier size and the six flags, from the family's carrier,
    ``reference_member``, ``step`` on each pair, and each pair's sign
    (-1)^|A| and weight."""
    pairs = carrier(family, k, n)
    flags = dict.fromkeys(FLAGS, True)
    for p in pairs:
        q = step(*p)
        if not reference_member(family, k, n, *q):
            flags["carrier_closed"] = False
            continue
        flags["fixed_point_free"] &= q != p
        flags["sign_reversing"] &= sign(q) == -sign(p)
        flags["is_involution"] &= step(*q) == p
        flags["weight_preserving"] &= pair_weight(n, q) == pair_weight(n, p)
    weights = Polynomial(max(n, 1), [(pair_weight(n, p), sign(p)) for p in pairs])
    flags["weight_sum_zero"] = weights.is_zero()
    return {"carrier_size": len(pairs), **flags}


def report_fields(r):
    return {"carrier_size": r.carrier_size,
            **{f: getattr(r, f) for f in FLAGS}}


def reference_member(family, k, n, a, b):
    """Carrier membership as the module docstring states it."""
    i = len(a)
    if i > k or len(b) != k - i:
        return False
    if family == "hkn":
        set_side, multiset, a_top, b_top = a, b, n, n - k + 1
    else:
        set_side, multiset, a_top, b_top = b, a, n - i + 1, n - i
    return (list(set_side) == sorted(set(set_side))
            and list(multiset) == sorted(multiset)
            and all(1 <= x <= a_top for x in a)
            and all(1 <= x <= b_top for x in b))


def perturbed(family, k, n, a, b):
    """Pairs near the carrier pair (a, b): 0 in front of a side and one past
    its range end at its back, a repeat on the set side, an adjacent pair
    swapped, and a length one off."""
    i = len(a)
    tops = (n, n - k + 1) if family == "hkn" else (n - i + 1, n - i)
    out = []
    for j, side in enumerate((a, b)):
        if not side:
            continue
        for new in ((0,) + side[1:], side[:-1] + (tops[j] + 1,),
                    side[:1] + side[:1] + side[2:],
                    side[1:2] + side[:1] + side[2:],
                    side[:-1], side + side[-1:]):
            out.append((new, b) if j == 0 else (a, new))
    return out


def sorted_step(family, a, b):
    """The involution rule as the module docstring states it, re-sorting
    both sides after the move."""
    a, b = list(a), list(b)
    if family == "hkn":
        from_b = bool(b) and (not a or min(b) < min(a))
        x = min(b) if from_b else min(a)
    else:
        from_b = bool(b) and (not a or max(b) >= max(a))
        x = max(b) if from_b else max(a)
    if from_b:
        b.remove(x)
        a.append(x)
    else:
        a.remove(x)
        b.append(x)
    return tuple(sorted(a)), tuple(sorted(b))


class TestEnumeration:
    def test_hkn_k2_n2(self):
        assert carrier("hkn", 2, 2) == [
            ((), (1, 1)), ((1,), (1,)), ((2,), (1,)), ((1, 2), ())]

    def test_hkn_k1_n1(self):
        assert carrier("hkn", 1, 1) == [((), (1,)), ((1,), ())]

    def test_ekn_k1_n2(self):
        assert carrier("ekn", 1, 2) == [
            ((), (1,)), ((), (2,)), ((1,), ()), ((2,), ())]

    def test_hkn_cardinality_formula(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                size = len(carrier("hkn", k, n))
                expected = sum(
                    comb(n, i) * comb((n - k + 1) + (k - i) - 1, k - i)
                    for i in range(k + 1))
                assert size == expected

    def test_no_duplicates_and_membership(self):
        for family in ("hkn", "ekn"):
            for n in range(1, 6):
                for k in range(1, n + 1):
                    layers = involution.FAMILIES[family].carrier(k, n)
                    assert len(layers) == k + 1
                    for i, (a_pool, b_pool) in enumerate(layers):
                        assert len(set(a_pool)) == len(a_pool)
                        assert len(set(b_pool)) == len(b_pool)
                        assert all(len(a) == i for a in a_pool)
                    pairs = carrier(family, k, n)
                    assert all(reference_member(family, k, n, a, b)
                               for a, b in pairs)

    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_member_matches_the_reference_near_the_carrier(self, family):
        rejected = 0
        for n in range(1, 7):
            for k in range(1, n + 3):
                member = pool_member(family, k, n)
                for p in carrier(family, k, n):
                    assert member(*p)
                    for a, b in perturbed(family, k, n, *p):
                        want = reference_member(family, k, n, a, b)
                        assert member(a, b) == want, (k, n, a, b)
                        rejected += not want
        assert rejected > 0

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'xyz'"):
            certify_involution("xyz", 1, 1)
        with pytest.raises(ValueError, match="unknown family 'xyz'"):
            next(orbit_trace("xyz", 1, 1))


class TestApplyF:
    """The family's ``step``, the involution f on carrier pairs."""

    def test_hkn_examples(self):
        step = involution.FAMILIES["hkn"].step
        assert step((2,), (1,)) == ((1, 2), ())
        assert step((1,), (1,)) == ((), (1, 1))
        assert step((), (1, 1)) == ((1,), (1,))

    def test_outside_carrier_rejected(self):
        assert not pool_member("hkn", 2, 2)((3,), (1,))
        assert not pool_member("ekn", 1, 2)((), (1, 1))

    def test_flip_matches_the_sorted_rule(self):
        for family in ("hkn", "ekn"):
            step = involution.FAMILIES[family].step
            for n in range(1, 7):
                for k in range(1, n + 1):
                    for p in carrier(family, k, n):
                        assert step(*p) == sorted_step(family, *p), p

    def test_involution_laws_sweep(self):
        for family in ("hkn", "ekn"):
            spec = involution.FAMILIES[family]
            for n in range(1, 7):
                for k in range(1, n + 1):
                    member = pool_member(family, k, n)
                    for p in carrier(family, k, n):
                        q = spec.step(*p)
                        assert member(*q), (family, k, n, p)
                        assert q != p
                        assert sign(q) == -sign(p)
                        assert abs(len(q[0]) - len(p[0])) == 1
                        assert pair_weight(n, q) == pair_weight(n, p)
                        assert spec.step(*q) == p


class TestCertification:
    def test_spec_examples(self):
        r = certify_involution("hkn", 2, 2)
        assert r.ok and r.carrier_size == 4
        r = certify_involution("ekn", 1, 2)
        assert r.ok and r.carrier_size == 4
        assert certify_involution("hkn", 3, 5).ok

    def test_weight_sum_matches_identity_terms(self):
        # grouping the carrier by |A| = i reproduces the alternating-sum
        # factors e_{i,n} h_{k-i,n-k+1} (hkn) and h_{i,n-i+1} e_{k-i,n-i}
        for n in range(1, 6):
            for k in range(1, n + 1):
                for family in ("hkn", "ekn"):
                    groups = {}
                    for p in carrier(family, k, n):
                        groups.setdefault(len(p[0]), []).append(p)
                    for i, ps in groups.items():
                        got = Polynomial(n, [(pair_weight(n, p), 1) for p in ps])
                        if family == "hkn":
                            want = elementary(i, n, n) * homogeneous(k - i, n - k + 1, n)
                        else:
                            # i = 0 contributes the degree-0 factor h_{0,n+1} = 1
                            h_factor = (Polynomial.one(n) if i == 0
                                        else homogeneous(i, n - i + 1, n))
                            want = h_factor * elementary(k - i, n - i, n)
                        assert got == want, (family, k, n, i)

    @pytest.mark.parametrize("broken, off", [
        ("identity", {"fixed_point_free", "sign_reversing"}),
        ("leaves_carrier", {"carrier_closed"}),
        # its image is the first pair of the other sign, whatever its weight
        ("not_involutive", {"is_involution", "weight_preserving"}),
    ])
    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_broken_map_is_caught(self, patch_family, family, broken, off):
        good = involution.FAMILIES[family].step
        step = broken_steps(family, 2, 3, good)[broken]
        patch_family(family, step=step)
        r = certify_involution(family, 2, 3)
        assert {f for f in FLAGS if not getattr(r, f)} == off
        assert not r.ok
        assert report_fields(r) == reference_certificate(family, 2, 3, step)

    @pytest.mark.parametrize("broken", ["unsorted_image", "out_of_range"])
    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_broken_image_switches_off_closure_alone(self, patch_family, family, broken):
        good = involution.FAMILIES[family].step
        for n in range(3, 7):
            for k in range(3, n + 1):
                step = broken_steps(family, k, n, good)[broken]
                patch_family(family, step=step)
                r = certify_involution(family, k, n)
                assert {f for f in FLAGS if not getattr(r, f)} == {"carrier_closed"}
                assert report_fields(r) == reference_certificate(family, k, n, step)

    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_matches_the_reference_certificate(self, family):
        for n in range(1, 7):
            for k in range(1, n + 3):
                r = certify_involution(family, k, n)
                assert report_fields(r) == reference_certificate(
                    family, k, n, partial(sorted_step, family)), (k, n)

    @pytest.mark.parametrize("k, n", [(1, 300), (2, 40)])
    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_matches_the_reference_certificate_on_wide_carriers(self, family, k, n):
        # the weights of a layer are counted along its longer pool: B in
        # layer 0, A in the top layer, and A for (2, 40) in layer 1
        r = certify_involution(family, k, n)
        assert r.ok and r.carrier_size == 2**k * comb(n, k)
        assert report_fields(r) == reference_certificate(
            family, k, n, partial(sorted_step, family))

    def test_carrier_is_streamed(self, patch_family, monkeypatch):
        # each pair of a layer is stepped before the next one is drawn from
        # the layer's ``product``, so neither the certificate nor the trace
        # holds a layer's pairs as a list
        drawn = []
        stepped = []

        def checked_product(a_pool, b_pool):
            for p in product(a_pool, b_pool):
                assert len(stepped) == len(drawn), \
                    "a pair was drawn before the previous one was stepped"
                drawn.append(p)
                yield p

        monkeypatch.setattr(involution, "product", checked_product)
        for family in ("hkn", "ekn"):
            def counted_step(a, b, step=involution.FAMILIES[family].step):
                if len(stepped) < len(drawn) and (a, b) == drawn[-1]:
                    stepped.append((a, b))
                return step(a, b)

            patch_family(family, step=counted_step)
            assert certify_involution(family, 3, 4).ok
            assert len(list(orbit_trace(family, 3, 4))) == 2**2 * comb(4, 3)
        # the certificate draws the even layers, half the carrier, and the
        # trace draws all of it
        assert len(drawn) == 2 * (2**2 + 2**3) * comb(4, 3)

    def test_carrier_over_the_limit_is_refused_before_enumerating(self, patch_family):
        def refuse(k, n):
            raise AssertionError("the carrier must not be enumerated")

        patch_family("hkn", carrier=refuse)
        limit = f"more than the limit of {involution.MAX_CARRIER_PAIRS} pairs"
        for k, n in ((60, 60), (20, 25)):
            with pytest.raises(ValueError, match=f"k={k}, n={n} has {limit}"):
                certify_involution("hkn", k, n)
            with pytest.raises(ValueError, match=f"k={k}, n={n} has {limit}"):
                next(orbit_trace("hkn", k, n))

    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_empty_carrier_is_not_enumerated(self, patch_family, monkeypatch, family):
        # for k > n the carrier is empty, but enumerating it would build
        # all 2^40 A sides (hkn) before finding that no B side exists, and
        # its keys' fields would grow as k^2
        def refuse(k, n):
            raise AssertionError("an empty carrier must not be enumerated")

        def no_keys(k, n):
            raise AssertionError("an empty carrier must build no keys")

        patch_family(family, carrier=refuse)
        monkeypatch.setattr(involution, "_power_sums", no_keys)
        for k, n in ((41, 40), (10**6, 5), (10**12 + 1, 10**12)):
            r = certify_involution(family, k, n)
            assert r.carrier_size == 0
            assert all(getattr(r, f) for f in FLAGS) and r.ok
            assert list(orbit_trace(family, k, n)) == []

    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_carrier_counted_once(self, patch_family, family):
        # the closed-form count both refuses the carrier and spares an
        # empty one its pools: the certificate and the trace make it once
        counts = []

        def counting(k, n, cap, size=involution.FAMILIES[family].size):
            counts.append((k, n))
            return size(k, n, cap)

        patch_family(family, size=counting)
        assert certify_involution(family, 3, 5).ok and counts == [(3, 5)]
        list(orbit_trace(family, 3, 5))
        assert counts == [(3, 5)] * 2

    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_two_steps_per_pair(self, patch_family, family):
        # on a valid carrier each pair of even |A| is stepped and its image
        # stepped back, and the count of distinct pairs proves the odd
        # layers: they are never stepped
        calls = []
        step = involution.FAMILIES[family].step

        def counted(a, b):
            calls.append((a, b))
            return step(a, b)

        patch_family(family, step=counted)
        r = certify_involution(family, 3, 5)
        even = [p for p in carrier(family, 3, 5) if len(p[0]) % 2 == 0]
        assert r.ok and len(calls) == r.carrier_size
        assert calls[::2] == even
        assert calls[1::2] == [step(*p) for p in even]

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("broken", ["identity", "leaves_carrier", "not_involutive",
                                        "unsorted_image", "out_of_range"])
    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_broken_on_one_parity_is_caught(self, patch_family, family, broken, parity):
        # a step broken only on the pairs of one parity of |A|: the report
        # is the one of stepping every pair, whether the even walk fails
        # itself or only sends the certificate on to the odd layers
        good = involution.FAMILIES[family].step
        for k, n in ((3, 4), (3, 5)):
            bad = broken_steps(family, k, n, good)[broken]
            step = lambda a, b, bad=bad: (bad if len(a) % 2 == parity else good)(a, b)
            patch_family(family, step=step)
            r = certify_involution(family, k, n)
            assert not r.ok
            assert report_fields(r) == reference_certificate(family, k, n, step), (k, n)

    def test_repeated_tuple_does_not_stand_in_for_a_pair(self, patch_family):
        # layer 0 repeats (1,) in its B pool, and layer 1 holds (3,), past
        # the range {1..2}: the even pairs pass every law, and their pools
        # give 1 * 3 pairs to the odd layer's 3 * 1, but there are only 2
        # distinct even pairs, so the odd layer is stepped and its pair
        # ((3,), ()) leaves the carrier
        def patched(k, n):
            return [(((),), ((1,), (1,), (2,))), (((1,), (2,), (3,)), ((),))]

        patch_family("hkn", carrier=patched)
        r = certify_involution("hkn", 1, 2)
        assert report_fields(r) == {
            "carrier_size": 6, "carrier_closed": False, "is_involution": True,
            "sign_reversing": True, "fixed_point_free": True,
            "weight_preserving": True, "weight_sum_zero": False}

    def test_element_past_n_gets_a_report(self, patch_family):
        # A_1 holds (3,), past the range {1..2}: the keys are built for the
        # largest element the pools hold, and the odd pair ((3,), ()) steps
        # out of the carrier, leaving x3 uncancelled
        def patched(k, n, carrier=involution.FAMILIES["hkn"].carrier):
            (a_pool, b_pool), (_, odd_b_pool) = carrier(k, n)
            return [(a_pool, b_pool), (((1,), (2,), (3,)), odd_b_pool)]

        patch_family("hkn", carrier=patched)
        r = certify_involution("hkn", 1, 2)
        assert report_fields(r) == {
            "carrier_size": 5, "carrier_closed": False, "is_involution": True,
            "sign_reversing": True, "fixed_point_free": True,
            "weight_preserving": True, "weight_sum_zero": False}

    def test_repeated_tuple_is_counted_twice(self, patch_family):
        # A_0 repeats (): every law holds on the distinct pairs, but the
        # pair ((), (1,)) is two terms of the weight sum, and x1 is left
        def patched(k, n, carrier=involution.FAMILIES["hkn"].carrier):
            (a_pool, b_pool), *rest = carrier(k, n)
            return [(a_pool * 2, b_pool), *rest]

        patch_family("hkn", carrier=patched)
        r = certify_involution("hkn", 1, 1)
        want = reference_certificate("hkn", 1, 1, partial(sorted_step, "hkn"))
        assert report_fields(r) == want
        assert want == {**dict.fromkeys(FLAGS, True), "carrier_size": 3,
                        "weight_sum_zero": False}

    @pytest.mark.parametrize("k, n", [(2, 3), (3, 5), (4, 6)])
    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_weight_scrambling_matching_is_caught(self, patch_family, family, k, n):
        step = rotated_matching(family, k, n)
        patch_family(family, step=step)
        r = certify_involution(family, k, n)
        assert {f for f in FLAGS if not getattr(r, f)} == {"weight_preserving"}
        assert not r.ok
        assert report_fields(r) == reference_certificate(family, k, n, step)

    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_weights_counted_only_when_a_law_fails(self, patch_family, monkeypatch,
                                                   family):
        # when the five laws hold the weights cancel pair by pair and are
        # not counted; a failing law makes one count, over the whole carrier
        counts = []

        def counting(layers, keys, weights_cancel=involution._weights_cancel):
            counts.append(len(layers))
            return weights_cancel(layers, keys)

        monkeypatch.setattr(involution, "_weights_cancel", counting)
        assert certify_involution(family, 3, 5).ok and counts == []
        good = involution.FAMILIES[family].step
        patch_family(family, step=broken_steps(family, 3, 5, good)["identity"])
        assert not certify_involution(family, 3, 5).ok and counts == [4]

    def test_trace_format(self):
        lines = list(orbit_trace("hkn", 2, 2))
        assert lines == [
            "({}|{1,1}) <-> ({1}|{1}) weight x1^2",
            "({2}|{1}) <-> ({1,2}|{}) weight -x1*x2",
        ]


def multiset_key(k, n, multiset):
    """The certificate's weight key of a multiset of {1..n}, for carriers of
    k-element weights."""
    return involution._pool_keys(involution._power_sums(k, n), [tuple(multiset)])[0]


@st.composite
def multisets(draw):
    """(k, n, a, b, c): k <= 6 and n <= 7, a k-multiset c of {1..n}, and
    multisets a and b of {1..n} with |a| + |b| = k."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    element = st.integers(1, n)
    i = draw(st.integers(0, k))
    a = draw(st.lists(element, min_size=i, max_size=i))
    b = draw(st.lists(element, min_size=k - i, max_size=k - i))
    c = draw(st.lists(element, min_size=k, max_size=k))
    return k, n, a, b, c


class TestWeightKeys:
    """The int keys that ``certify_involution`` counts weights by."""

    @given(multisets())
    def test_keys_add_and_tell_multisets_apart(self, drawn):
        k, n, a, b, c = drawn
        key = partial(multiset_key, k, n)
        assert key(a) + key(b) == key(sorted(a + b))
        assert (key(sorted(a + b)) == key(sorted(c))) == (sorted(a + b) == sorted(c))
        # field j holds the j-th power sum, in (k n^j).bit_length() bits
        fields, rest = [], key(c)
        for j in range(1, k + 1):
            bits = (k * n**j).bit_length()
            fields.append(rest & ((1 << bits) - 1))
            rest >>= bits
        assert rest == 0
        assert fields == [sum(x**j for x in c) for j in range(1, k + 1)]

    def test_every_multiset_has_its_own_key(self):
        for n in range(1, 8):
            for k in range(1, 7):
                pool = tuple(combinations_with_replacement(range(1, n + 1), k))
                keys = involution._pool_keys(involution._power_sums(k, n), pool)
                assert len(set(keys)) == len(pool), (k, n)

    def test_key_sizes(self):
        # a key is at most k * phi[n], the sum of every field's largest value
        bits = {(k, n): (k * involution._power_sums(k, n)[n]).bit_length()
                for k, n in ((1, 500000), (6, 9), (13, 15))}
        assert bits == {(1, 500000): 19, (6, 9): 85, (13, 15): 410}
        assert bits[1, 500000] < 64  # the widest carrier's keys stay one machine word

    @pytest.mark.parametrize("k, n", [(2, 3), (3, 4)])
    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_unbalanced_weights_are_caught(self, patch_family, family, k, n):
        # a carrier whose layer-0 B pool has lost its last tuple: the pairs
        # dropped with it have weights of one sign, which nothing cancels
        def short_carrier(k, n, carrier=involution.FAMILIES[family].carrier):
            (a_pool, b_pool), *rest = carrier(k, n)
            return [(a_pool, b_pool[:-1]), *rest]

        patch_family(family, carrier=short_carrier)
        r = certify_involution(family, k, n)
        assert not r.weight_sum_zero
        want = reference_certificate(family, k, n, partial(sorted_step, family))
        assert r.weight_sum_zero == want["weight_sum_zero"]
        assert r.carrier_size == want["carrier_size"] == 2**k * comb(n, k) - 1


def show(pair):
    """A pair as the trace prints it: "({1,2}|{})"."""
    return "(" + "|".join("{" + ",".join(map(str, side)) + "}" for side in pair) + ")"


def set_based_trace(family, k, n):
    """The trace by the rule of a visited set: one line per orbit, made at
    whichever of its two pairs the carrier yields first."""
    step = involution.FAMILIES[family].step
    seen = set()
    lines = []
    for p in carrier(family, k, n):
        if p in seen:
            continue
        q = step(*p)
        seen.update((p, q))
        wpoly = Polynomial(max(n, 1), [(pair_weight(n, p), sign(p))])
        lines.append(f"{show(p)} <-> {show(q)} weight {format_polynomial(wpoly)}")
    return lines


class TestOrbitTrace:
    @pytest.mark.parametrize("family", involution.FAMILIES)
    def test_matches_the_set_based_rule(self, family):
        for n in range(1, 7):
            for k in range(1, n + 1):
                lines = list(orbit_trace(family, k, n))
                assert lines == set_based_trace(family, k, n)
                assert 2 * len(lines) == len(carrier(family, k, n))

    def test_trace_is_streamed(self):
        trace = orbit_trace("hkn", 8, 13)
        assert iter(trace) is trace
        assert next(trace) == "({}|{1,1,1,1,1,1,1,1}) <-> ({1}|{1,1,1,1,1,1,1}) weight x1^8"
