from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from symgb import groebner, poly
from symgb.groebner import reduced_groebner_basis
from symgb.poly import Polynomial, _product_sum, parse_polynomial
from symgb.symfunc import (
    check_e1ek_reduction,
    conjectured_gb_e1ek,
    conjectured_gb_ek,
    ekn_identity_defect,
    elementary,
    hkn_identity_defect,
    homogeneous,
    newton_defect,
    powersum,
    telescope_defect,
    weight,
)


def brute_elementary(k, n, arity):
    return Polynomial(arity, [(weight(s, arity), 1)
                              for s in combinations(range(1, n + 1), k)])


def brute_homogeneous(k, n, arity):
    return Polynomial(
        arity,
        [(weight(s, arity), 1)
         for s in combinations_with_replacement(range(1, n + 1), k)])


def brute_powersum(k, n, arity):
    return Polynomial(arity, [(weight([j] * k, arity), 1) for j in range(1, n + 1)])


def permute_variables(p, perm):
    """perm maps 1-based old index -> new index."""
    return Polynomial(
        p.arity,
        [(weight([perm[i] for i, e in enumerate(m, start=1)
                  for _ in range(e)], p.arity), c) for m, c in p.terms])


class TestConstructors:
    def test_elementary_examples(self):
        assert str(elementary(2, 3)) == "x2*x3+x1*x3+x1*x2"
        assert elementary(4, 3).is_zero()
        assert elementary(0, 5) == Polynomial.one(5)

    def test_homogeneous_examples(self):
        assert str(homogeneous(2, 2)) == "x2^2+x1*x2+x1^2"
        assert homogeneous(3, 1) == parse_polynomial("x1^3", 1)
        for n in range(1, 5):
            assert homogeneous(1, n) == elementary(1, n)

    def test_powersum_examples(self):
        assert str(powersum(2, 2)) == "x2^2+x1^2"
        assert powersum(1, 3) == elementary(1, 3)
        assert str(powersum(3, 1)) == "x1^3"
        with pytest.raises(ValueError):
            powersum(0, 2)

    def test_weight_examples(self):
        assert weight([1, 2, 5], 5) == (1, 1, 0, 0, 1)
        assert weight([1, 1, 3, 4], 4) == (2, 0, 1, 1)
        assert weight([], 3) == (0, 0, 0)
        with pytest.raises(ValueError):
            weight([0], 3)
        with pytest.raises(ValueError):
            weight([4], 3)

    def test_arity_too_small(self):
        with pytest.raises(ValueError):
            elementary(1, 3, arity=2)

    def test_matches_brute_force(self):
        # the builders skip the sort, and == compares the terms in order; the
        # defects build h_{j,n-k+1} in more variables than it has (arity > n)
        for n in range(-1, 7):
            for arity in (max(n, 1), max(n, 1) + 2):
                for k in range(0, n + 3):
                    assert elementary(k, n, arity) == brute_elementary(k, n, arity)
                    assert homogeneous(k, n, arity) == brute_homogeneous(k, n, arity)
                    if k >= 1:
                        assert powersum(k, n, arity) == brute_powersum(k, n, arity)

    def test_term_counts(self):
        for n in range(1, 7):
            for k in range(0, n + 1):
                assert len(elementary(k, n).terms) == comb(n, k)
                assert len(homogeneous(k, n).terms) == comb(n + k - 1, k)

    def test_symmetry(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                e = elementary(k, n)
                h = homogeneous(k, n)
                p = powersum(k, n)
                for sigma in permutations(range(1, n + 1)):
                    perm = dict(zip(range(1, n + 1), sigma))
                    assert permute_variables(e, perm) == e
                    assert permute_variables(h, perm) == h
                    assert permute_variables(p, perm) == p

    def test_leading_monomials(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                lm = elementary(k, n).leading_monomial()
                assert lm == weight(range(n - k + 1, n + 1), n)
                lm = homogeneous(k, n - k + 1, n).leading_monomial()
                assert lm == weight([n - k + 1] * k, n)


BUILDERS = [(elementary, brute_elementary, 0), (homogeneous, brute_homogeneous, 0),
            (powersum, brute_powersum, 1)]


@st.composite
def builds(draw, max_k=8, max_n=6):
    """(builder, brute force, k, n, arity): k from 0, or 1 for p, up to
    max_k, past n as often as not; n from -1; arity from max(n, 1) up."""
    builder, brute, low = draw(st.sampled_from(BUILDERS))
    n = draw(st.integers(-1, max_n))
    k = draw(st.integers(low, max_k))
    arity = max(n, 1) + draw(st.integers(0, 2))
    return builder, brute, k, n, arity


def fields(p):
    """The stored form of p, all of which equal polynomials share."""
    return p.arity, p.width, p.keys, p.coeffs


def no_packing(monkeypatch):
    """Make every pack and unpack of a monomial fail, in both kernels."""
    def packers(arity, width):
        def fail(_):
            raise AssertionError("a monomial was packed or unpacked")
        return fail, fail

    for module in (poly, groebner):
        monkeypatch.setattr(module, "_packers", packers)


class TestPackedBorn:
    # e, h and p are built packed: the kernels read their keys as they are,
    # and they equal, field for field, the same polynomial built from terms

    @given(builds())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case):
        builder, brute, k, n, arity = case
        assert builder(k, n, arity) == brute(k, n, arity)
        assert builder(k, n, arity).terms == brute(k, n, arity).terms

    @given(st.sampled_from([(homogeneous, brute_homogeneous), (powersum, brute_powersum)]),
           st.integers(1, 2), st.integers(100, 300))
    @settings(max_examples=30, deadline=None)
    def test_two_byte_fields(self, pair, n, k):
        # one byte up to exponent 127, the guard bit of a one-byte field
        builder, brute = pair
        p = builder(k, n)
        assert p.width == (1 if k < 128 else 2)
        assert p == brute(k, n, n)

    def test_two_byte_examples(self):
        assert str(powersum(127, 2)) == "x2^127+x1^127"
        assert str(homogeneous(128, 1)) == "x1^128"
        assert str(homogeneous(300, 1)) == "x1^300"
        assert str(powersum(256, 2)) == "x2^256+x1^256"
        assert homogeneous(0, -1, 2) == Polynomial.one(2)
        assert elementary(3, 0, 2).is_zero() and not elementary(3, 0, 2)
        assert homogeneous(2, 0, 3).is_zero() and elementary(5, 3).terms == ()
        # a zero built for a wide exponent has the zero's one-byte width
        assert fields(powersum(200, 0, 2)) == fields(Polynomial.zero(2))

    @given(builds(max_k=5, max_n=4), builds(max_k=5, max_n=4))
    @settings(max_examples=150, deadline=None)
    def test_twin_gives_identical_results(self, case, other):
        # a built polynomial and its twin from terms, under the product
        # kernel, == and hash
        builder, _, k, n, arity = case
        other_builder, _, j, m, _ = other
        arity = max(arity, m, 1)

        def born():
            return builder(k, n, arity)

        twin = Polynomial(arity, builder(k, n, arity).terms)
        assert fields(born()) == fields(twin)
        q = other_builder(j, m, arity)
        assert (born() * q).terms == (twin * q).terms
        assert (q * born()).terms == (q * twin).terms
        assert (born() * born()).terms == (twin * twin).terms
        parts = lambda f: [(1, f, q), (Fraction(-1, 2), q, f), (3, f, Polynomial.one(arity))]
        assert _product_sum(arity, parts(born())).terms == _product_sum(arity, parts(twin)).terms
        assert hash(born()) == hash(twin) and born() == twin and twin == born()

    @pytest.mark.parametrize("gens", [
        [(elementary, 1, 3), (elementary, 3, 3)],
        [(elementary, 1, 4), (homogeneous, 2, 3), (powersum, 3, 4)],
        [(powersum, 2, 3), (powersum, 3, 3), (powersum, 4, 3)],
        # exponent 128 sets the guard bit of a one-byte field
        [(elementary, 1, 2), (homogeneous, 128, 2)],
    ])
    def test_twin_gives_identical_bases(self, widths, gens):
        arity = max(n for _, _, n in gens)
        born = reduced_groebner_basis([b(k, n, arity) for b, k, n in gens])
        born_widths = widths[:]
        widths.clear()
        twin = reduced_groebner_basis(
            [Polynomial(arity, b(k, n, arity).terms) for b, k, n in gens])
        assert born == twin and born.stats == twin.stats
        assert born_widths == widths
        top = max(k if b is not elementary else 1 for b, k, _ in gens)
        assert widths == [1 if top < 128 else 2]

    @pytest.mark.parametrize("k", [127, 128, 200, 255, 256])
    def test_born_keys_reach_the_reduction_kernel(self, monkeypatch, k):
        # h_{k,2} is built as wide as the run it enters, and the basis is
        # built from the run's keys, so no monomial is packed or unpacked
        twin = Polynomial(2, homogeneous(k, 2).terms)
        expected = reduced_groebner_basis([elementary(1, 2), twin])
        no_packing(monkeypatch)
        assert reduced_groebner_basis([elementary(1, 2), homogeneous(k, 2)]) == expected


class TestCanonicalForm:
    # one polynomial reached by different routes has the same stored form:
    # width, keys, coefficients, and so the same hash

    @given(builds(max_k=6, max_n=4), st.integers(0, 300))
    @settings(max_examples=150, deadline=None)
    def test_routes_agree(self, case, top):
        builder, _, k, n, arity = case
        built = builder(k, n, arity)
        twin = Polynomial(arity, built.terms)
        wide = Polynomial.from_monomial((top,) + (0,) * (arity - 1))
        routes = [
            built,
            twin,
            parse_polynomial(str(built), arity),
            built * Polynomial.one(arity),
            _product_sum(arity, [(1, built, Polynomial.one(arity))]),
            -(-built),
            # the widest term, x1^top, enters and cancels
            built + wide - wide,
            (built + wide) + (-wide),
            built * 3 * Fraction(1, 3),
        ]
        for p in routes:
            assert fields(p) == fields(twin) and hash(p) == hash(twin)

    def test_products_agree(self):
        e1, h2 = elementary(1, 3), homogeneous(2, 3)
        product = Polynomial(3, (e1 * h2).terms)
        assert fields(e1 * h2) == fields(h2 * e1) == fields(product)
        assert fields(elementary(1, 1) * homogeneous(127, 1)) == \
            fields(homogeneous(128, 1))

    def test_cancelling_the_widest_term_narrows(self):
        p = parse_polynomial("x1^200+x1", 1) - parse_polynomial("x1^200", 1)
        assert p.width == 1 and fields(p) == fields(Polynomial.variable(1, 1))
        q = Polynomial.variable(1, 1) + parse_polynomial("x1^200", 1)
        assert q.width == 2
        assert fields(q + parse_polynomial("-x1^200", 1)) == fields(p)

    def test_same_keys_at_other_widths_differ(self):
        # x2 in one-byte fields and x1^256 in two-byte ones are both key 256
        x2, x1_256 = parse_polynomial("x2", 2), parse_polynomial("x1^256", 2)
        assert x2.keys == x1_256.keys and x2 != x1_256
        assert len({x2, x1_256}) == 2

    @pytest.mark.parametrize("arity, gens, basis", [
        (1, "x1^200-x1, x1^2", "x1"),
        (2, "x2^130-x1, x2^2+x1", "x2^2+x1; x1^65+x1"),
    ])
    def test_two_byte_runs_narrow_their_output(self, widths, arity, gens, basis):
        gens = [parse_polynomial(g, arity) for g in gens.split(", ")]
        expected = [parse_polynomial(g, arity) for g in basis.split("; ")]
        gb = reduced_groebner_basis(gens)
        assert widths == [2]
        assert [fields(g) for g in gb] == [fields(g) for g in expected]
        assert [g.width for g in gb] == [1] * len(expected)
        assert [hash(g) for g in gb] == [hash(g) for g in expected]


class TestIdentities:
    def test_hkn_examples(self):
        assert hkn_identity_defect(2, 3).is_zero()
        assert hkn_identity_defect(5, 3).is_zero()  # trivial k > n case
        with pytest.raises(ValueError):
            hkn_identity_defect(0, 4)

    def test_ekn_examples(self):
        assert ekn_identity_defect(1, 1).is_zero()
        assert ekn_identity_defect(3, 4).is_zero()
        assert ekn_identity_defect(6, 4).is_zero()

    def test_telescope_examples(self):
        assert telescope_defect(1, 2).is_zero()
        assert telescope_defect(2, 3).is_zero()
        assert telescope_defect(3, 3).is_zero()
        with pytest.raises(ValueError):
            telescope_defect(4, 3)

    def test_newton_examples(self):
        assert newton_defect(1, 3).is_zero()
        assert newton_defect(2, 2).is_zero()
        assert newton_defect(4, 3).is_zero()

    def test_e1ek_reduction_examples(self):
        assert check_e1ek_reduction(1, 1)
        assert check_e1ek_reduction(2, 3)
        assert check_e1ek_reduction(4, 4)

    def test_all_identities_small_sweep(self):
        for n in range(1, 6):
            for k in range(1, n + 3):
                assert hkn_identity_defect(k, n).is_zero(), (k, n)
                assert ekn_identity_defect(k, n).is_zero(), (k, n)
                assert newton_defect(k, n).is_zero(), (k, n)
            for j in range(1, n + 1):
                assert telescope_defect(j, n).is_zero(), (j, n)
            for k in range(1, n + 1):
                assert check_e1ek_reduction(k, n), (k, n)


class TestConjecturedBases:
    def test_gb_ek_k2_n3(self):
        assert conjectured_gb_ek(2, 3) == [
            parse_polynomial("x3+x2+x1", 3),
            parse_polynomial("x2^2+x2*x1+x1^2", 3)]

    def test_gb_e1ek_k2_n3_coincides(self):
        assert conjectured_gb_e1ek(2, 3) == conjectured_gb_ek(2, 3)

    def test_gb_e1ek_k3_n4(self):
        e13 = elementary(1, 3, 4)
        e23 = elementary(2, 3, 4)
        e33 = elementary(3, 3, 4)
        assert conjectured_gb_e1ek(3, 4) == [
            elementary(1, 4, 4), e13 * e23 - e33]

    def test_monic_and_sorted(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                for basis in (conjectured_gb_ek(k, n), conjectured_gb_e1ek(k, n)):
                    lms = [g.leading_monomial()[::-1] for g in basis]
                    assert lms == sorted(lms, reverse=True)
                    assert all(g.leading_coefficient() == 1 for g in basis)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            conjectured_gb_ek(4, 3)
        with pytest.raises(ValueError):
            conjectured_gb_e1ek(0, 3)
