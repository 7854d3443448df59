"""The packed product kernel, ``poly._product_sum``, behind ``*`` (also
by a single term), the identity defects and the e1ek identity, and the packed
S-pair step behind ``s_polynomial`` and Buchberger, against a plain reference
written here: exponent tuples added componentwise, coefficients summed as
Fractions in a dict, sorted by the reversed tuple."""

from fractions import Fraction

import pytest

from symgb import poly, symfunc
from symgb.groebner import s_polynomial
from symgb.poly import Polynomial, _product_sum
from conftest import random_polynomial

# exponents at the edges of 1-byte and 8-byte fields, and beyond them: the
# CLI accepts x1^99999999999999999999
EDGE_EXPONENTS = (127, 128, 255, 256, 2**63, 2**64, 10**20)


def reference(parts):
    """sum of a * f * g over the (a, f, g) triples, as a canonical term
    list: (monomial, type, value) with type int for an integral value."""
    acc = {}
    for a, f, g in parts:
        for m1, c1 in f.terms:
            for m2, c2 in g.terms:
                m = tuple(x + y for x, y in zip(m1, m2))
                acc[m] = acc.get(m, Fraction(0)) + Fraction(a) * c1 * c2
    terms = sorted(((m, c) for m, c in acc.items() if c),
                   key=lambda t: t[0][::-1], reverse=True)
    return [(m, int if c.denominator == 1 else Fraction, c) for m, c in terms]


def typed(p):
    """The terms of p with each coefficient's type, so that an integral
    Fraction does not pass for an int."""
    return [(m, type(c), c) for m, c in p.terms]


def monomial(arity, exps):
    """x_1^e_1 x_2^e_2 ... for the leading exponents given."""
    return tuple(exps) + (0,) * (arity - len(exps))


def edge_polynomial(rng, arity, integral):
    terms = []
    for _ in range(rng.randint(1, 4)):
        exps = [0] * arity
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(arity)] = rng.choice(EDGE_EXPONENTS + (0, 1, 2))
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append((tuple(exps), Fraction(num, 1 if integral else rng.choice([1, 2, 3]))))
    return Polynomial(arity, terms)


def factor(rng, arity, integral):
    if rng.random() < 0.3:
        return edge_polynomial(rng, arity, integral)
    return random_polynomial(rng, arity, 3, 5, integral=integral)


class TestMul:
    @pytest.mark.parametrize("arity", [1, 2, 3, 12])
    @pytest.mark.parametrize("integral", [True, False])
    def test_random(self, rng, arity, integral):
        for _ in range(150):
            f = random_polynomial(rng, arity, 4, 6, integral=integral)
            g = random_polynomial(rng, arity, 4, 6, integral=integral)
            assert typed(f * g) == reference([(1, f, g)])

    @pytest.mark.parametrize("arity", [1, 12])
    @pytest.mark.parametrize("integral", [True, False])
    def test_edge_exponents(self, rng, arity, integral):
        for _ in range(150):
            f = edge_polynomial(rng, arity, integral)
            g = edge_polynomial(rng, arity, integral)
            assert typed(f * g) == reference([(1, f, g)])

    @pytest.mark.parametrize("e", EDGE_EXPONENTS)
    def test_field_boundaries(self, e):
        # x_1^e times itself is one carry away from x_2 when the field is
        # too narrow; the x_2 terms then collide or reorder
        for arity in (2, 12):
            f = Polynomial(arity, [(monomial(arity, [e]), 1), (monomial(arity, [0, 1]), 1)])
            assert typed(f * f) == [
                (monomial(arity, [0, 2]), int, 1),
                (monomial(arity, [e, 1]), int, 2),
                (monomial(arity, [2 * e]), int, 1)]
            assert typed(f * f) == reference([(1, f, f)])

    def test_integral_products_of_fractions_are_ints(self):
        half = Polynomial(3, [((1, 0, 0), Fraction(1, 2)), ((0, 0, 1), Fraction(2, 3))])
        two = Polynomial(3, [((0, 1, 0), 2), ((0, 0, 0), Fraction(3, 2))])
        assert typed(half * two) == [
            ((0, 1, 1), Fraction, Fraction(4, 3)),
            ((0, 0, 1), int, 1),
            ((1, 1, 0), int, 1),
            ((1, 0, 0), Fraction, Fraction(3, 4))]

    def test_zero_factor(self, rng):
        f = random_polynomial(rng, 4, 4, 6, allow_zero=False)
        zero = Polynomial.zero(4)
        assert (f * zero).is_zero() and (zero * f).is_zero()
        assert (zero * zero).is_zero()


class TestProductSum:
    @pytest.mark.parametrize("arity", [1, 3, 12])
    @pytest.mark.parametrize("integral", [True, False])
    def test_random(self, rng, arity, integral):
        for _ in range(100):
            parts = []
            for _ in range(rng.randint(0, 4)):
                a = rng.choice([-2, -1, 1, 3]) if integral else \
                    Fraction(rng.choice([-1, 1, 5]), rng.choice([1, 2, 3]))
                parts.append((a, factor(rng, arity, integral), factor(rng, arity, integral)))
            assert typed(_product_sum(arity, iter(parts))) == reference(parts)

    def test_zero_factor_and_no_parts(self, rng):
        f = random_polynomial(rng, 3, 4, 6, allow_zero=False)
        g = random_polynomial(rng, 3, 4, 6, allow_zero=False)
        zero = Polynomial.zero(3)
        assert _product_sum(3, []) == zero
        assert _product_sum(3, [(1, zero, f), (2, g, zero)]) == zero
        assert typed(_product_sum(3, [(1, f, g), (5, zero, g)])) == reference([(1, f, g)])

    def test_cancels_to_zero(self, rng):
        for _ in range(50):
            f = random_polynomial(rng, 4, 4, 6)
            g = random_polynomial(rng, 4, 4, 6)
            assert _product_sum(4, [(1, f, g), (-1, g, f)]).is_zero()
            assert _product_sum(4, [(Fraction(1, 2), f, g + g), (-1, f, g)]).is_zero()

    def test_vanishing_sum_unpacks_nothing(self, monkeypatch):
        packers = poly._packers

        def no_unpack(arity, width):
            pack, _ = packers(arity, width)

            def unpack(k):
                raise AssertionError("a vanishing sum has no term to unpack")
            return pack, unpack

        monkeypatch.setattr(poly, "_packers", no_unpack)
        for k in range(1, 6):
            assert symfunc.hkn_identity_defect(k, 6).is_zero()
            assert symfunc.newton_defect(k, 6).is_zero()


# -- the four defects, each restated as its (sign, factor, factor) triples

def x_power(i, ell, arity):
    return Polynomial(arity, [(monomial(arity, [0] * (i - 1) + [ell]), 1)])


def hkn_parts(k, n):
    ar = max(n, 1)
    return [((-1) ** i, symfunc.elementary(i, n, ar), symfunc.homogeneous(k - i, n - k + 1, ar))
            for i in range(k + 1)]


def ekn_parts(k, n):
    ar = max(n, 1)
    return [(1, symfunc.elementary(k, n, ar), Polynomial.one(ar))] + [
        ((-1) ** i, symfunc.homogeneous(i, n - i + 1, ar), symfunc.elementary(k - i, n - i, ar))
        for i in range(1, k + 1)]


def telescope_parts(j, n):
    ar = max(n, 1)
    return [(1, x_power(n - j + 1, ell, ar), symfunc.homogeneous(j - ell, n - j, ar))
            for ell in range(j + 1)] + [
        (-1, symfunc.homogeneous(j, n - j + 1, ar), Polynomial.one(ar))]


def newton_parts(k, n):
    ar = max(n, 1)
    return [((-1) ** r, symfunc.elementary(r, n, ar), symfunc.powersum(k - r, n, ar))
            for r in range(k)] + [((-1) ** k * k, symfunc.elementary(k, n, ar), Polynomial.one(ar))]


DEFECTS = [
    (symfunc.hkn_identity_defect, hkn_parts, lambda n: range(1, n + 3)),
    (symfunc.ekn_identity_defect, ekn_parts, lambda n: range(1, n + 3)),
    (symfunc.telescope_defect, telescope_parts, lambda n: range(1, n + 1)),
    (symfunc.newton_defect, newton_parts, lambda n: range(1, n + 3)),
]


def perturb(monkeypatch):
    """Add (k+1)/2 x_1^k to every e_k, h_k and p_k: the defects no longer
    vanish, and their coefficients are a mix of ints and Fractions."""
    for name in ("elementary", "homogeneous", "powersum"):
        good = getattr(symfunc, name)

        def build(k, n, arity=None, good=good):
            p = good(k, n, arity)
            return p + Polynomial(p.arity, [(monomial(p.arity, [k]), Fraction(k + 1, 2))])
        monkeypatch.setattr(symfunc, name, build)


@pytest.mark.parametrize("defect, parts, ks", DEFECTS,
                         ids=["hkn", "ekn", "telescope", "newton"])
def test_defects_match_the_reference(monkeypatch, defect, parts, ks):
    for n in range(1, 6):
        for k in ks(n):
            assert defect(k, n).is_zero()
            assert reference(parts(k, n)) == []
    perturb(monkeypatch)
    nonzero = 0
    for n in range(1, 6):
        for k in ks(n):
            got = typed(defect(k, n))
            assert got == reference(parts(k, n))
            nonzero += bool(got)
    assert nonzero > 0


# -- products by a single term, formed by the product kernel, and
# s_polynomial, formed by the S-pair step that Buchberger runs

def nonzero(rng, arity, integral):
    if rng.random() < 0.3:
        p = edge_polynomial(rng, arity, integral)
        if p:  # its terms may cancel
            return p
    return random_polynomial(rng, arity, 4, 6, allow_zero=False, integral=integral)


def s_reference(f, g):
    """(lcm/LM f) f / LC f - (lcm/LM g) g / LC g, through the reference."""
    (fc, fm), (gc, gm) = f.leading_term(), g.leading_term()
    lcm = tuple(map(max, fm, gm))

    def cofactor(m):
        return Polynomial.from_monomial(tuple(a - b for a, b in zip(lcm, m)))
    return reference([(1 / Fraction(fc), cofactor(fm), f),
                      (-1 / Fraction(gc), cofactor(gm), g)])


class TestMulTerm:
    @pytest.mark.parametrize("arity", [1, 2, 12])
    @pytest.mark.parametrize("integral", [True, False])
    def test_random(self, rng, arity, integral):
        for _ in range(150):
            f = factor(rng, arity, integral)
            m = tuple(rng.choice((0, 1, 2, 255, 256)) for _ in range(arity))
            c = rng.choice([1, -2, 3, Fraction(4, 2), Fraction(-1, 3), Fraction(5, 2)])
            assert (typed(f * Polynomial.from_monomial(m, c))
                    == reference([(c, f, Polynomial.from_monomial(m))]))

    def test_field_boundaries(self):
        # a product's fields are one byte wide up to exponent 127, and two
        # from 128 up to 2^15 - 1
        x = Polynomial.from_monomial
        f = Polynomial(2, [((127, 1), 1), ((1, 0), Fraction(1, 2))])
        assert typed(f * x((0, 0), 2)) == [((127, 1), int, 2), ((1, 0), int, 1)]
        assert typed(f * x((1, 0), 1)) == [
            ((128, 1), int, 1), ((2, 0), Fraction, Fraction(1, 2))]
        f = Polynomial(2, [((255, 1), 1), ((1, 0), Fraction(1, 2))])
        assert typed(f * x((0, 0), 2)) == [((255, 1), int, 2), ((1, 0), int, 1)]
        assert typed(f * x((1, 255), 1)) == [
            ((256, 256), int, 1), ((2, 255), Fraction, Fraction(1, 2))]
        assert typed(f * x((255, 0), 1)) == [
            ((510, 1), int, 1), ((256, 0), Fraction, Fraction(1, 2))]

    def test_zero(self, rng):
        f = random_polynomial(rng, 3, 4, 6, allow_zero=False)
        assert (f * Polynomial.from_monomial((1, 2, 3), 0)).is_zero()
        assert (Polynomial.zero(3) * Polynomial.from_monomial((1, 2, 3), 5)).is_zero()


class TestSPolynomial:
    @pytest.mark.parametrize("arity", [1, 2, 12])
    @pytest.mark.parametrize("integral", [True, False])
    def test_random(self, rng, arity, integral):
        for _ in range(150):
            f, g = nonzero(rng, arity, integral), nonzero(rng, arity, integral)
            s = s_polynomial(f, g)
            assert typed(s) == s_reference(f, g)
            lcm = tuple(map(max, f.leading_monomial(), g.leading_monomial()))
            assert lcm not in dict(s.terms)

    def test_field_boundaries(self):
        # S(x2^255 + x1^255, x1^256 x2 + x1) = x1^256 (x2^255 + x1^255)
        # - x2^254 (x1^256 x2 + x1): x1^511 needs a two-byte field
        f = Polynomial(2, [((0, 255), 1), ((255, 0), 1)])
        g = Polynomial(2, [((256, 1), 2), ((1, 0), 1)])
        assert typed(s_polynomial(f, g)) == [
            ((1, 254), Fraction, Fraction(-1, 2)), ((511, 0), int, 1)]
        assert typed(s_polynomial(f, g)) == s_reference(f, g)

    def test_cancels_to_zero(self, rng):
        for arity in (2, 12):
            for _ in range(50):
                p = nonzero(rng, arity, rng.random() < 0.5)
                x1 = Polynomial.variable(1, arity)
                x2 = Polynomial.variable(2, arity)
                # (lcm / x1 LM p) x1 p = (lcm / x2 LM p) x2 p
                assert s_polynomial(x1 * p, x2 * p).is_zero()
                assert s_polynomial(p, p * 3).is_zero()
                assert s_reference(x1 * p, x2 * p) == []


class TestE1ek:
    def test_conjectured_basis_matches_the_reference(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                def e(i, m):
                    return symfunc.elementary(i, m, n)
                parts = [(1, e(1, n - 1), e(k - 1, n - 1)), (-1, e(k, n - 1), Polynomial.one(n))]
                expected = [typed(e(1, n))]
                if reference(parts):
                    lc = reference(parts)[0][2]
                    expected.append(reference([(a / lc, f, g) for a, f, g in parts]))
                assert [typed(p) for p in symfunc.conjectured_gb_e1ek(k, n)] == expected

    def test_reduction_fails_on_a_perturbed_e(self, monkeypatch):
        good = symfunc.elementary
        for n in range(2, 6):
            for k in range(2, n + 1):
                assert symfunc.check_e1ek_reduction(k, n)
                # each e the two identities use, perturbed on its own: the
                # first three break e_{k,n} - e_{k,n-1} = x_n e_{k-1,n-1},
                # the last two only the generator identity
                for one in [(k, n), (k, n - 1), (k - 1, n - 1), (1, n), (1, n - 1)]:
                    def build(i, m, arity=None, one=one):
                        p = good(i, m, arity)
                        if (i, m) != one:
                            return p
                        return p + Polynomial(p.arity, [(monomial(p.arity, [i]), Fraction(1, 2))])
                    monkeypatch.setattr(symfunc, "elementary", build)
                    assert not symfunc.check_e1ek_reduction(k, n), one
                    monkeypatch.setattr(symfunc, "elementary", good)
