"""The packed reduction kernel behind ``divide``, against a plain reference
written here: exponent tuples in a dict of Fractions, the lex-largest
monomial taken first with ``max``, the first divisor whose leading monomial
divides it used, and tuples compared componentwise."""

from fractions import Fraction

import pytest

from symgb.groebner import divide
from symgb.poly import Polynomial
from conftest import mono_divides, random_polynomial

# exponents at the guard bit of a 1-byte field (127 | 128), at the top of a
# plain byte (255 | 256), at the guard bit of an 8-byte field (2^63) and
# past it; the CLI accepts x1^99999999999999999999
EDGE_EXPONENTS = (126, 127, 128, 254, 255, 256, 2**63, 10**20)


def typed_terms(acc):
    """Nonzero terms of a monomial -> Fraction dict in decreasing lex order,
    as (monomial, type, value) with type int for an integral value."""
    terms = sorted(((m, c) for m, c in acc.items() if c),
                   key=lambda t: t[0][::-1], reverse=True)
    return [(m, int if c.denominator == 1 else Fraction, c) for m, c in terms]


def typed(p):
    """The terms of p with each coefficient's type, so that an integral
    Fraction does not pass for an int."""
    return [(m, type(c), c) for m, c in p.terms]


def reference(f, divisors):
    """(typed quotients, typed remainder) of f divided by the divisors."""
    work = {m: Fraction(c) for m, c in f.terms}
    quotients = [{} for _ in divisors]
    remainder = {}
    while work:
        m = max(work, key=lambda m: m[::-1])
        c = work.pop(m)
        for q, d in zip(quotients, divisors):
            (lm, lc), *tail = d.terms
            if all(a <= b for a, b in zip(lm, m)):
                t = tuple(b - a for a, b in zip(lm, m))
                q[t] = c / lc
                for dm, dc in tail:
                    mm = tuple(a + b for a, b in zip(t, dm))
                    work[mm] = work.get(mm, 0) - q[t] * dc
                    if not work[mm]:
                        del work[mm]
                break
        else:
            remainder[m] = c
    return [typed_terms(q) for q in quotients], typed_terms(remainder)


def check(f, divisors):
    result = divide(f, divisors)
    quotients, remainder = reference(f, divisors)
    assert [typed(q) for q in result.quotients] == quotients
    assert typed(result.remainder) == remainder
    total = result.remainder
    for q, d in zip(result.quotients, divisors):
        total = total + q * d
    assert total == f
    lms = [d.leading_monomial() for d in divisors]
    assert not any(mono_divides(lm, m)
                   for m, _ in result.remainder.terms for lm in lms)


def monomial(arity, exps):
    """x_1^e_1 x_2^e_2 ... for the leading exponents given."""
    return tuple(exps) + (0,) * (arity - len(exps))


def stretched(p, scales):
    """p(x_1^s_1, ..., x_n^s_n).  The substitution keeps lex order,
    divisibility and products, so a division by stretched divisors takes the
    same steps on larger exponents."""
    return Polynomial(p.arity, [(tuple(e * s for e, s in zip(m, scales)), c)
                                for m, c in p.terms])


class TestAgainstReference:
    @pytest.mark.parametrize("arity", [1, 2, 3, 12])
    @pytest.mark.parametrize("integral", [True, False])
    def test_random(self, rng, arity, integral):
        for _ in range(60):
            f = random_polynomial(rng, arity, 6, 8, integral=integral)
            divisors = [random_polynomial(rng, arity, 3, 4, allow_zero=False,
                                          integral=integral)
                        for _ in range(rng.randint(1, 4))]
            check(f, divisors)

    @pytest.mark.parametrize("arity", [1, 2, 3, 12])
    @pytest.mark.parametrize("integral", [True, False])
    def test_edge_exponents(self, rng, arity, integral):
        # each variable stretched by an edge exponent or left alone, so that
        # inputs and remainders sit at and across the field boundaries
        for _ in range(60):
            scales = [rng.choice(EDGE_EXPONENTS + (1, 1, 2)) for _ in range(arity)]
            f = random_polynomial(rng, arity, 6, 8, integral=integral)
            divisors = [random_polynomial(rng, arity, 3, 4, allow_zero=False,
                                          integral=integral)
                        for _ in range(rng.randint(1, 4))]
            check(stretched(f, scales), [stretched(d, scales) for d in divisors])

    def test_fraction_quotients_of_int_polynomials(self):
        f = Polynomial(2, [((2, 1), 3), ((0, 0), 1)])
        d = Polynomial(2, [((1, 1), 2), ((1, 0), 1)])
        check(f, [d])
        assert typed(divide(f, [d]).quotients[0]) == [((1, 0), Fraction, Fraction(3, 2))]


class TestOverflow:
    @pytest.mark.parametrize("e", EDGE_EXPONENTS)
    @pytest.mark.parametrize("arity", [2, 3, 12])
    def test_reduction_reaches_the_exponent(self, arity, e):
        # x2 - x1^a turns x1^c x2^b into x1^e: with b = 1 the input holds e
        # itself, and with b = 2 only about e/2, so the fields start narrow
        # and the reduction has to cross the boundary
        for b in (1, 2):
            a, c = divmod(e, b)
            f = Polynomial(arity, [(monomial(arity, [c, b]), 1),
                                   (monomial(arity, [0, 0, 1][:arity]), 1)])
            d = Polynomial(arity, [(monomial(arity, [0, 1]), 1),
                                   (monomial(arity, [a]), -1)])
            check(f, [d])
            assert (monomial(arity, [e]), 1) in divide(f, [d]).remainder.terms

    @pytest.mark.parametrize("a, b", [(100, 1000), (10**20, 10**4)])
    def test_repacks_more_than_once(self, a, b):
        # x2 - x1^a turns x2^b into x1^(a b) one x2 at a time, across two
        # field widths: 1, 2 and 3 bytes from x1^100, and 9, 10 and 11
        # bytes from x1^(10^20)
        d = Polynomial(2, [((0, 1), 1), ((a, 0), -1)])
        f = Polynomial(2, [((0, b), 1)])
        assert typed(divide(f, [d]).remainder) == [((a * b, 0), int, 1)]
        check(f, [d])

    def test_overflow_in_a_lower_variable_keeps_the_order(self):
        # x1 overflows under x3: an unguarded carry would raise x2
        d = Polynomial(3, [((0, 0, 1), 1), ((100, 0, 0), 1)])
        f = Polynomial(3, [((100, 0, 1), 1), ((0, 1, 0), 1), ((127, 0, 0), 1)])
        check(f, [d])
        assert typed(divide(f, [d]).remainder) == [
            ((0, 1, 0), int, 1), ((200, 0, 0), int, -1), ((127, 0, 0), int, 1)]


def with_leading_coefficient(p, lc):
    """p with its leading coefficient replaced by lc."""
    (m, _), *tail = p.terms
    return Polynomial(p.arity, [(m, lc), *tail])


# leading coefficients that the reduction has to scale the work for
LEADING = (Fraction(-1), Fraction(-2), Fraction(3), Fraction(-3, 2),
           Fraction(5, 3), Fraction(-7, 4))


class TestRationalDivisors:
    @pytest.mark.parametrize("arity", [1, 2, 3, 12])
    def test_non_unit_and_negative_leading_coefficients(self, rng, arity):
        for _ in range(60):
            f = random_polynomial(rng, arity, 6, 8)
            divisors = [with_leading_coefficient(
                random_polynomial(rng, arity, 3, 4, allow_zero=False),
                rng.choice(LEADING)) for _ in range(rng.randint(1, 4))]
            check(f, divisors)

    @pytest.mark.parametrize("arity", [2, 3, 12])
    def test_edge_exponents(self, rng, arity):
        for _ in range(40):
            scales = [rng.choice(EDGE_EXPONENTS + (1, 1, 2)) for _ in range(arity)]
            f = random_polynomial(rng, arity, 6, 8)
            divisors = [with_leading_coefficient(
                random_polynomial(rng, arity, 3, 4, allow_zero=False),
                rng.choice(LEADING)) for _ in range(rng.randint(1, 4))]
            check(stretched(f, scales), [stretched(d, scales) for d in divisors])

    @pytest.mark.parametrize("a, b", [(100, 6), (10**20, 30)])
    def test_repack_after_scaling(self, a, b):
        # the divisor is -1/14 times 21 x2 - 10 x1^a, so the reduction
        # scales the work by 21 until x2^b reaches x1^(a b), one x2 at a
        # time; the exponents outgrow their fields (past 127, and past
        # 2^71) after the work and the remainder have been scaled
        d = Polynomial(2, [((0, 1), Fraction(-3, 2)), ((a, 0), Fraction(5, 7))])
        f = Polynomial(2, [((0, b), Fraction(1, 5)), ((1, 1), 2), ((3, 0), -1)])
        check(f, [d])
        remainder = divide(f, [d]).remainder
        assert remainder.leading_term() == (
            Fraction(1, 5) * Fraction(10, 21) ** b, (a * b, 0))
