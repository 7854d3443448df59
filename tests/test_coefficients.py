"""The int-or-Fraction coefficient invariant on the arithmetic hot paths.

Every result is compared with a plain reference: a dict from monomial to
Fraction, with the arithmetic written out here.  Every stored coefficient
must be an int exactly when it is integral, and a Fraction otherwise: never
a float (which int / int would give) and never a Fraction with denominator 1.
"""

import random
from fractions import Fraction

import pytest

from symgb.groebner import divide
from symgb.poly import Polynomial, parse_polynomial
from conftest import lex_key, mono_divides, random_monomial, random_polynomial

ARITY = 3


def ref(p: Polynomial) -> dict:
    return {m: Fraction(c) for m, c in p.terms}


def ref_clean(d: dict) -> dict:
    return {m: c for m, c in d.items() if c}


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_scale(a: dict, c: Fraction) -> dict:
    return ref_clean({m: v * c for m, v in a.items()})


def assert_canonical(p: Polynomial, expected: dict) -> None:
    for m, c in p.terms:
        assert len(m) == p.arity
        if type(c) is int:
            assert c != 0
        else:
            assert type(c) is Fraction, f"{type(c).__name__} coefficient {c!r}"
            assert c.denominator != 1, f"integral Fraction {c!r}"
    keys = [lex_key(m) for m, _ in p.terms]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
    assert {m: c for m, c in p.terms} == expected


def polys(seed: int, count: int, integral: bool):
    rng = random.Random(seed)
    return [random_polynomial(rng, ARITY, 3, 5, integral=integral)
            for _ in range(count)]


# integer and rational inputs, and the two mixed
CASES = [(True, True), (False, False), (True, False), (False, True)]
# True is an int subclass: it must act as 1, not reach a float through 1 / True
SCALARS = [2, -3, 1, True, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2), Fraction(3)]


@pytest.mark.parametrize("left_int,right_int", CASES)
def test_ring_operations(left_int, right_int):
    for seed in range(20):
        a, = polys(seed, 1, left_int)
        b, = polys(1000 + seed, 1, right_int)
        assert_canonical(a + b, ref_add(ref(a), ref(b)))
        assert_canonical(a - b, ref_add(ref(a), ref(b), -1))
        assert_canonical(-a, ref_scale(ref(a), Fraction(-1)))
        assert_canonical(a * b, ref_mul(ref(a), ref(b)))
        assert_canonical(a - a, {})


@pytest.mark.parametrize("integral", [True, False])
def test_scalar_operations(integral):
    for seed, a in enumerate(polys(7, 20, integral)):
        for c in SCALARS:
            assert_canonical(a * c, ref_scale(ref(a), Fraction(c)))
            assert_canonical(c * a, ref_scale(ref(a), Fraction(c)))
            m = random_monomial(random.Random(seed), ARITY, 2)
            assert_canonical(a * Polynomial.from_monomial(m, c),
                             ref_mul(ref(a), {m: Fraction(c)}))
        if not a.is_zero():
            lc = Fraction(a.leading_coefficient())
            assert_canonical(a.monic(), ref_scale(ref(a), 1 / lc))


def test_integral_results_of_fractions_are_ints():
    half = parse_polynomial("1/2*x1+3/2", 1)
    assert (half * 2).terms == (((1,), 1), ((0,), 3))
    assert (half + half).terms == (((1,), 1), ((0,), 3))
    assert parse_polynomial("2*x1+3", 1).monic().terms == (
        ((1,), 1), ((0,), Fraction(3, 2)))
    assert Polynomial(1, [((0,), Fraction(6, 3))]).terms == (((0,), 2),)


NON_MONIC = ["2*x1+3", "3*x2^2-x1", "-2*x3*x1+x2", "2*x3^2+3*x2-1"]


def check_division(f: Polynomial, divisors: list) -> None:
    result = divide(f, divisors)
    total = ref(result.remainder)
    for q, d in zip(result.quotients, divisors):
        assert_canonical(q, ref(q))
        total = ref_add(total, ref_mul(ref(q), ref(d)))
    assert_canonical(result.remainder, ref(result.remainder))
    assert total == ref(f), "f = sum(a_i f_i) + r must hold exactly"
    lms = [d.leading_monomial() for d in divisors]
    for m, _ in result.remainder.terms:
        assert not any(mono_divides(lm, m) for lm in lms)


@pytest.mark.parametrize("integral", [True, False])
def test_divide_by_non_monic_integer_divisors(integral):
    rng = random.Random(314)
    for _ in range(40):
        f = random_polynomial(rng, ARITY, 4, 6, integral=integral)
        divisors = [parse_polynomial(t, ARITY)
                    for t in rng.sample(NON_MONIC, rng.randint(1, 3))]
        check_division(f, divisors)


@pytest.mark.parametrize("integral", [True, False])
def test_divide_by_random_divisors(integral):
    rng = random.Random(2011)
    for _ in range(40):
        f = random_polynomial(rng, ARITY, 4, 6, integral=integral)
        divisors = [random_polynomial(rng, ARITY, 2, 3, allow_zero=False,
                                      integral=integral)
                    for _ in range(rng.randint(1, 3))]
        check_division(f, divisors)


def test_integer_division_with_a_fractional_quotient():
    f = parse_polynomial("x1^2", 1)
    result = divide(f, [parse_polynomial("2*x1+3", 1)])
    assert result.quotients[0].terms == (
        ((1,), Fraction(1, 2)), ((0,), Fraction(-3, 4)))
    assert result.remainder.terms == (((0,), Fraction(9, 4)),)
