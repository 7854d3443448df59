import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symgb import poly
from symgb.poly import (
    ArityMismatchError,
    PolyParseError,
    Polynomial,
    ZeroPolynomialError,
    format_polynomial,
    parse_polynomial,
)
from conftest import (
    lex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    random_polynomial,
)

monomials3 = st.tuples(*([st.integers(0, 6)] * 3))
ONE3 = (0, 0, 0)


def P(text, arity=3):
    return parse_polynomial(text, arity)


def cmp(a, b):
    """-1, 0 or 1 as a <, =, > b under lex."""
    ka, kb = lex_key(a), lex_key(b)
    return (ka > kb) - (ka < kb)


class TestMonomialOps:
    def test_compare_examples(self):
        assert cmp((0, 0, 1), (0, 5, 0)) == 1
        assert cmp((1, 0), (1, 0)) == 0
        assert cmp((0, 2, 0), (1, 1, 0)) == 1
        assert lex_key((1, 2, 3)) == (3, 2, 1)

    def test_mul_examples(self):
        assert mono_mul((1, 1, 0), (1, 0, 0)) == (2, 1, 0)
        m = (3, 1, 2)
        assert mono_mul(m, ONE3) == m
        assert mono_mul((0, 0, 2), (0, 0, 1)) == (0, 0, 3)

    def test_divides_and_div(self):
        assert mono_divides((0, 1, 0), (1, 2, 0))
        assert mono_div((1, 2, 0), (0, 1, 0)) == (1, 1, 0)
        assert not mono_divides((0, 0, 1), (0, 2, 0))
        m = (2, 0, 1)
        assert mono_divides(ONE3, m)
        assert mono_div(m, ONE3) == m

    def test_lcm_examples(self):
        assert mono_lcm((0, 0, 1), (0, 2, 0)) == (0, 2, 1)
        m = (1, 2, 3)
        assert mono_lcm(m, m) == m
        assert mono_lcm((2, 1, 0), (0, 3, 0)) == (2, 3, 0)

    @given(a=monomials3, b=monomials3, w=monomials3)
    def test_order_axioms(self, a, b, w):
        cab = cmp(a, b)
        assert cab == -cmp(b, a)
        assert (cab == 0) == (a == b)
        # multiplicative
        assert cmp(mono_mul(a, w), mono_mul(b, w)) == cab
        # 1 is the unique minimum
        if a != ONE3:
            assert cmp(a, ONE3) == 1

    @given(a=monomials3, b=monomials3, c=monomials3)
    def test_order_transitive(self, a, b, c):
        if cmp(a, b) >= 0 and cmp(b, c) >= 0:
            assert cmp(a, c) >= 0

    @given(a=monomials3, b=monomials3)
    def test_div_inverts_mul(self, a, b):
        assert mono_div(mono_mul(a, b), a) == b


class TestArithmetic:
    def test_add_examples(self):
        assert P("x1") + P("x2") + (P("x1") - P("x2")) == P("2*x1")
        f = P("x1^2-x2")
        assert f + Polynomial.zero(3) == f
        assert (P("x2^2") + P("-x2^2")).is_zero()
        assert str(3 - P("x1", 2)) == "-x1+3"
        with pytest.raises(TypeError):
            P("x1", 2) + "a"

    def test_mul_examples(self):
        assert P("x1+x2") * P("x1+x2") == P("x1^2+2*x1*x2+x2^2")
        f = P("x3-2*x1")
        assert f * Polynomial.one(3) == f
        assert Polynomial.one(2) == 1 and not P("x1", 2) == 1
        assert P("x1+x2") * P("x1-x2") == P("x1^2-x2^2")

    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("c", [0, 1, -3, Fraction(1, 2)])
    def test_constant_is_the_number_it_equals(self, c, arity):
        # equal objects hash alike, so a constant and its number are one
        # element of a set and one key of a dict
        p = Polynomial.constant(c, arity)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1 and {c: "v"}[p] == "v"

    def test_leading_term(self):
        c, m = P("x3+x2+x1").leading_term()
        assert (c, m) == (1, (0, 0, 1))
        c, m = P("x2^2+x1*x2+x1^2").leading_term()
        assert (c, m) == (1, (0, 2, 0))
        c, m = P("-3*x1").leading_term()
        assert (c, m) == (-3, (1, 0, 0))
        with pytest.raises(ZeroPolynomialError):
            Polynomial.zero(3).leading_term()

    def test_monic(self):
        assert P("2*x1+4").monic() == P("x1+2")
        assert P("x3").monic() == P("x3")
        assert P("-x2^2+x1").monic() == P("x2^2-x1")
        with pytest.raises(ZeroPolynomialError):
            Polynomial.zero(3).monic()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            P("x1", 2) + P("x1", 3)
        with pytest.raises(ArityMismatchError):
            P("x1", 2) * P("x1", 3)
        with pytest.raises(ArityMismatchError):
            Polynomial(2, [((1, 2, 3), 1)])

    def test_non_int_exponent_rejected(self):
        # a float exponent used to print as x1^1.5 and fail in the next product
        with pytest.raises(TypeError, match="exponents must be ints"):
            Polynomial(2, [((1.5, 0), 1)])
        with pytest.raises(TypeError, match="exponents must be ints"):
            Polynomial(2, [((Fraction(3), 0), 1)])

    def test_ring_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(1000):
            f = random_polynomial(rng, 3, 3, 4)
            g = random_polynomial(rng, 3, 3, 4)
            h = random_polynomial(rng, 3, 3, 4)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f - f == Polynomial.zero(3)

    def test_canonical_form_uniqueness(self, rng):
        for _ in range(200):
            f = random_polynomial(rng, 3, 3, 4)
            g = random_polynomial(rng, 3, 3, 4)
            assert (f == g) == (f.terms == g.terms)


def fields(p):
    return p.arity, p.width, p.keys, p.coeffs


def raised(build):
    """(type, message) of the error that ``build()`` raises."""
    with pytest.raises(Exception) as info:
        build()
    return info.type, str(info.value)


class TestSingleTerms:
    """``one``, ``constant``, ``variable`` and ``from_monomial`` build one
    term: each must be the polynomial that the public constructor builds
    from the same term, and fail as it does."""

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_equal_to_the_public_constructor(self, arity):
        zero = (0,) * arity
        built = [(Polynomial.one(arity), [(zero, 1)])]
        for c in (0, 5, -1, Fraction(1, 2), Fraction(4, 2), Fraction(0)):
            built.append((Polynomial.constant(c, arity), [(zero, c)]))
        for i in range(1, arity + 1):
            mono = tuple(int(j == i) for j in range(1, arity + 1))
            built.append((Polynomial.variable(i, arity), [(mono, 1)]))
        for e in (0, 1, 127, 128, 300):  # fields of 1, 1, 1, 2 and 2 bytes
            for i in range(arity):
                mono = zero[:i] + (e,) + zero[i + 1:]
                for c in (1, -3, Fraction(2, 3), 0):
                    built.append((Polynomial.from_monomial(mono, c), [(mono, c)]))
                built.append((Polynomial.from_monomial(list(mono)), [(mono, 1)]))
        for p, terms in built:
            q = Polynomial(arity, terms)
            assert fields(p) == fields(q) and hash(p) == hash(q), terms
        widths = {p.width for p, _ in built}
        assert widths == {1, 2}

    def test_same_errors_as_the_public_constructor(self):
        cases = [
            (lambda: Polynomial.one(0), lambda: Polynomial(0, [((), 1)])),
            (lambda: Polynomial.constant(1, 0), lambda: Polynomial(0, [((), 1)])),
            (lambda: Polynomial.constant(1.5, 2),
             lambda: Polynomial(2, [((0, 0), 1.5)])),
            (lambda: Polynomial.from_monomial(()), lambda: Polynomial(0, [((), 1)])),
            (lambda: Polynomial.from_monomial((1.5, 0)),
             lambda: Polynomial(2, [((1.5, 0), 1)])),
            (lambda: Polynomial.from_monomial((2, -1), 0),
             lambda: Polynomial(2, [((2, -1), 0)])),
            (lambda: Polynomial.from_monomial((1, 0), 0.5),
             lambda: Polynomial(2, [((1, 0), 0.5)])),
        ]
        for single, public in cases:
            assert raised(single) == raised(public)
        for i, arity in ((0, 2), (3, 2), (1, 0)):
            assert raised(lambda: Polynomial.variable(i, arity)) == (
                ValueError, f"variable index {i} out of range 1..{arity}")


def outcome(build):
    """The fields and hash of what ``build()`` returns, or the type and
    message of the error it raises."""
    try:
        p = build()
    except Exception as exc:
        return type(exc), str(exc)
    return fields(p), hash(p)


class TestOneConstructor:
    # every term the public constructor takes, the edges of each field width
    # drawn often; a negative exponent and a float are refused by both
    exponent = st.one_of(st.integers(0, 3), st.integers(-1, 2 ** 16),
                         st.sampled_from([127, 128, 2 ** 15 - 1, 2 ** 15]))
    coefficient = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=5),
                            st.sampled_from([0, Fraction(1, 2), Fraction(4, 2),
                                             Fraction(0), True, 0.5, 2.0]))

    # from_monomial packs its one term without the general merge and sort
    @given(st.lists(exponent, max_size=12), coefficient, st.sampled_from([tuple, list]))
    def test_from_monomial_is_the_public_constructor(self, mono, coeff, form):
        assert outcome(lambda: Polynomial.from_monomial(form(mono), coeff)) == outcome(
            lambda: Polynomial(len(mono), [(form(mono), coeff)]))


class TestOneKernelPass:
    """+, - and reflected - each sum their signed operands in one
    ``_product_sum``."""

    a, b = "x1^2-3*x2+1/2", "x3-x1*x2+2/3"

    @pytest.mark.parametrize("op, expected", [
        (lambda a, b: a - b, "x1^2-3*x2-x3+x1*x2-1/6"),
        (lambda a, b: a - 3, "x1^2-3*x2-5/2"),
        (lambda a, b: 3 - a, "-x1^2+3*x2+5/2"),
        (lambda a, b: a + b, "x1^2-3*x2+x3-x1*x2+7/6"),
        (lambda a, b: 3 + a, "x1^2-3*x2+7/2"),
    ], ids=["a-b", "a-3", "3-a", "a+b", "3+a"])
    def test_one_product_sum(self, monkeypatch, op, expected):
        a, b = P(self.a), P(self.b)
        calls, kernel = [], poly._product_sum

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(poly, "_product_sum", counting)
        result = op(a, b)
        monkeypatch.undo()
        assert len(calls) == 1 and result == P(expected)

    @pytest.mark.parametrize("left", [None, "x"])
    def test_reflected_minus_names_the_left_operand_first(self, left):
        with pytest.raises(TypeError, match=(
                rf"^unsupported operand type\(s\) for -: "
                rf"'{type(left).__name__}' and 'Polynomial'$")):
            left - P("x1")


@st.composite
def term_texts(draw):
    """(exponents, coefficient, text of the term without its sign): the
    coefficient unreduced, or left out when it is 1, and each exponent split
    over repeated factors in shuffled order."""
    exps = draw(monomials3)
    factors = []
    for i, e in enumerate(exps, start=1):
        while e:
            part = draw(st.integers(1, e))
            factors.append(f"x{i}^{part}" if part > 1 or draw(st.booleans()) else f"x{i}")
            e -= part
    factors = draw(st.permutations(factors))
    num, den, scale = draw(st.integers(0, 9)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    coeff = Fraction(num, den) * draw(st.sampled_from([1, -1]))
    if factors and num == den and draw(st.booleans()):
        head = []
    elif den * scale == 1:
        head = [str(num)]
    else:
        head = [f"{num * scale}/{den * scale}"]
    return exps, coeff, "*".join(head + list(factors))


class TestTextGrammar:
    def test_canonical_printing(self):
        assert format_polynomial(P("x2*x3+x1*x3+x1*x2")) == "x2*x3+x1*x3+x1*x2"
        assert format_polynomial(Polynomial.zero(3)) == "0"
        assert format_polynomial(P("-x1+1/2")) == "-x1+1/2"
        assert format_polynomial(P("2/4*x1")) == "1/2*x1"
        assert str(P("x1^2*x3-x2")) == "x1^2*x3-x2"
        assert repr(P("x1", 2)) == "Polynomial(2, 'x1')"

    def test_round_trip_random(self, rng):
        for _ in range(500):
            f = random_polynomial(rng, 4, 4, 5)
            assert parse_polynomial(format_polynomial(f), 4) == f

    def test_repeated_factors_multiply(self):
        assert P("x1*x1*x1") == P("x1^3")
        assert P("2*x1^2*x1") == P("2*x1^3")

    @given(st.lists(term_texts(), min_size=1, max_size=6), st.data())
    def test_noncanonical_text(self, terms, data):
        # shuffled and repeated terms, each as written by term_texts
        terms = data.draw(st.permutations(
            terms + data.draw(st.lists(st.sampled_from(terms), max_size=3))))
        text = "".join(("-" if c < 0 else "+") + body for _, c, body in terms)
        expected = Polynomial(3, [(exps, c) for exps, c, _ in terms])
        assert parse_polynomial(text.removeprefix("+"), 3) == expected

    @pytest.mark.parametrize("bad", [
        "", "+x1", "x1++x2", "x0", "x4", "x1^", "y1", "1/0", "3*", "*x1",
        "x1 x2", "x1^-2", "2 3*x1", "x 1", "x1^1 2", "x١", "٣*x1",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(PolyParseError):
            parse_polynomial(bad, 3)

    def test_space_inside_a_token_is_shown_as_written(self):
        for bad, token in (("2 3*x1", "2 3"), ("x1 x2", "x1 x2"),
                           ("x1^1 2", "x1^1 2")):
            with pytest.raises(PolyParseError) as exc:
                parse_polynomial(bad, 3)
            assert str(exc.value) == f"bad token {token!r} in {bad!r}"

    @pytest.mark.parametrize("text, canonical", [
        ("x1 + x2", "x1+x2"), (" x1 * x2 ", "x1*x2"),
        ("1 / 2*x1", "1/2*x1"), ("x1 ^ 2", "x1^2"), (" - x1 -  x2", "-x1-x2"),
    ])
    def test_spaces_around_operators(self, text, canonical):
        assert parse_polynomial(text, 3) == parse_polynomial(canonical, 3)
