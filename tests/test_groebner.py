import random
from fractions import Fraction
from itertools import permutations

import pytest

from symgb.groebner import (
    GroebnerBasis,
    GroebnerStats,
    ZeroIdealError,
    buchberger,
    divide,
    is_groebner_basis,
    is_reduced,
    normal_form,
    reduce_basis,
    reduced_groebner_basis,
    s_polynomial,
)
from symgb.poly import (
    Polynomial,
    ZeroPolynomialError,
    lex_key,
    mono_divides,
    parse_polynomial,
)
from symgb.symfunc import conjectured_gb_e1ek, conjectured_gb_ek, elementary, homogeneous
from conftest import random_polynomial


def P(text, arity=3):
    return parse_polynomial(text, arity)


def check_division_contract(f, divisors, result):
    recon = result.remainder
    for q, d in zip(result.quotients, divisors):
        recon = recon + q * d
    assert recon == f, "f = sum(a_i f_i) + r must reconstruct the dividend"
    lms = [d.leading_monomial() for d in divisors]
    for m, _ in result.remainder.terms:
        assert not any(mono_divides(lm, m) for lm in lms), \
            "remainder monomial divisible by a divisor leading monomial"
    if not f.is_zero():
        lt = f.leading_monomial()
        for q, d in zip(result.quotients, divisors):
            prod = q * d
            if not prod.is_zero():
                assert lex_key(lt) >= lex_key(prod.leading_monomial())


class TestDivision:
    def test_spec_example(self):
        divisors = [P("x3+x2+x1"), P("x2^2+x1*x2+x1^2")]
        res = divide(P("x3^2"), divisors)
        assert list(res.quotients) == [P("x3-x2-x1"), P("1")]
        assert res.remainder == P("x1*x2")
        check_division_contract(P("x3^2"), divisors, res)

    def test_divide_by_self(self):
        f = P("x2^2+x1-3")
        res = divide(f, [f])
        assert list(res.quotients) == [Polynomial.one(3)]
        assert res.remainder.is_zero()

    def test_no_divisibility(self):
        res = divide(P("x1"), [P("x2")])
        assert res.quotients[0].is_zero()
        assert res.remainder == P("x1")

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            divide(P("x1"), [Polynomial.zero(3)])

    def test_first_divisor_wins(self):
        # both x2 and x2+x1 divide the lead; list order decides
        res1 = divide(P("x2^2"), [P("x2"), P("x2+x1")])
        assert res1.quotients[1].is_zero()
        res2 = divide(P("x2^2"), [P("x2+x1"), P("x2")])
        assert not res2.quotients[0].is_zero()

    def test_contract_randomized(self, rng):
        for _ in range(500):
            arity = rng.randint(1, 4)
            f = random_polynomial(rng, arity, 4, 5)
            divisors = [random_polynomial(rng, arity, 3, 3, allow_zero=False)
                        for _ in range(rng.randint(1, 3))]
            check_division_contract(f, divisors, divide(f, divisors))


class TestSPolynomial:
    def test_self_cancels(self):
        f = P("x2^2+x1")
        assert s_polynomial(f, f).is_zero()

    def test_homogeneous_pair(self):
        # S(h_{1,3}, h_{2,2}) = x2^2 h_{1,3} - x3 h_{2,2}
        h13 = homogeneous(1, 3, 3)
        h22 = homogeneous(2, 2, 3)
        expected = P("x2^2") * h13 - P("x3") * h22
        assert s_polynomial(h13, h22) == expected

    def test_two_variable(self):
        assert s_polynomial(P("x2+x1", 2), P("x2-x1", 2)) == P("2*x1", 2)

    def test_zero_input(self):
        with pytest.raises(ZeroPolynomialError):
            s_polynomial(P("x1"), Polynomial.zero(3))


class TestBuchberger:
    def test_single_monomial(self):
        gb = buchberger([P("x1")])
        assert list(gb.elements) == [P("x1")]

    def test_elementary_n3(self):
        gens = [elementary(i, 3) for i in (1, 2, 3)]
        gb = reduce_basis(buchberger(gens))
        assert list(gb.elements) == [
            P("x3+x2+x1"), P("x2^2+x1*x2+x1^2"), P("x1^3")]
        assert is_reduced(gb.elements)

    def test_duplicate_generator(self):
        f = P("2*x1*x2+x1")
        gb = reduce_basis(buchberger([f, f]))
        assert list(gb.elements) == [f.monic()]

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdealError):
            buchberger([])
        with pytest.raises(ZeroIdealError):
            buchberger([Polynomial.zero(3)])

    def test_generators_reduce_to_zero(self, rng):
        for _ in range(50):
            gens = [random_polynomial(rng, 3, 3, 3, allow_zero=False)
                    for _ in range(rng.randint(1, 3))]
            gb = buchberger(gens)
            for g in gens:
                assert normal_form(g, gb).is_zero()
            assert is_groebner_basis(list(gb.elements))

    def test_output_ideal_matches_permuted_rerun(self, rng):
        # independent re-run with permuted generators and the pair criteria
        # disabled certifies membership of every output element
        for arity in (3,) * 25 + (4,) * 25:
            gens = [random_polynomial(rng, arity, 3, 3, allow_zero=False)
                    for _ in range(rng.randint(2, 3))]
            gb = buchberger(gens)
            other = buchberger(list(reversed(gens)), product_criterion=False)
            for g in gb.elements:
                assert normal_form(g, other).is_zero()
            assert reduce_basis(gb) == reduce_basis(other)

    def test_unit_ideal(self):
        gb = reduce_basis(buchberger([P("x1+1"), P("x1")]))
        assert list(gb.elements) == [Polynomial.one(3)]

    def test_no_zero_reductions_on_the_paper_ideal(self):
        for n in range(1, 8):
            gb = buchberger([elementary(i, n) for i in range(1, n + 1)])
            s = gb.stats
            assert s.zero_reductions == 0, n
            # every pair formed is skipped or reduced, and each reduction
            # adds one element h_{i,n-i+1}, i >= 2
            assert s.pairs == s.product_skipped + s.chain_skipped + s.reductions
            assert s.reductions == n - 1
            assert reduce_basis(gb).elements == tuple(conjectured_gb_ek(n, n))

    def test_reference_path_processes_every_pair(self):
        gens = [elementary(i, 4) for i in range(1, 5)]
        fast = buchberger(gens)
        ref = buchberger(gens, product_criterion=False)
        assert ref.stats.product_skipped == ref.stats.chain_skipped == 0
        # no element leaves the basis, so every remainder is one more element
        assert len(ref) == ref.stats.peak_basis == (
            len(gens) + ref.stats.reductions - ref.stats.zero_reductions)
        assert ref.stats.pairs == len(ref) * (len(ref) - 1) // 2
        assert ref.stats.zero_reductions > fast.stats.zero_reductions == 0
        assert reduce_basis(ref) == reduce_basis(fast)

    def test_stats_are_not_part_of_the_value(self):
        gb = buchberger([elementary(i, 3) for i in (1, 2, 3)])
        reduced = reduce_basis(gb)
        assert reduced.stats is gb.stats
        bare = GroebnerBasis(3, reduced.elements)
        assert bare == reduced and hash(bare) == hash(reduced)
        assert GroebnerStats().record() == (
            "pairs=0 product_skipped=0 chain_skipped=0 reductions=0 "
            "zero_reductions=0 peak_basis=0")


def to_sympy(sympy, p):
    """p as a sympy Poly over QQ in x_n > ... > x_1."""
    xs = sympy.symbols(f"x1:{p.arity + 1}")[::-1]
    return sympy.Poly.from_dict(
        {m[::-1]: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms},
        *xs, domain=sympy.QQ)


def from_sympy(arity, poly):
    return Polynomial(arity, [(m[::-1], Fraction(int(c.p), int(c.q)))
                              for m, c in poly.terms() if c])


def sympy_groebner(sympy, gens):
    xs = sympy.symbols(f"x1:{gens[0].arity + 1}")[::-1]
    return sympy.groebner([to_sympy(sympy, g) for g in gens], *xs,
                          order="lex", domain=sympy.QQ)


def sympy_reduced_basis(sympy, gens):
    """sympy.groebner over QQ in lex with x_n > ... > x_1, as symgb polynomials."""
    arity = gens[0].arity
    basis = [from_sympy(arity, p).monic()
             for p in sympy_groebner(sympy, gens).polys]
    return sorted(basis, key=lambda g: lex_key(g.leading_monomial()), reverse=True)


class TestAgainstSympy:
    def test_random_rational_ideals(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1988)
        proper = 0
        for arity in (3,) * 15 + (4,) * 15:
            gens = [random_polynomial(rng, arity, 3, 4, allow_zero=False)
                    for _ in range(rng.randint(2, 3))]
            gb = reduced_groebner_basis(gens)
            assert list(gb.elements) == sympy_reduced_basis(sympy, gens)
            proper += gb.elements[0].leading_monomial() != (0,) * arity
        assert proper >= 15  # most cases are not the unit ideal

    def test_ideal_that_first_in_first_out_selection_stalls_on(self):
        # with the Gebauer-Moller deletions, first-in-first-out selection
        # makes 19 reductions here and spends seconds on huge coefficients;
        # least-lcm selection makes 13 and finishes in milliseconds
        sympy = pytest.importorskip("sympy")
        gens = [P("3/2*x2*x3^2-x1*x3+3*x2"), P("-3*x1*x2-1/6"),
                P("-x3^3-3*x1+2/3")]
        gb = reduced_groebner_basis(gens)
        assert gb.stats.reductions <= 13
        assert list(gb.elements) == sympy_reduced_basis(sympy, gens)
        assert reduce_basis(buchberger(gens, product_criterion=False)) == gb


    def test_normal_forms(self):
        # the normal form modulo a Groebner basis is unique, so symgb's
        # remainder must equal sympy's whatever the division order
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1965)
        for arity in (2,) * 10 + (3,) * 10:
            gens = [random_polynomial(rng, arity, 2, 3, allow_zero=False)
                    for _ in range(rng.randint(1, 3))]
            gb = reduced_groebner_basis(gens)
            theirs = sympy_groebner(sympy, gens)
            for _ in range(3):
                f = random_polynomial(rng, arity, 4, 6)
                _, r = theirs.reduce(to_sympy(sympy, f))
                assert normal_form(f, gb) == from_sympy(arity, r)

    def test_products(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1988)
        for arity in (1, 2, 3, 4) * 10:
            integral = rng.random() < 0.5
            a, b = (random_polynomial(rng, arity, 4, 6, integral=integral)
                    for _ in range(2))
            product = from_sympy(arity, to_sympy(sympy, a) * to_sympy(sympy, b))
            assert a * b == product


class TestReduceBasis:
    def test_redundant_element(self):
        gb = buchberger([P("x1"), P("2*x1")])
        assert list(reduce_basis(gb).elements) == [P("x1")]

    def test_e1_e2_n4(self):
        gb = reduced_groebner_basis([elementary(1, 4), elementary(2, 4)])
        assert list(gb.elements) == [homogeneous(1, 4), homogeneous(2, 3, 4)]

    def test_e1_e3_n4(self):
        gb = reduced_groebner_basis([elementary(1, 4), elementary(3, 4)])
        assert list(gb.elements) == conjectured_gb_e1ek(3, 4)

    def test_uniqueness_under_permutation(self, rng):
        for _ in range(20):
            gens = [random_polynomial(rng, 3, 3, 3, allow_zero=False)
                    for _ in range(rng.randint(2, 3))]
            bases = {reduce_basis(buchberger(list(p)))
                     for p in permutations(gens)}
            assert len(bases) == 1

    def test_tails_needing_reduction(self, rng):
        # adding scalar multiples of elements with smaller leading monomials
        # keeps every leading monomial, so the input is still a Groebner
        # basis, but its tails need reduction
        def untidy(elements):
            out = []
            for i, g in enumerate(elements):
                for h in elements[i + 1:]:
                    g = g + h * rng.choice([-2, 1, 3])
                out.append(g * rng.choice([2, -3]))
            return tuple(out[::-1])

        expected = conjectured_gb_ek(3, 3)
        gb = reduce_basis(GroebnerBasis(3, untidy(expected)))
        assert list(gb.elements) == expected
        for _ in range(20):
            gens = [random_polynomial(rng, 3, 3, 3, allow_zero=False)
                    for _ in range(rng.randint(2, 3))]
            reduced = reduce_basis(buchberger(gens))
            gb = reduce_basis(GroebnerBasis(3, untidy(reduced.elements)))
            assert gb == reduced
            assert is_reduced(list(gb.elements))

    def test_result_is_reduced(self, rng):
        for _ in range(20):
            gens = [random_polynomial(rng, 3, 3, 3, allow_zero=False)
                    for _ in range(2)]
            gb = reduce_basis(buchberger(gens))
            assert is_reduced(list(gb.elements))
            assert is_groebner_basis(list(gb.elements))


class TestNormalForm:
    def test_generator_in_ideal(self):
        gb = reduced_groebner_basis([elementary(1, 3), elementary(2, 3)])
        assert normal_form(elementary(2, 3), gb).is_zero()

    def test_unit_not_in_proper_ideal(self):
        gb = reduced_groebner_basis([elementary(1, 3), elementary(2, 3)])
        assert normal_form(Polynomial.one(3), gb) == Polynomial.one(3)

    def test_h23_in_ideal(self):
        gb = GroebnerBasis(3, (homogeneous(1, 3), homogeneous(2, 2, 3)))
        assert normal_form(homogeneous(2, 3), gb).is_zero()

    def test_idempotent(self, rng):
        gb = reduced_groebner_basis([elementary(1, 3), elementary(2, 3)])
        for _ in range(100):
            f = random_polynomial(rng, 3, 4, 5)
            r = normal_form(f, gb)
            assert normal_form(r, gb) == r


class TestCriterionCheckers:
    def test_closed_form_basis_passes(self):
        basis = conjectured_gb_ek(3, 3)
        assert is_groebner_basis(basis)
        assert is_reduced(basis)

    def test_reducedness_counterexample(self):
        assert not is_reduced([P("x1*x2"), P("x1")])

    def test_criterion_counterexample(self):
        assert not is_groebner_basis([P("x2^2-x1"), P("x2*x1")])
