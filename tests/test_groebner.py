import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from symgb.groebner import (
    GroebnerBasis,
    GroebnerStats,
    ZeroIdealError,
    _run,
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
    ArityMismatchError,
    Polynomial,
    ZeroPolynomialError,
    parse_polynomial,
)
from symgb.symfunc import (
    conjectured_gb_e1ek,
    conjectured_gb_ek,
    elementary,
    homogeneous,
    powersum,
)
from symgb.verify import TARGETS
from conftest import (
    lex_key,
    mono_divides,
    mono_lcm,
    mono_mul,
    random_coefficient,
    random_monomial,
    random_polynomial,
)


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

    def test_mixed_arities(self):
        with pytest.raises(ArityMismatchError):
            s_polynomial(P("x2+x1", 2), P("x2+x1", 3))


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

    @pytest.mark.parametrize("product_criterion", [True, False])
    def test_generators_of_different_arity(self, product_criterion):
        # leading monomials are compared packed, and packing does not see
        # the arity; x1 + x2 and x1 + x3 would otherwise be mixed up
        with pytest.raises(ArityMismatchError, match="^arity mismatch: 2 vs 3$"):
            buchberger([P("x1+x2", 2), Polynomial.zero(2), P("x1+x3", 3)],
                       product_criterion)

    def test_divisors_and_basis_elements_of_different_arity(self):
        with pytest.raises(ArityMismatchError, match="^arity mismatch: 2 vs 3$"):
            divide(P("x1*x2", 2), [P("x2", 2), P("x1+x3", 3)])
        with pytest.raises(ArityMismatchError, match="^arity mismatch: 2 vs 3$"):
            reduce_basis(GroebnerBasis(2, (P("x1+x2", 2), P("x1+x3", 3))))

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

    def test_generators_enter_reduced(self):
        # x1 enters reduced by x1+1 as the constant -1, which ends the run;
        # a duplicate or a multiple of an element reduces to zero and is
        # dropped; the reference path admits every generator as it is
        gb = buchberger([P("x1+1"), P("x1"), P("x2")])
        assert list(gb) == [Polynomial.one(3)] and gb.stats.pairs == 1
        f = P("2*x1*x2+x1")
        assert list(buchberger([f, f, f * P("x3-1")])) == [f.monic()]
        ref = buchberger([f, f], product_criterion=False)
        assert list(ref) == [f.monic()] * 2 and ref.stats.reductions == 0

    def test_fast_path_against_reference_path(self, rng):
        # each ideal is given again with a duplicate, a multiple and a
        # redundant combination of its generators, and once as the unit
        # ideal: g0 and q g0 + c enter first, and q g0 + c reduces to c
        for arity in (2,) * 15 + (3,) * 15:
            gens = [random_polynomial(rng, arity, 3, 3, allow_zero=False)
                    for _ in range(rng.randint(1, 3))]
            q = random_polynomial(rng, arity, 2, 2, allow_zero=False)
            unit = gens[0] * q + rng.choice([1, Fraction(-2, 3)])
            expected = reduced_groebner_basis(gens)
            for variant in (gens + [gens[0]], [gens[-1] * Fraction(3, 2)] + gens,
                            gens + [gens[0] * q + gens[-1]],
                            [gens[0], unit] + gens[1:]):
                gb = reduced_groebner_basis(variant)
                assert gb == reduce_basis(buchberger(variant, product_criterion=False))
                assert gb == (GroebnerBasis(arity, (Polynomial.one(arity),))
                              if unit in variant else expected)

    def test_no_zero_reductions_on_the_paper_ideal(self):
        # e_i reduced by h_{1,n}, ..., h_{i-1,n-i+2} is (-1)^(i-1) h_{i,n-i+1},
        # whose leading monomial x_{n-i+1}^i is coprime to all the others:
        # every pair is skipped by the product criterion and none is reduced
        for n in range(1, 8):
            gb = buchberger([elementary(i, n) for i in range(1, n + 1)])
            s = gb.stats
            assert s.reductions == s.zero_reductions == s.chain_skipped == 0, n
            assert s.pairs == s.product_skipped == n * (n - 1) // 2
            assert gb.elements == tuple(conjectured_gb_ek(n, n))

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
        # a constant ends only the fast path: on the reference path the pair
        # (x1+1, x1) makes the constant 1, and its own pairs are processed
        gens = [P("x1+1"), P("x1"), P("x2")]
        assert buchberger(gens).stats.record() == (
            "pairs=1 product_skipped=1 chain_skipped=0 reductions=0 "
            "zero_reductions=0 peak_basis=1 peak_coeff_bits=1")
        ref = buchberger(gens, product_criterion=False).stats
        assert (ref.pairs, ref.reductions, ref.zero_reductions) == (6, 3, 2)

    def test_stats_are_not_part_of_the_value(self):
        gb = buchberger([elementary(i, 3) for i in (1, 2, 3)])
        reduced = reduce_basis(gb)
        assert reduced.stats is gb.stats
        bare = GroebnerBasis(3, reduced.elements)
        assert bare == reduced and hash(bare) == hash(reduced)
        assert GroebnerStats().record() == (
            "pairs=0 product_skipped=0 chain_skipped=0 reductions=0 "
            "zero_reductions=0 peak_basis=0 peak_coeff_bits=0")


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

    @pytest.mark.parametrize("target", ["gb-ek", "gb-e1ek"])
    def test_paper_ideals(self, target):
        # every cell of the target to n = 8: <e_1..e_k> or <e_1, e_k>
        sympy = pytest.importorskip("sympy")
        for n in range(1, 9):
            for k in TARGETS[target].ks(n):
                ks = range(1, k + 1) if target == "gb-ek" else (1, k)
                gens = [elementary(i, n) for i in ks]
                assert list(reduced_groebner_basis(gens).elements) == \
                    sympy_reduced_basis(sympy, gens), (k, n)

    def test_ideal_that_first_in_first_out_selection_stalls_on(self):
        # with the Gebauer-Moller deletions, first-in-first-out selection
        # makes 19 reductions here and spends seconds on huge coefficients;
        # degree-first selection makes 13 and finishes in milliseconds
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

    def test_empty_basis(self, rng):
        for f in (Polynomial.zero(3), *(random_polynomial(rng, 3, 4, 5) for _ in range(20))):
            assert normal_form(f, []) == f


class TestCriterionCheckers:
    def test_closed_form_basis_passes(self):
        basis = conjectured_gb_ek(3, 3)
        assert is_groebner_basis(basis)
        assert is_reduced(basis)

    def test_reducedness_counterexample(self):
        assert not is_reduced([P("x1*x2"), P("x1")])

    def test_criterion_counterexample(self):
        assert not is_groebner_basis([P("x2^2-x1"), P("x2*x1")])

    @pytest.mark.parametrize("integral", [True, False])
    def test_against_all_pairs(self, rng, integral):
        answers = []
        for _ in range(400):
            arity = rng.randint(1, 3)
            polys = random_set(rng, arity, integral)
            answers.append(is_groebner_basis(polys))
            assert answers[-1] == all_pairs_reference(polys), polys
        assert answers.count(True) > 50 and answers.count(False) > 50

    def test_paper_bases(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert is_groebner_basis(conjectured_gb_ek(k, n)), (k, n)

    def test_scalar_multiple(self):
        f = P("3*x3^2*x1-x2+1/2")
        assert is_groebner_basis([f, 2 * f])

    @pytest.mark.parametrize("integral", [True, False])
    def test_reduced_against_tuple_reference(self, rng, integral):
        # random sets, the same made monic (so that divisibility decides),
        # and the reduced bases of those that are Groebner bases
        answers = []
        for _ in range(200):
            arity = rng.randint(1, 3)
            polys = random_set(rng, arity, integral)
            sets = [polys, [g.monic() for g in polys if g]]
            if is_groebner_basis(polys):
                sets.append(list(reduce_basis(GroebnerBasis(arity, tuple(polys)))))
            for s in sets:
                answers.append(is_reduced(s))
                assert answers[-1] == reduced_reference(s), s
        assert answers.count(True) > 100 and answers.count(False) > 100
        assert is_reduced([])

    def test_mixed_arities(self):
        with pytest.raises(ArityMismatchError):
            is_groebner_basis([P("x2^2-x1", 2), P("x2*x1", 3)])
        with pytest.raises(ArityMismatchError):
            is_reduced([P("x2-x1", 2), P("x3", 3)])


def s_definition(f, g):
    """S(f, g) from its definition, on exponent tuples and Fractions, summed
    by the validating constructor."""
    (fc, fm), (gc, gm) = f.leading_term(), g.leading_term()
    lcm = tuple(map(max, fm, gm))

    def shifted(p, lm, c):
        return [(tuple(a + b - e for a, b, e in zip(m, lcm, lm)), Fraction(pc) / c)
                for m, pc in p.terms]
    return Polynomial(f.arity, shifted(f, fm, fc) + shifted(g, gm, -gc))


def all_pairs_reference(polys):
    """Buchberger's criterion on every pair, with no pair skipped."""
    polys = [g for g in polys if not g.is_zero()]
    return bool(polys) and all(divide(s_definition(f, g), polys).remainder.is_zero()
                               for f, g in combinations(polys, 2))


def reduced_reference(polys):
    """is_reduced from its definition, on exponent tuples."""
    if any(g.is_zero() or g.leading_coefficient() != 1 for g in polys):
        return False
    lms = [g.leading_monomial() for g in polys]
    return not any(mono_divides(lm, m) for i, g in enumerate(polys)
                   for m, _ in g.terms for j, lm in enumerate(lms) if j != i)


def random_set(rng, arity, integral):
    """1 to 4 polynomials: random ones, scalar and monomial multiples, and
    ones whose leading monomials are powers of distinct variables, so that
    some or all pairs are coprime."""
    polys = []
    for v in rng.sample(range(arity), rng.randint(0, arity)):
        # x_v^e leads: no tail monomial has a later variable or x_v^e
        e = rng.randint(1, 3)
        tail = [(random_monomial(rng, v + 1, 3) + (0,) * (arity - v - 1),
                 random_coefficient(rng, integral)) for _ in range(rng.randint(0, 3))]
        tail = [(m, c) for m, c in tail if m[v] < e]
        lead = tuple(e if w == v else 0 for w in range(arity))
        polys.append(Polynomial(arity, [(lead, random_coefficient(rng, integral)), *tail]))
    while not polys or (len(polys) < 4 and rng.random() < 0.5):
        if polys and rng.random() < 0.3:
            m = random_monomial(rng, arity, 2)
            polys.append(rng.choice(polys)
                         * Polynomial.from_monomial(m, random_coefficient(rng, integral)))
        else:
            polys.append(random_polynomial(rng, arity, 3, 4, integral=integral))
    return polys


class TestOverflowIdeals:
    # lex reduction raises exponents past the fields the generators fit in:
    # past the 1-byte guard bit (127), past a full byte (255) and past 2
    # bytes; each basis is pinned as text
    @pytest.mark.parametrize("arity, gens, basis", [
        (2, "x2-x1^100, x2^2", "x2-x1^100; x1^200"),
        (2, "x2-x1^127, x2^2-x1", "x2-x1^127; x1^254-x1"),
        (3, "x3-x1^60*x2, x2^3-x1^5, x3^2-x2",
         "x3-x1^305; x2-x1^245; x1^370-x1^5"),
        (2, "x2-x1^200, x2^3", "x2-x1^200; x1^600"),
        (3, "x3-x2^2*x1^100, x2-x1^50, x3^2", "x3-x1^200; x2-x1^50; x1^400"),
        (2, "x2-x1^40000, x2^2-x1", "x2-x1^40000; x1^80000-x1"),
        (2, "x2^128-x1^127, x2^3*x1-x1^129",
         "x2^128-x1^127; x1*x2^3-x1^129; x1^128*x2-x1^5505; x1^16131-x1^128"),
        # no S-pair reduction: the tail x2^2 overflows in reduce_basis
        (3, "x3-x2^2, x2-x1^100", "x3-x1^200; x2-x1^100"),
        # non-unit leading coefficients: the work is scaled before the
        # exponents outgrow their fields
        (2, "3*x2-2*x1^100, 5*x2^2-x1", "x2-2/3*x1^100; x1^200-9/20*x1"),
        (3, "2/3*x3-x1^60*x2, 3*x2^3-x1^5, -5*x3^2-x2",
         "x3-2025/32*x1^305; x2-675/16*x1^245; x1^370+64/30375*x1^5"),
    ])
    def test_reduced_basis(self, arity, gens, basis):
        gens = [P(g, arity) for g in gens.split(", ")]
        gb = reduced_groebner_basis(gens)
        assert "; ".join(map(str, gb)) == basis
        assert gb == reduce_basis(buchberger(gens, product_criterion=False))
        assert is_reduced(gb.elements) and is_groebner_basis(gb.elements)
        assert all(normal_form(g, gb).is_zero() for g in gens)

    def test_fields_widen_with_pairs_queued(self, widths):
        # the 1-byte fields overflow with pairs queued, so the run is built
        # again, from the generators, one byte wider; the stats are those of
        # the run that ends, with nothing counted by the one abandoned
        gens = [P(g) for g in ("x3^3-x1^25*x2", "x2^3-x1^72",
                               "x3*x2^2-x1^29*x3", "x3*x2*x1-x2")]
        gb = reduced_groebner_basis(gens)
        assert len(set(widths)) > 1
        assert "; ".join(map(str, gb)) == (
            "x3^3-x1^72; x1^29*x3-x1^72; x2-x1^72; x1^73-x1^72")
        assert gb.stats.record() == (
            "pairs=110 product_skipped=36 chain_skipped=39 reductions=34 "
            "zero_reductions=12 peak_basis=7 peak_coeff_bits=1")
        assert gb == reduce_basis(buchberger(gens, product_criterion=False))

    def test_stretched_ideals(self, widths):
        # x_i -> x_i^s keeps lex order, divisibility, lcms and the order of
        # total degrees, so the stretched run makes the same pairs and
        # reductions as the plain one; the generators are square-free, so
        # even at s = 127 they fit 1-byte fields that the run outgrows at
        # some point, and each restart must leave no trace
        rng, restarts = random.Random(19), 0
        for _ in range(60):
            arity, s = rng.randint(2, 3), rng.choice([25, 42, 63, 64, 100, 127, 128])
            gens = [Polynomial(arity, [
                (tuple(rng.randint(0, 1) for _ in range(arity)), random_coefficient(rng))
                for _ in range(3)]) for _ in range(arity)]
            gens = [g for g in gens if not g.is_zero()] or [P("x1", arity)]
            gb = reduced_groebner_basis(gens)
            widths.clear()
            wide = reduced_groebner_basis([stretched(g, s) for g in gens])
            restarts += len(widths) - 1
            assert wide == GroebnerBasis(arity, tuple(stretched(g, s) for g in gb))
            assert wide.stats == gb.stats
        assert restarts > 10


def stretched(p, s):
    """p(x_1^s, ..., x_n^s)."""
    return Polynomial(p.arity, [(tuple(s * e for e in m), c) for m, c in p.terms])


def packed_monomials(width):
    """Pairs of monomials of one arity whose exponents are below the guard
    bit of ``width``-byte fields, the edges drawn often."""
    top = 2 ** (8 * width - 1) - 1
    exponent = st.one_of(st.integers(0, 3), st.integers(0, top),
                         st.sampled_from([top - 1, top]))
    return st.integers(1, 4).flatmap(lambda arity: st.tuples(
        *[st.tuples(*[exponent] * arity)] * 2))


class TestPackedMonomials:
    # the kernel's packed lcm, coprimality and divisibility tests against
    # the tuple operations, at every exponent a field of 1-3 bytes holds
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_against_tuple_monomials(self, width):
        @given(packed_monomials(width))
        def check(ab):
            a, b = ab
            packed = _run(len(a), (), lambda packed: packed, width)
            assert packed.width == width
            ka, kb = packed.pack(a), packed.pack(b)
            m = packed.lcm(ka, kb)
            assert packed.unpack(m) == mono_lcm(a, b) and m == packed.lcm(kb, ka)
            assert (m == ka + kb) == (mono_lcm(a, b) == mono_mul(a, b))
            assert (not (kb - ka) & packed.guard) == mono_divides(a, b)
            assert (ka < kb) == (lex_key(a) < lex_key(b))

        check()

    @pytest.mark.parametrize("top, width", [
        (0, 1), (127, 1), (128, 2), (2 ** 15 - 1, 2), (2 ** 15, 3)])
    def test_run_picks_fewest_bytes(self, top, width, widths):
        # for the width of a dividend, whose divisor fits one byte, and for
        # one of the polynomials packed
        f = Polynomial(2, [((1, top), 1), ((1, 0), 1)])
        divide(f, [Polynomial.variable(1, 2)])
        assert f.width == width and widths == [width]
        assert _run(2, [f], lambda packed: packed.width) == width


def shifted(p, c):
    """p(x_1 + c_1, ..., x_n + c_n)."""
    xs = [Polynomial.variable(i, p.arity) + ci for i, ci in enumerate(c, 1)]
    out = Polynomial.zero(p.arity)
    for m, coeff in p.terms:
        term = Polynomial.constant(coeff, p.arity)
        for x, e in zip(xs, m):
            for _ in range(e):
                term = term * x
        out = out + term
    return out


class TestRationalIdeals:
    # the reduction runs on primitive integer multiples and scales the work
    # where a leading coefficient does not divide; the reference path
    # reduces other S-polynomials in another order, so equal reduced bases
    # check the scaling on many different reductions

    @pytest.mark.parametrize("n", range(1, 6))
    def test_shifted_elementary_ideals(self, n):
        # x -> x + c keeps every lex leading monomial, so the reduced basis
        # of <e_1..e_k>(x + c) is {h_{i,n-i+1}(x + c)}
        c = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
             Fraction(-1, 3), Fraction(5, 4))[:n]
        for k in range(1, n + 1):
            gens = [shifted(elementary(i, n), c) for i in range(1, k + 1)]
            gb = reduced_groebner_basis(gens)
            assert list(gb) == [shifted(homogeneous(i, n - i + 1, n), c)
                                for i in range(1, k + 1)]
            assert gb == reduce_basis(buchberger(gens, product_criterion=False))

    @pytest.mark.parametrize("abc", [(a, b, c) for c in range(3, 7)
                                     for b in range(2, c) for a in range(1, b)],
                             ids="p{0[0]},{0[1]},{0[2]}".format)
    def test_power_sum_triples(self, abc):
        gens = [powersum(e, 3) for e in abc]
        gb = reduced_groebner_basis(gens)
        assert gb == reduce_basis(buchberger(gens, product_criterion=False))
        assert is_reduced(gb.elements)

    def test_peak_coefficient_bits(self):
        # made primitive, the generators are 2 x1 - 3 and 7 x2^2 - 5 x1; the
        # second enters reduced by the first, as 14 x2^2 - 15 (coprime
        # leading monomials, so nothing else enters); 14 and 15 have 4 bits
        gb = buchberger([P("x1-3/2", 2), P("x2^2-5/7*x1", 2)])
        assert gb.stats.peak_coeff_bits == 4
        assert buchberger([elementary(i, 4) for i in (1, 2)]).stats.peak_coeff_bits == 1

    def test_stats_of_a_subset_ideal(self):
        # <e_2,e_4,e_5,e_6> at n=6: most of its remainders are rational
        gb = buchberger([elementary(i, 6) for i in (2, 4, 5, 6)])
        assert gb.stats.record() == (
            "pairs=136 product_skipped=10 chain_skipped=87 "
            "reductions=39 zero_reductions=26 peak_basis=17 "
            "peak_coeff_bits=3")
