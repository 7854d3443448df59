import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from symgb.groebner import (
    GroebnerBasis,
    GroebnerStats,
    ZeroIdealError,
    _Buchberger,
    _Packed,
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
from symgb import verify
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


@st.composite
def resumed_generators(draw):
    """Generators in 1-4 variables, integer or rational, to feed a run one
    at a time: after the first, each is a new polynomial, a member of the
    ideal of the ones before it (it reduces to zero), a constant or zero."""
    arity, integral = draw(st.integers(1, 4)), draw(st.booleans())
    coeff = (st.integers(-3, 3) if integral else
             st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    degree = 3 if arity <= 2 else 2
    mono = st.lists(st.integers(0, arity - 1), max_size=degree).map(
        lambda xs: tuple(xs.count(i) for i in range(arity)))
    poly = st.lists(st.tuples(mono, coeff), min_size=1, max_size=3).map(
        lambda terms: Polynomial(arity, terms))
    gens = [draw(poly.filter(lambda g: not g.is_zero()))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["new", "new", "new", "member", "constant", "zero"]))
        if kind == "new":
            gens.append(draw(poly))
        elif kind == "member":
            gens.append(draw(st.sampled_from(gens)) * draw(poly)
                        + draw(st.sampled_from(gens)))
        elif kind == "constant":
            gens.append(Polynomial.constant(draw(coeff.filter(bool)), arity))
        else:
            gens.append(Polynomial.zero(arity))
    return gens


class TestResumedRun:
    # a run fed generators one at a time must give, after each, the reduced
    # basis of the generators so far, as a run started on all of them does

    @pytest.mark.parametrize("product_criterion", [True, False])
    @given(resumed_generators())
    @settings(max_examples=150, deadline=None)
    def test_each_prefix_against_a_fresh_run(self, product_criterion, gens):
        run = _Buchberger(gens[:1], product_criterion)
        for i in range(1, len(gens) + 1):
            if i > 1:
                run.add(gens[i - 1:i])
            assert run.reduced() == reduced_groebner_basis(gens[:i])

    def test_generator_that_reduces_to_zero(self):
        f, g = P("x1*x2-x3"), P("x2^2-x1")
        run = _Buchberger([f])
        run.add([g])
        before, active = run.reduced(), list(run.active)
        run.add([f * P("x3+1") - g * P("x1")])  # in <f, g>: enters as zero
        assert run.active == active and run.reduced() == before
        assert before == reduced_groebner_basis([f, g])

    @pytest.mark.parametrize("constant", [P("-2/3"), P("x1")])
    def test_unit_ideal_mid_run(self, constant):
        # a constant generator, or x1 that enters reduced by x1+1 as -1,
        # ends the run; later generators add nothing
        one = GroebnerBasis(3, (Polynomial.one(3),))
        run = _Buchberger([P("x1+1"), P("x2^2-x3")])
        run.add([constant])
        assert run.unit and run.reduced() == one
        stats = run.stats.record()
        run.add([P("x3^2+x1")])
        assert run.reduced() == one and run.stats.record() == stats
        ref = _Buchberger([P("x1+1"), P("x2^2-x3")], product_criterion=False)
        for g in (constant, P("x3^2+x1")):
            ref.add([g])
            assert not ref.unit and ref.reduced() == one

    def test_add_that_overflows_is_widened_in_place(self, widths):
        # x2^2 enters reduced by x2 - x1^100 as x1^200, past the guard bit
        # of a 1-byte field: the run is widened to 2 bytes and enters x2^2
        # again, and ends as a fresh run on both generators does
        gens = [P("x2-x1^100", 2), P("x2^2", 2)]
        run = _Buchberger(gens[:1])
        assert run.reduced() == reduced_groebner_basis(gens[:1])
        run.add(gens[1:])
        assert widths == [1, 1, 2] and run.packed.width == 2
        gb = run.reduced()
        assert "; ".join(map(str, gb)) == "x2-x1^100; x1^200"
        fresh = reduced_groebner_basis(gens)
        assert gb == fresh and gb.stats == fresh.stats  # no pair was reduced

    def test_widening_keeps_the_basis_read(self):
        # the basis is read after the second generator, and the third
        # overflows a 1-byte field: widened in place, the run ends as one
        # made 2 bytes wide from the start does, reducers and stats alike
        gens = [P("5*x3^2-x1*x2^3*x3"), P("-x2^2*x3^2+x2^2*x3+2*x2^3"), P("x3+x1^100")]
        runs = [_Buchberger(gens[:1]) for _ in range(2)]
        runs[1].packed.widen(2)
        for run in runs:
            run.reduced()
            run.add(gens[1:2])
            run.reduced()
            run.add(gens[2:])
        assert [run.packed.width for run in runs] == [2, 2]
        assert runs[0].packed.reducers == runs[1].packed.reducers
        gb = runs[0].reduced()
        assert gb == runs[1].reduced() == reduced_groebner_basis(gens)
        assert gb.stats == runs[1].stats

    def test_new_leading_monomial_divides_an_old_tail(self, widths):
        # x3 - x2^2 is reduced when x2 - x1^c enters, whose LM divides its
        # tail: it is reduced again, to x3 - x1^(2c); at c = 100 that
        # overflows in the interreduction, which is redone 2 bytes wide
        for c, width in ((3, 1), (100, 2)):
            gens = [P("x3-x2^2"), P(f"x2-x1^{c}")]
            run = _Buchberger(gens[:1])
            assert list(run.reduced()) == gens[:1]
            run.add(gens[1:])
            gb = run.reduced()
            assert "; ".join(map(str, gb)) == f"x3-x1^{2 * c}; x2-x1^{c}"
            assert gb == reduced_groebner_basis(gens) and run.packed.width == width

    def test_overflow_in_the_interreduction_after_a_clean_element_changed(
            self, widths):
        # x2 - x1^60 enters a basis read reduced: the interreduction reduces
        # x3 - x2, read before, to x3 - x1^60, then overflows a 1-byte field
        # on x4 - x2^3, whose reduced form is x4 - x1^180; redone 2 bytes
        # wide, it must not return the x3 - x2 read before
        gens = [P("x4-x2^3", 4), P("x3-x2", 4), P("x2-x1^60", 4)]
        run = _Buchberger(gens[:2])
        run.reduced()
        run.add(gens[2:])
        widths.clear()
        gb = run.reduced()
        assert widths == [2]
        assert "; ".join(map(str, gb)) == "x4-x1^180; x3-x1^60; x2-x1^60"
        fresh = reduced_groebner_basis(gens)
        assert gb == fresh and gb.stats == fresh.stats

    def test_old_elements_are_not_reduced_again(self, monkeypatch):
        # adding e_k to the run on e_1..e_{k-1} enters h_k, reduced by
        # h_1..h_{k-1} and of the least LM, which divides no tail monomial
        # of theirs: reduced() reduces nothing
        calls, reduce = [], _Packed.reduce

        def counting(packed, *args):
            calls.append(args)
            return reduce(packed, *args)

        run = _Buchberger([elementary(1, 6)])
        for k in range(1, 7):
            if k > 1:
                run.add([elementary(k, 6)])
            monkeypatch.setattr(_Packed, "reduce", counting)
            gb = run.reduced()
            monkeypatch.undo()
            assert not calls, k
            assert gb.elements == tuple(conjectured_gb_ek(k, 6))

    @pytest.mark.parametrize("c, width", [(3, 1), (100, 2)])
    def test_reading_the_basis_changes_nothing(self, c, width):
        # reduced() builds the reduced basis aside, here x3 - x1^(2c) from
        # x3 - x2^2: the run's reducers, basis, pairs and stats stay as they
        # were, and a second read gives the same basis.  At c = 100 the
        # first read overflows a 1-byte field, and widening is the one
        # change it makes: the reducers are those of a run made 2 bytes
        # wide before x2 - x1^100 entered
        gens = [P("x3-x2^2"), P(f"x2-x1^{c}")]
        run, wide = _Buchberger(gens[:1]), _Buchberger(gens[:1])
        wide.packed.widen(width)
        for r in (run, wide):
            r.add(gens[1:])

        def state():
            return (list(run.packed.reducers), list(run.active),
                    list(run.pairs), replace(run.stats))

        before = state()
        gb = run.reduced()
        assert run.packed.width == width
        assert state()[1:] == before[1:]
        assert run.packed.reducers == wide.packed.reducers
        after = state()
        assert run.reduced() == gb == reduced_groebner_basis(gens)
        assert state() == after
        assert "; ".join(map(str, gb)) == f"x3-x1^{2 * c}; x2-x1^{c}"

    def test_each_basis_keeps_its_own_stats(self):
        run = _Buchberger([elementary(i, 4) for i in (2, 4)])
        first = run.reduced()
        record = first.stats.record()
        run.add([elementary(3, 4)])
        second = run.reduced()
        assert first.stats is not second.stats is not run.stats
        assert first.stats.record() == record != second.stats.record()
        assert second.stats == run.stats


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
    def test_paper_ideals(self, monkeypatch, batches, target):
        # every cell of the target to n = 8: <e_1..e_k> or <e_1, e_k>; a
        # gb-ek cell also as the sweep makes it, resuming the run of the
        # cell before it
        sympy = pytest.importorskip("sympy")
        monkeypatch.setattr(verify, "_gb_ek_run", ([], None))
        for n in range(1, 9):
            for k in TARGETS[target].ks(n):
                ks = range(1, k + 1) if target == "gb-ek" else (1, k)
                gens = [elementary(i, n) for i in ks]
                expected = sympy_reduced_basis(sympy, gens)
                assert list(reduced_groebner_basis(gens).elements) == expected, (k, n)
                if target == "gb-ek":
                    got = verify.computed_gb_ek(k, n)
                    assert list(got.elements) == expected, (k, n)
                    assert len(batches[verify._gb_ek_run[1]]) == k

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
        # the 1-byte fields overflow with pairs queued, so the reducers are
        # repacked one byte wider and the step is redone; the queued pairs
        # hold no packed monomial, and the stats count no step twice
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
        # some point, and each widening must leave no trace
        rng, widenings = random.Random(19), 0
        for _ in range(60):
            arity, s = rng.randint(2, 3), rng.choice([25, 42, 63, 64, 100, 127, 128])
            gens = square_free_generators(rng, arity, arity)
            gb = reduced_groebner_basis(gens)
            widths.clear()
            wide = reduced_groebner_basis([stretched(g, s) for g in gens])
            widenings += len(widths) - 1
            assert wide == GroebnerBasis(arity, tuple(stretched(g, s) for g in gb))
            assert wide.stats == gb.stats
        assert widenings > 10

    def test_stretched_ideals_fed_one_at_a_time(self, monkeypatch):
        # as above, on runs fed one generator at a time and read after
        # each: a run that outgrows its fields while it enters a generator
        # or reduces an S-pair has pairs queued, whose reducers are
        # repacked, and must go on as the plain run does
        queued, widen, runs = [], _Packed.widen, {}

        def recording(packed, width):
            if packed in runs:  # not while the run is built
                queued.append(len(runs[packed].pairs))
            widen(packed, width)

        monkeypatch.setattr(_Packed, "widen", recording)
        rng = random.Random(23)
        for _ in range(300):
            arity, s = rng.randint(2, 3), rng.choice([63, 64, 100, 127])
            gens = square_free_generators(rng, arity, arity + 3)
            plain, wide = _Buchberger(gens[:1]), _Buchberger([stretched(gens[0], s)])
            runs.update({run.packed: run for run in (plain, wide)})
            for i, g in enumerate(gens):
                if i:
                    plain.add([g])
                    wide.add([stretched(g, s)])
                gb, wide_gb = plain.reduced(), wide.reduced()
                assert wide_gb == GroebnerBasis(arity, tuple(stretched(h, s) for h in gb))
                assert wide_gb.stats == gb.stats
        assert sum(n > 0 for n in queued) > 10


def square_free_generators(rng, arity, count):
    """``count`` or fewer nonzero polynomials of 3 square-free terms, or x1
    when all are zero."""
    gens = [Polynomial(arity, [
        (tuple(rng.randint(0, 1) for _ in range(arity)), random_coefficient(rng))
        for _ in range(3)]) for _ in range(count)]
    return [g for g in gens if not g.is_zero()] or [P("x1", arity)]


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
