import random
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest

from symgb import hilbert
from symgb.groebner import reduced_groebner_basis
from symgb.hilbert import (
    NonArtinianError,
    SeriesPoly,
    closed_form_series,
    hilbert_numerator,
    staircase_series,
)
from symgb.symfunc import elementary
from symgb.verify import computed_gb_ek
from conftest import mono_divides


def refuse(*args):
    raise AssertionError("the limit must be checked before the numerator")


def box_walk(lms, arity):
    """The standard monomials of an artinian staircase counted by degree,
    by walking every point of the box under the pure powers."""
    if (0,) * arity in lms:
        return SeriesPoly(())
    caps = [min(m[i] for m in lms if m[i] and sum(m) == m[i])
            for i in range(arity)]
    counts = [0] * (sum(caps) - arity + 1)
    for exps in product(*(range(c) for c in caps)):
        if not any(mono_divides(m, exps) for m in lms):
            counts[sum(exps)] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return SeriesPoly(tuple(counts))


def standard_counts(lms, arity, top):
    """Standard monomials of each degree 0..top, counted one by one."""
    counts = [0] * (top + 1)
    for exps in product(range(top + 1), repeat=arity):
        if sum(exps) <= top and not any(mono_divides(m, exps) for m in lms):
            counts[sum(exps)] += 1
    return counts


def series_prefix(numerator, arity, top):
    """Coefficients 0..top of numerator / (1 - t)^arity."""
    coeffs = list(numerator.coeffs[:top + 1])
    coeffs += [0] * (top + 1 - len(coeffs))
    for _ in range(arity):
        for d in range(1, top + 1):
            coeffs[d] += coeffs[d - 1]
    return coeffs


def random_monomials(rng, arity, count, top):
    return [tuple(rng.randint(0, top) for _ in range(arity))
            for _ in range(count)]


def random_artinian(rng, arity):
    """Pure powers of every variable, sometimes twice, plus mixed monomials,
    repeats and multiples; now and then the unit ideal."""
    lms = [tuple(rng.randint(1, 5) * (i == j) for j in range(arity))
           for i in range(arity) for _ in range(rng.randint(1, 2))]
    lms += random_monomials(rng, arity, rng.randint(0, 6), 4)
    lms += [tuple(e + rng.randint(0, 2) for e in rng.choice(lms))
            for _ in range(rng.randint(0, 2))]
    lms += rng.choices(lms, k=rng.randint(0, 2))
    if rng.random() < 0.05:
        lms.append((0,) * arity)
    rng.shuffle(lms)
    return lms


def inversion_counts(n):
    """coeffs[d] = number of permutations of n letters with d inversions."""
    counts = [0] * (comb(n, 2) + 1)
    for sigma in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if sigma[i] > sigma[j])
        counts[inv] += 1
    return tuple(counts)


class TestStaircase:
    def test_single_variable(self):
        assert staircase_series([(1,)], 1) == SeriesPoly((1,))

    def test_box_staircase_n3(self):
        # leading monomials of the reduced basis for the full ideal at n=3
        lms = [(0, 0, 1), (0, 2, 0), (3, 0, 0)]
        assert staircase_series(lms, 3) == SeriesPoly((1, 2, 2, 1))

    def test_box_staircase_n4_dimension(self):
        lms = [tuple(i * (j == 4 - i) for j in range(4)) for i in range(1, 5)]
        assert staircase_series(lms, 4).dimension() == 24

    def test_non_pure_generators_prune(self):
        # x2^2, x1^2 caps plus mixed generator x1*x2 removes two monomials
        series = staircase_series([(2, 0), (0, 2), (1, 1)], 2)
        assert series == SeriesPoly((1, 2))

    def test_unit_ideal(self):
        assert staircase_series([(0, 0)], 2) == SeriesPoly(())

    def test_non_artinian_rejected(self):
        with pytest.raises(NonArtinianError):
            staircase_series([(0, 1)], 2)

    @pytest.mark.parametrize("series", [staircase_series, hilbert_numerator])
    def test_bad_exponents_rejected_before_any_work(self, monkeypatch, series):
        monkeypatch.setattr(hilbert, "_minimal", refuse)
        monkeypatch.setattr(hilbert, "_numerator", refuse)
        # (-1, 0) used to pass for a pure power of nothing: staircase_series
        # called the ideal non-artinian, hilbert_numerator raised IndexError
        with pytest.raises(ValueError, match="negative exponent") as info:
            series([(-1, 0), (0, 2)], 2)
        assert not isinstance(info.value, NonArtinianError)
        with pytest.raises(TypeError, match="exponents must be ints"):
            series([(1.5, 0), (0, 2)], 2)

    @pytest.mark.parametrize("series", [staircase_series, hilbert_numerator])
    def test_negative_arity_rejected(self, series):
        # arity -1 used to reach _dense: staircase_series raised IndexError
        # and hilbert_numerator answered [1]
        assert series([], 0) == SeriesPoly((1,))
        with pytest.raises(ValueError, match="negative arity"):
            series([], -1)

    # the limit is now on the length of the series, sum(c_i - 1) + 1 for
    # the pure powers x_i^c_i, not on the prod(c_i) points of the box
    def test_huge_box_rejected_before_the_walk(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_numerator", refuse)
        caps = [tuple(10**6 * (i == j) for j in range(3)) for i in range(3)]
        with pytest.raises(ValueError, match=r"^staircase series has up to "
                                             r"2999998 coefficients, more than "
                                             r"the limit of 1000000$"):
            staircase_series(caps, 3)

    def test_box_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(hilbert, "MAX_SERIES_COEFFS", 6)
        assert staircase_series([(2, 0), (0, 5)], 2).degree() == 5
        monkeypatch.setattr(hilbert, "_numerator", refuse)
        with pytest.raises(ValueError, match=r"has up to 7 coefficients"):
            staircase_series([(7, 0), (0, 1)], 2)

    def test_division_steps_limit_is_inclusive(self, monkeypatch):
        # one prefix-sum pass per variable over the whole series
        monkeypatch.setattr(hilbert, "MAX_DIVISION_STEPS", 12)
        assert staircase_series([(2, 0), (0, 5)], 2).degree() == 5  # 2 x 6
        monkeypatch.setattr(hilbert, "_numerator", refuse)
        with pytest.raises(ValueError, match=r"^staircase series takes 2 passes "
                                             r"over 7 coefficients, more than "
                                             r"the limit of 12 steps$"):
            staircase_series([(7, 0), (0, 1)], 2)

    def test_many_long_pure_powers_refused_before_the_numerator(self, monkeypatch):
        # under the length limit (999951 coefficients), but 50 passes over it
        monkeypatch.setattr(hilbert, "_numerator", refuse)
        powers = [tuple(20000 * (i == j) for j in range(50)) for i in range(50)]
        with pytest.raises(ValueError, match=r"^staircase series takes 50 passes "
                                             r"over 999951 coefficients"):
            staircase_series(powers, 50)

    def test_numerator_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(hilbert, "MAX_SERIES_COEFFS", 6)
        # lcm x1^2 x2^3 has degree 5
        assert hilbert_numerator([(2, 0), (1, 3)], 2).degree() == 5
        monkeypatch.setattr(hilbert, "_numerator", refuse)
        with pytest.raises(ValueError, match=r"^Hilbert numerator has up to 7 "
                                             r"coefficients, more than the "
                                             r"limit of 6$"):
            hilbert_numerator([(5, 0), (0, 1)], 2)

    def test_exponents_far_beyond_the_limit(self):
        # non-minimal generators do not count toward the length
        huge = 10**30
        assert staircase_series([(2, 0), (0, 2), (huge, huge)], 2) == \
            SeriesPoly((1, 2, 1))
        assert hilbert_numerator([(1, 0), (huge, 1)], 2) == SeriesPoly((1, -1))
        with pytest.raises(ValueError, match="more than the limit"):
            hilbert_numerator([(huge, 1)], 2)

    def test_closed_staircase_beyond_the_walk(self):
        # 20! points: no box walk reaches this
        n = 20
        lms = [tuple(i * (j == n - i) for j in range(n)) for i in range(1, n + 1)]
        assert staircase_series(lms, n) == closed_form_series(n)


class TestClosedForm:
    def test_small_values(self):
        assert closed_form_series(1) == SeriesPoly((1,))
        assert closed_form_series(3) == SeriesPoly((1, 2, 2, 1))
        with pytest.raises(ValueError, match="n must be >= 1"):
            closed_form_series(0)

    def test_n4_shape(self):
        s = closed_form_series(4)
        assert s.dimension() == 24
        assert s.degree() == comb(4, 2)

    def test_palindromic_and_dimension(self):
        for n in range(1, 8):
            s = closed_form_series(n)
            assert s.coeffs == s.coeffs[::-1]
            assert s.degree() == comb(n, 2)
            assert s.dimension() == factorial(n)

    def test_inversion_count_oracle(self):
        for n in range(1, 7):
            assert closed_form_series(n).coeffs == inversion_counts(n)

    def test_plain_product_of_t_integers(self):
        # prod_{i<=n} [i]_t with [i]_t = 1 + t + ... + t^{i-1}, multiplied out
        coeffs = [1]
        for n in range(1, 31):
            out = [0] * (len(coeffs) + n - 1)
            for d, c in enumerate(coeffs):
                for shift in range(n):
                    out[d + shift] += c
            coeffs = out
            assert closed_form_series(n) == SeriesPoly(tuple(coeffs)), n


class TestAgainstGroebner:
    def test_staircase_matches_closed_form(self):
        for n in range(1, 6):
            gb = computed_gb_ek(n, n)
            series = staircase_series(gb.leading_monomials(), n)
            assert series == closed_form_series(n)


class TestNumerator:
    def test_random_artinian_against_the_box_walk(self):
        rng = random.Random(8)
        for _ in range(400):
            arity = rng.randint(1, 4)
            lms = random_artinian(rng, arity)
            assert staircase_series(lms, arity) == box_walk(lms, arity), lms

    def test_edge_cases_against_the_box_walk(self):
        for lms, arity in [([(0, 0)], 2), ([(0, 0), (1, 1)], 2),
                           ([(2, 0), (2, 0), (0, 3), (0, 3)], 2),
                           ([(2, 0), (0, 3), (2, 3), (3, 1), (1, 1)], 2),
                           ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
                           ([(1,)], 1), ([(4,), (2,), (3,)], 1)]:
            assert staircase_series(lms, arity) == box_walk(lms, arity)

    def test_random_non_artinian_against_a_brute_count(self):
        rng = random.Random(9)
        top = 8
        for _ in range(150):
            arity = rng.randint(1, 4)
            lms = random_monomials(rng, arity, rng.randint(0, 5), 4)
            numerator = hilbert_numerator(lms, arity)
            assert (series_prefix(numerator, arity, top)
                    == standard_counts(lms, arity, top)), lms

    def test_artinian_series_times_its_denominator(self):
        # staircase_series(lms, a) * (1 - t)^a is hilbert_numerator(lms, a)
        rng = random.Random(10)
        for _ in range(300):
            arity = rng.randint(1, 4)
            lms = random_artinian(rng, arity)
            coeffs = list(staircase_series(lms, arity).coeffs)
            for _ in range(arity):
                coeffs = [c - p for c, p in zip(coeffs + [0], [0] + coeffs)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert SeriesPoly(tuple(coeffs)) == \
                hilbert_numerator(lms, arity), lms

    def test_small_ideals(self):
        assert hilbert_numerator([], 3) == SeriesPoly((1,))
        assert hilbert_numerator([(0, 0)], 2) == SeriesPoly(())
        assert hilbert_numerator([(1, 1)], 2) == SeriesPoly((1, 0, -1))
        # <x1^2, x1*x2>: 1 - 2t^2 + t^3
        assert hilbert_numerator([(2, 0), (1, 1), (2, 1)], 2) == \
            SeriesPoly((1, 0, -2, 1))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity mismatch"):
            hilbert_numerator([(1, 0)], 3)

    def test_every_ideal_of_elementary_polynomials(self):
        # e_1..e_n is a regular sequence, so every <e_S> has numerator
        # prod_{i in S} (1 - t^i)
        for n in range(1, 6):
            for size in range(1, n + 1):
                for subset in combinations(range(1, n + 1), size):
                    gb = reduced_groebner_basis(
                        [elementary(i, n, n) for i in subset])
                    expected = {0: 1}
                    for i in subset:
                        step = dict(expected)
                        for d, c in expected.items():
                            step[d + i] = step.get(d + i, 0) - c
                        expected = step
                    coeffs = [0] * (sum(subset) + 1)
                    for d, c in expected.items():
                        coeffs[d] = c
                    assert hilbert_numerator(gb.leading_monomials(), n) == \
                        SeriesPoly(tuple(coeffs)), subset
