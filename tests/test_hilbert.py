from itertools import permutations
from math import comb, factorial

import pytest

from symgb import hilbert
from symgb.hilbert import (
    NonArtinianError,
    SeriesPoly,
    closed_form_series,
    quotient_dimension,
    staircase_series,
)
from symgb.verify import computed_gb_ek


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

    def test_huge_box_rejected_before_the_walk(self):
        caps = [tuple(10**4 * (i == j) for j in range(3)) for i in range(3)]
        with pytest.raises(ValueError, match=r"1000000000000 points"):
            staircase_series(caps, 3)

    def test_box_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(hilbert, "MAX_BOX_POINTS", 6)
        assert staircase_series([(2, 0), (0, 3)], 2).dimension() == 6
        with pytest.raises(ValueError, match=r"has 7 points"):
            staircase_series([(7, 0), (0, 1)], 2)


class TestClosedForm:
    def test_small_values(self):
        assert closed_form_series(1) == SeriesPoly((1,))
        assert closed_form_series(3) == SeriesPoly((1, 2, 2, 1))

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

    def test_quotient_dimension(self):
        assert quotient_dimension(1) == 1
        assert quotient_dimension(3) == 6
        assert quotient_dimension(6) == 720

    def test_quotient_dimension_checks_the_closed_form(self, monkeypatch):
        import symgb.hilbert as hilbert
        monkeypatch.setattr(hilbert, "closed_form_series",
                            lambda n: SeriesPoly((1, 1)))
        with pytest.raises(ArithmeticError):
            quotient_dimension(3)


class TestAgainstGroebner:
    def test_staircase_matches_closed_form(self):
        for n in range(1, 6):
            gb = computed_gb_ek(n, n)
            series = staircase_series(gb.leading_monomials(), n)
            assert series == closed_form_series(n)
