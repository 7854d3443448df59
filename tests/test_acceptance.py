"""Acceptance suite: one test per criterion, exact equality throughout
(coefficients are exact rationals, so every tolerance is zero)."""

import random
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial

import pytest

from symgb.groebner import buchberger, divide, reduce_basis
from symgb.hilbert import closed_form_series, staircase_series
from symgb.involution import certify_involution
from symgb.poly import Polynomial
from symgb.symfunc import (
    check_e1ek_reduction,
    conjectured_gb_e1ek,
    conjectured_gb_ek,
    ekn_identity_defect,
    elementary,
    hkn_identity_defect,
    homogeneous,
    newton_defect,
    telescope_defect,
    weight,
)
from symgb.verify import computed_gb_ek, computed_gb_e1ek
from conftest import lex_key, mono_divides, random_polynomial


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


@pytest.fixture(scope="module")
def full_ideal_bases():
    """Reduced bases of the full elementary ideals, shared by criteria 1/5."""
    return {n: computed_gb_ek(n, n) for n in range(1, 7)}


def test_criterion_1_reduced_gb_theorem(full_ideal_bases):
    ok = True
    for n in range(1, 7):
        for k in range(1, n + 1):
            gb = full_ideal_bases[n] if k == n else computed_gb_ek(k, n)
            if list(gb.elements) != conjectured_gb_ek(k, n):
                ok = False
    report("criterion 1: reduced GB of <e_1..e_k> is {h_{i,n-i+1}} "
           "for 1<=k<=n<=6, exact equality", ok)


def test_criterion_2_two_generator_theorem():
    ok = True
    for n in range(2, 8):
        for k in range(2, n + 1):
            gb = computed_gb_e1ek(k, n)
            if list(gb.elements) != conjectured_gb_e1ek(k, n):
                ok = False
    report("criterion 2: reduced GB of <e_1,e_k> matches the two-element "
           "closed form for 2<=k<=n<=7, exact equality", ok)


def test_criterion_3_identity_suite():
    ok = True
    for n in range(1, 9):
        for k in range(1, n + 3):
            ok = ok and hkn_identity_defect(k, n).is_zero()
            ok = ok and ekn_identity_defect(k, n).is_zero()
            ok = ok and newton_defect(k, n).is_zero()
        for j in range(1, n + 1):
            ok = ok and telescope_defect(j, n).is_zero()
        for k in range(1, n + 1):
            ok = ok and check_e1ek_reduction(k, n)
    report("criterion 3: all five symbolic identities hold for "
           "1<=k<=n+2, n<=8 (k>n trivial cases included)", ok)


def test_criterion_4_involution_certification():
    ok = True
    for family in ("hkn", "ekn"):
        for n in range(1, 7):
            for k in range(1, n + 1):
                if not certify_involution(family, k, n).ok:
                    ok = False
    report("criterion 4: both involution families certified (involution, "
           "sign-reversing, fixed-point-free, weight-preserving, carrier-closed, "
           "weight sum 0) "
           "for 1<=k<=n<=6", ok)


def test_criterion_5_hilbert_corollary(full_ideal_bases):
    ok = True
    expected_dims = [1, 2, 6, 24, 120, 720]
    for n in range(1, 7):
        series = staircase_series(full_ideal_bases[n].leading_monomials(), n)
        closed = closed_form_series(n)
        ok = ok and series == closed
        ok = ok and series.dimension() == expected_dims[n - 1] == factorial(n)
        # independent oracle: permutations counted by inversion number
        counts = [0] * (comb(n, 2) + 1)
        for sigma in permutations(range(n)):
            counts[sum(1 for i in range(n) for j in range(i + 1, n)
                       if sigma[i] > sigma[j])] += 1
        ok = ok and tuple(counts) == series.coeffs
    report("criterion 5: staircase series equals the closed-form product, "
           "dimensions 1,2,6,24,120,720, inversion-count oracle agrees", ok)


def test_criterion_6_division_contract():
    rng = random.Random(1729)
    ok = True
    failures = 0
    for _ in range(10_000):
        arity = rng.randint(1, 4)
        f = random_polynomial(rng, arity, 4, 5)
        divisors = [random_polynomial(rng, arity, 4, 3, allow_zero=False)
                    for _ in range(rng.randint(1, 3))]
        res = divide(f, divisors)
        recon = res.remainder
        for q, d in zip(res.quotients, divisors):
            recon = recon + q * d
        if recon != f:
            failures += 1
            continue
        lms = [d.leading_monomial() for d in divisors]
        if any(mono_divides(lm, m)
               for m, _ in res.remainder.terms for lm in lms):
            failures += 1
            continue
        if not f.is_zero():
            lt = f.leading_monomial()
            for q, d in zip(res.quotients, divisors):
                prod = q * d
                if not prod.is_zero() and (
                        lex_key(lt) < lex_key(prod.leading_monomial())):
                    failures += 1
                    break
    ok = failures == 0
    report("criterion 6: division contract (reconstruction, remainder "
           "freeness, LT dominance) on 10^4 random instances, "
           f"{failures} failures", ok)


def test_criterion_7_reduced_gb_uniqueness():
    rng = random.Random(4104)
    ok = True
    for _ in range(100):
        gens = [random_polynomial(rng, 3, 3, 3, allow_zero=False)
                for _ in range(rng.randint(1, 3))]
        bases = {reduce_basis(buchberger(list(p))) for p in permutations(gens)}
        if len(bases) != 1:
            ok = False
    report("criterion 7: reduced GB identical under all generator "
           "permutations for 100 random small ideals", ok)


def test_criterion_8_definition_cross_check():
    ok = True
    for n in range(0, 7):
        arity = max(n, 1)
        for k in range(0, n + 1):
            e = elementary(k, n, arity)
            h = homogeneous(k, n, arity)
            brute_e = Polynomial(arity, [(weight(s, arity), 1)
                                         for s in combinations(range(1, n + 1), k)])
            brute_h = Polynomial(
                arity,
                [(weight(s, arity), 1) for s in
                 combinations_with_replacement(range(1, n + 1), k)])
            ok = ok and e == brute_e and h == brute_h
            ok = ok and len(e.terms) == comb(n, k)
            ok = ok and len(h.terms) == (comb(n + k - 1, k) if n + k > 0 else 1)
    report("criterion 8: e/h built in lex order equal brute-force enumeration "
           "for k<=n<=6 with term counts C(n,k) and C(n+k-1,k)", ok)
