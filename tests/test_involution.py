from math import comb

import pytest

from symgb import involution
from symgb.involution import (
    SignedPair,
    apply_f,
    certify_involution,
    enumerate_carrier,
    in_carrier,
    orbit_trace,
)
from symgb.poly import Polynomial
from symgb.symfunc import elementary, homogeneous


def broken_maps(good):
    """Steps that stand in for ``good`` (the real ``_flip``) but each break
    a law of the involution."""
    def identity(p):
        return p

    def leaves_carrier(p):
        q = good(p)
        return SignedPair(q.family, q.k, q.n, q.a, q.b + (q.n + 1,))

    def not_involutive(p):
        return next(q for q in enumerate_carrier(p.family, p.k, p.n)
                    if q.sign != p.sign)

    return {"identity": identity, "leaves_carrier": leaves_carrier,
            "not_involutive": not_involutive}


def pairs_as_tuples(carrier):
    return [(p.a, p.b) for p in carrier]


def sorted_step(p):
    """The involution rule as the module docstring states it, re-sorting
    both sides after the move."""
    a, b = list(p.a), list(p.b)
    if p.family == "hkn":
        from_b = bool(b) and (not a or min(b) < min(a))
        x = min(b) if from_b else min(a)
    else:
        from_b = bool(b) and (not a or max(b) >= max(a))
        x = max(b) if from_b else max(a)
    if from_b:
        b.remove(x)
        a.append(x)
    else:
        a.remove(x)
        b.append(x)
    return SignedPair(p.family, p.k, p.n, tuple(sorted(a)), tuple(sorted(b)))


class TestEnumeration:
    def test_hkn_k2_n2(self):
        carrier = enumerate_carrier("hkn", 2, 2)
        assert pairs_as_tuples(carrier) == [
            ((), (1, 1)), ((1,), (1,)), ((2,), (1,)), ((1, 2), ())]

    def test_hkn_k1_n1(self):
        carrier = enumerate_carrier("hkn", 1, 1)
        assert pairs_as_tuples(carrier) == [((), (1,)), ((1,), ())]

    def test_ekn_k1_n2(self):
        carrier = enumerate_carrier("ekn", 1, 2)
        assert pairs_as_tuples(carrier) == [
            ((), (1,)), ((), (2,)), ((1,), ()), ((2,), ())]

    def test_hkn_cardinality_formula(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                size = len(enumerate_carrier("hkn", k, n))
                expected = sum(
                    comb(n, i) * comb((n - k + 1) + (k - i) - 1, k - i)
                    for i in range(k + 1))
                assert size == expected

    def test_no_duplicates_and_membership(self):
        for family in ("hkn", "ekn"):
            for n in range(1, 6):
                for k in range(1, n + 1):
                    carrier = enumerate_carrier(family, k, n)
                    assert len(set(carrier)) == len(carrier)
                    assert all(in_carrier(p) for p in carrier)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            enumerate_carrier("xyz", 1, 1)


class TestApplyF:
    def test_hkn_examples(self):
        p = SignedPair("hkn", 2, 2, (2,), (1,))
        assert apply_f(p) == SignedPair("hkn", 2, 2, (1, 2), ())
        p = SignedPair("hkn", 2, 2, (1,), (1,))
        assert apply_f(p) == SignedPair("hkn", 2, 2, (), (1, 1))
        p = SignedPair("hkn", 2, 2, (), (1, 1))
        assert apply_f(p) == SignedPair("hkn", 2, 2, (1,), (1,))

    def test_outside_carrier_rejected(self):
        with pytest.raises(ValueError):
            apply_f(SignedPair("hkn", 2, 2, (3,), (1,)))
        with pytest.raises(ValueError):
            apply_f(SignedPair("ekn", 1, 2, (), (1, 1)))

    def test_flip_matches_the_sorted_rule(self):
        for family in ("hkn", "ekn"):
            for n in range(1, 7):
                for k in range(1, n + 1):
                    for p in enumerate_carrier(family, k, n):
                        assert involution._flip(p) == sorted_step(p), p

    def test_involution_laws_sweep(self):
        for family in ("hkn", "ekn"):
            for n in range(1, 7):
                for k in range(1, n + 1):
                    for p in enumerate_carrier(family, k, n):
                        q = apply_f(p)
                        assert in_carrier(q), (family, k, n, p)
                        assert q != p
                        assert q.sign == -p.sign
                        assert abs(len(q.a) - len(p.a)) == 1
                        assert q.weight_monomial() == p.weight_monomial()
                        assert apply_f(q) == p


class TestCertification:
    def test_spec_examples(self):
        r = certify_involution("hkn", 2, 2)
        assert r.ok and r.carrier_size == 4
        r = certify_involution("ekn", 1, 2)
        assert r.ok and r.carrier_size == 4
        assert certify_involution("hkn", 3, 5).ok

    def test_weight_sum_matches_identity_terms(self):
        # grouping the carrier by |A| = i reproduces the alternating-sum
        # factors e_{i,n} h_{k-i,n-k+1} (hkn) and h_{i,n-i+1} e_{k-i,n-i}
        for n in range(1, 6):
            for k in range(1, n + 1):
                for family in ("hkn", "ekn"):
                    groups = {}
                    for p in enumerate_carrier(family, k, n):
                        i = len(p.a)
                        groups.setdefault(i, []).append(p)
                    for i, ps in groups.items():
                        got = Polynomial(n, [(p.weight_monomial(), 1) for p in ps])
                        if family == "hkn":
                            want = elementary(i, n, n) * homogeneous(k - i, n - k + 1, n)
                        else:
                            # i = 0 contributes the degree-0 factor h_{0,n+1} = 1
                            h_factor = (Polynomial.one(n) if i == 0
                                        else homogeneous(i, n - i + 1, n))
                            want = h_factor * elementary(k - i, n - i, n)
                        assert got == want, (family, k, n, i)

    @pytest.mark.parametrize("broken, off", [
        ("identity", {"fixed_point_free", "sign_reversing"}),
        ("leaves_carrier", {"carrier_closed"}),
        ("not_involutive", {"is_involution"}),
    ])
    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_broken_map_is_caught(self, monkeypatch, family, broken, off):
        monkeypatch.setattr(involution, "_flip",
                            broken_maps(involution._flip)[broken])
        r = certify_involution(family, 2, 3)
        flags = ("carrier_closed", "is_involution", "sign_reversing",
                 "fixed_point_free", "weight_sum_zero")
        assert {f for f in flags if not getattr(r, f)} == off
        assert not r.ok

    def test_carrier_is_streamed(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("certify must not build the carrier list")

        monkeypatch.setattr(involution, "enumerate_carrier", refuse)
        assert certify_involution("hkn", 3, 4).ok
        assert certify_involution("ekn", 3, 4).ok

    @pytest.mark.parametrize("family", ["hkn", "ekn"])
    def test_one_validation_per_pair(self, monkeypatch, family):
        calls = []

        def counted(p):
            calls.append(p)
            return in_carrier(p)

        monkeypatch.setattr(involution, "in_carrier", counted)
        r = certify_involution(family, 3, 5)
        assert r.ok and len(calls) == r.carrier_size

    def test_trace_format(self):
        lines = orbit_trace("hkn", 2, 2)
        assert lines == [
            "({}|{1,1}) <-> ({1}|{1}) weight x1^2",
            "({2}|{1}) <-> ({1,2}|{}) weight -x1*x2",
        ]
