import re

import pytest

from symgb import hilbert, involution, symfunc, verify
from symgb.cli import main
from symgb.poly import Polynomial, format_polynomial
from symgb.verify import TARGETS, run_sweep


def test_k_range_of_each_target():
    cells = {t: [r.k for r in run_sweep(t, 3, 3)] for t in TARGETS}
    assert cells == {
        "gb-ek": [1, 2, 3], "gb-e1ek": [2, 3],
        "hkn": [1, 2, 3, 4, 5], "ekn": [1, 2, 3, 4, 5],
        "telescope": [1, 2, 3], "newton": [1, 2, 3, 4, 5],
        "e1ek-reduction": [1, 2, 3],
        "involution-hkn": [1, 2, 3], "involution-ekn": [1, 2, 3],
        "hilbert": [None],
    }


def test_fixed_k_selects_one_cell_per_n():
    results = run_sweep("gb-e1ek", 2, 4, fixed_k=3)
    assert [(r.k, r.n, r.ok) for r in results] == [(3, 3, True), (3, 4, True)]


def test_hilbert_box_refused_before_any_groebner_work(monkeypatch):
    def no_basis(k, n):
        raise AssertionError("the box must be refused before the basis is built")

    monkeypatch.setattr(verify, "computed_gb_ek", no_basis)
    with pytest.raises(ValueError, match=r"^staircase box has 39916800 points, "
                                         r"more than the limit of 10000000$"):
        verify.hilbert_series(11)


def test_unknown_target():
    with pytest.raises(ValueError, match="unknown target"):
        run_sweep("gb", 1, 2)


# -- the FAIL path: break what a check looks up and every kind of check fails


def accumulated_hkn(k, n):
    arity = max(n, 1)
    acc = symfunc.homogeneous(k, n - k + 1, arity)
    for i in range(1, k + 1):
        sign = 1 if i % 2 == 1 else -1
        acc = acc - sign * symfunc.elementary(i, n, arity) * symfunc.homogeneous(
            k - i, n - k + 1, arity)
    return acc


def accumulated_ekn(k, n):
    arity = max(n, 1)
    acc = symfunc.elementary(k, n, arity)
    for i in range(1, k + 1):
        sign = 1 if i % 2 == 1 else -1
        acc = acc - sign * symfunc.homogeneous(i, n - i + 1, arity) * symfunc.elementary(
            k - i, n - i, arity)
    return acc


def accumulated_telescope(j, n):
    arity = max(n, 1)
    x = Polynomial.variable(n - j + 1, arity)
    acc = -symfunc.homogeneous(j, n - j + 1, arity)
    for ell in range(j + 1):
        acc = acc + x ** ell * symfunc.homogeneous(j - ell, n - j, arity)
    return acc


def accumulated_newton(k, n):
    arity = max(n, 1)
    acc = Polynomial.zero(arity)
    for r in range(k):
        sign = 1 if r % 2 == 0 else -1
        acc = acc + sign * symfunc.elementary(r, n, arity) * symfunc.powersum(
            k - r, n, arity)
    sign = 1 if k % 2 == 0 else -1
    return acc + sign * k * symfunc.elementary(k, n, arity)


def perturb_builders(monkeypatch):
    """Add k to every e_k and h_k, which breaks each identity at most cells."""
    for name in ("elementary", "homogeneous"):
        good = getattr(symfunc, name)
        monkeypatch.setattr(symfunc, name,
                            lambda k, n, arity=None, good=good: good(k, n, arity) + k)


def break_closed_form(monkeypatch):
    monkeypatch.setattr(hilbert, "closed_form_series", lambda n: hilbert.SeriesPoly((1,)))


@pytest.mark.parametrize("target, accumulated", [
    ("hkn", accumulated_hkn), ("ekn", accumulated_ekn),
    ("telescope", accumulated_telescope), ("newton", accumulated_newton)])
def test_defect_witness_is_the_accumulated_difference(monkeypatch, target, accumulated):
    # The subtract-and-accumulate loops above state each identity a second
    # way: the signed sums must give the same polynomial, not just the same
    # zero test.
    perturb_builders(monkeypatch)
    results = run_sweep(target, 1, 4)
    assert not all(r.ok for r in results)
    for r in results:
        defect = accumulated(r.k, r.n)
        assert r.ok == defect.is_zero()
        assert r.witness == ("" if r.ok else f"defect={format_polynomial(defect)}")


def test_basis_fail_path(monkeypatch):
    good = symfunc.conjectured_gb_ek
    monkeypatch.setattr(symfunc, "conjectured_gb_ek", lambda k, n: good(k, n)[:-1])
    results = run_sweep("gb-ek", 1, 3)
    assert not any(r.ok for r in results)
    assert results[0].witness == "computed={x1} expected={}"
    assert all(" expected={" in r.witness for r in results)


# the flags of a certificate whose step maps every pair to itself
IDENTITY_STEP_FLAGS = ("carrier_closed=True, is_involution=True, "
                       "sign_reversing=False, fixed_point_free=False, "
                       "weight_sum_zero=True")


def test_certificate_fail_path(monkeypatch):
    monkeypatch.setattr(involution, "_flip", lambda p: p)
    results = run_sweep("involution-hkn", 1, 3)
    assert not any(r.ok for r in results)
    for r in results:
        assert r.witness == repr(involution.certify_involution("hkn", r.k, r.n))
        assert IDENTITY_STEP_FLAGS in r.witness


def test_hilbert_fail_path(monkeypatch):
    break_closed_form(monkeypatch)
    results = run_sweep("hilbert", 2, 3)
    assert [r.witness for r in results] == [
        "computed=[1, 1] expected=[1]", "computed=[1, 2, 2, 1] expected=[1]"]
    assert not any(r.ok for r in results)


@pytest.mark.parametrize("target", ["gb-ek", "hkn", "involution-ekn", "hilbert"])
def test_cli_exits_1_when_a_cell_fails(monkeypatch, capsys, target):
    perturb_builders(monkeypatch)
    monkeypatch.setattr(involution, "_flip", lambda p: p)
    break_closed_form(monkeypatch)
    assert main(["verify", target, "--n", "2..3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    if target.startswith("involution"):
        assert all(IDENTITY_STEP_FLAGS in line
                   for line in out.splitlines() if line.startswith("FAIL"))
    summary = re.fullmatch(r"(\d+)/(\d+) cells passed", out.splitlines()[-1])
    assert summary and int(summary[1]) < int(summary[2])
