import dataclasses
import re
from math import factorial

import pytest

from symgb import groebner, hilbert, involution, symfunc, verify
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
    # the limit is now MAX_HILBERT_N on n, not the n! points of the box
    def no_basis(k, n):
        raise AssertionError("n must be refused before the basis is built")

    limit = verify.MAX_HILBERT_N
    monkeypatch.setattr(verify, "computed_gb_ek", no_basis)
    with pytest.raises(ValueError, match=(
            rf"^the Hilbert series at n={limit + 1} needs the Groebner basis "
            rf"of <e_1..e_{limit + 1}>, more than the limit of n={limit}$")):
        verify.hilbert_series(limit + 1)
    monkeypatch.undo()
    monkeypatch.setattr(verify, "MAX_HILBERT_N", 3)
    series, expected = verify.hilbert_series(3)  # inclusive
    assert series == expected


def test_hilbert_sweep_refused_before_its_first_cell(monkeypatch):
    def no_basis(k, n):
        raise AssertionError("the sweep must be refused before any cell")

    limit = verify.MAX_HILBERT_N
    monkeypatch.setattr(verify, "computed_gb_ek", no_basis)
    with pytest.raises(ValueError, match=(
            rf"^the Hilbert series at n={limit + 1} needs the Groebner basis "
            rf"of <e_1..e_{limit + 1}>, more than the limit of n={limit}$")):
        run_sweep("hilbert", 1, limit + 1)
    monkeypatch.undo()
    monkeypatch.setattr(verify, "MAX_HILBERT_N", 3)
    assert [r.ok for r in run_sweep("hilbert", 1, 3)] == [True] * 3  # inclusive


def test_hilbert_sweep_to_the_new_ceiling():
    assert verify.TARGETS["hilbert"].max_n == 11
    results = run_sweep("hilbert", 7, 11)
    assert [(r.n, r.ok, r.witness) for r in results] == [
        (n, True, f"dim={factorial(n)}") for n in range(7, 12)]


def test_gb_ek_sweep_to_the_new_ceiling():
    assert verify.TARGETS["gb-ek"].max_n == 12
    results = run_sweep("gb-ek", 12, 12)
    assert [(r.k, r.n, r.ok, r.witness) for r in results] == [
        (k, 12, True, "") for k in range(1, 13)]


@pytest.mark.parametrize("target, ks", [
    ("gb-e1ek", range(2, 13)), ("hkn", range(1, 15)), ("ekn", range(1, 15)),
    ("telescope", range(1, 13)), ("newton", range(1, 15)),
    ("e1ek-reduction", range(1, 13))])
def test_sweep_to_the_new_ceiling_of_12(target, ks):
    assert verify.TARGETS[target].max_n == 12
    results = run_sweep(target, 12, 12)
    assert [(r.k, r.n, r.ok, r.witness) for r in results] == [
        (k, 12, True, "") for k in ks]


def test_hilbert_past_its_default_ceiling():
    # the n = 12 basis takes about 0.3 s, one step past the default ceiling
    # of 11 that test_hilbert_sweep_to_the_new_ceiling pins
    results = run_sweep("hilbert", 12, 12)
    assert [(r.n, r.ok, r.witness) for r in results] == [
        (12, True, f"dim={factorial(12)}")]


@pytest.mark.parametrize("family", involution.FAMILIES)
def test_involution_sweep_to_the_new_ceiling(family):
    target = f"involution-{family}"
    assert verify.TARGETS[target].max_n == 11
    results = run_sweep(target, 7, 11)
    assert [(r.k, r.n, r.ok, r.witness) for r in results] == [
        (k, n, True, "") for n in range(7, 12) for k in range(1, n + 1)]


@pytest.mark.parametrize("target, n_lo, fixed_k", [
    ("involution-ekn", 1, None), ("involution-hkn", 5, 3)])
def test_carrier_sweep_refused_before_its_first_cell(monkeypatch, target, n_lo,
                                                     fixed_k):
    # the largest carrier at n=5 has 2^3 C(5, 3) = 80 pairs, first at k=3
    family = target[len("involution-"):]
    size = involution.carrier_size(family, 3, 5)
    assert size == 80

    def no_certificate(family, k, n):
        raise AssertionError("the sweep must be refused before any cell")

    monkeypatch.setattr(involution, "certify_involution", no_certificate)
    monkeypatch.setattr(involution, "MAX_CARRIER_PAIRS", size - 1)
    with pytest.raises(ValueError, match=(
            rf"^the {family} carrier for k=3, n=5 has more than the limit of "
            rf"{size - 1} pairs$")):
        run_sweep(target, n_lo, 5, fixed_k=fixed_k)
    monkeypatch.undo()
    monkeypatch.setattr(involution, "MAX_CARRIER_PAIRS", size)  # inclusive
    results = run_sweep(target, n_lo, 5, fixed_k=fixed_k)
    assert results and all(r.ok for r in results)


@pytest.mark.parametrize("target, n_lo, n_hi", [
    ("gb-e1ek", 1, 1), ("gb-ek", 4, 3), ("hilbert", 2, 1)])
def test_range_without_a_cell(target, n_lo, n_hi):
    with pytest.raises(ValueError, match=(
            rf"^{target} has no cell for n in {n_lo}..{n_hi}$")):
        run_sweep(target, n_lo, n_hi)


@pytest.mark.parametrize("target", TARGETS)
def test_k_of_a_target_grow_with_n(target):
    # run_sweep refuses and checks for a cell at the top n alone on this
    ks = TARGETS[target].ks
    for n in range(1, 41):
        assert set(ks(n)) <= set(ks(n + 1))


@pytest.mark.parametrize("target", TARGETS)
def test_sweep_selects_the_brute_force_cells(monkeypatch, target):
    spec = TARGETS[target]
    monkeypatch.setitem(TARGETS, target, dataclasses.replace(
        spec, check=lambda k, n: (True, "")))
    for lo in range(1, 8):
        for hi in range(lo, 8):
            for fixed_k in (None, *range(-1, 11)):
                cells = [(k, n) for n in range(lo, hi + 1) for k in spec.ks(n)
                         if fixed_k is None or k == fixed_k]
                if cells:
                    results = run_sweep(target, lo, hi, fixed_k)
                    assert [(r.k, r.n) for r in results] == cells
                    continue
                with_k = "" if fixed_k is None else f" with k={fixed_k}"
                with pytest.raises(ValueError, match=(
                        rf"^{target} has no cell{with_k} for n in {lo}\.\.{hi}$")):
                    run_sweep(target, lo, hi, fixed_k)


def test_sweep_refused_before_any_cell_is_listed(monkeypatch):
    asked, spec = [], TARGETS["hkn"]

    def ks(n):
        asked.append(n)
        return spec.ks(n)

    monkeypatch.setitem(TARGETS, "hkn", dataclasses.replace(spec, ks=ks))
    with pytest.raises(ValueError, match=r"^the cell k=1 n=3000 builds"):
        run_sweep("hkn", 1, 3000)
    assert set(asked) == {3000}


@pytest.mark.parametrize("n_lo", [0, -1])
@pytest.mark.parametrize("target", TARGETS)
def test_n_below_one_refused_before_any_cell(monkeypatch, target, n_lo):
    def refuse(*args):
        raise AssertionError("the sweep must be refused before any cell")

    monkeypatch.setitem(TARGETS, target, dataclasses.replace(
        TARGETS[target], check=refuse, ks=refuse))
    for n_hi in (n_lo, 1, 2):
        with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n_lo}$"):
            run_sweep(target, n_lo, n_hi)


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
    power = Polynomial.one(arity)  # x^ell
    for ell in range(j + 1):
        acc = acc + power * symfunc.homogeneous(j - ell, n - j, arity)
        power = power * x
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


def from_scratch(k, n):
    return groebner.reduced_groebner_basis(
        [symfunc.elementary(i, n, n) for i in range(1, k + 1)])


def test_gb_ek_sweep_builds_each_cell_on_the_last_basis(monkeypatch):
    # every basis of a sweep equals the one built from e_1..e_k, and every
    # cell after k = 1 is built from the basis of the cell before it
    real = groebner.reduced_groebner_basis
    calls = []

    def spy(gens):
        gens = list(gens)
        calls.append((gens, real(gens)))
        return calls[-1][1]

    monkeypatch.setattr(verify, "_last_gb_ek", ([], None))
    monkeypatch.setattr(groebner, "reduced_groebner_basis", spy)
    results = run_sweep("gb-ek", 1, 9)
    monkeypatch.undo()
    assert all(r.ok for r in results)
    assert len(calls) == len(results)
    previous = None
    for r, (gens, gb) in zip(results, calls):
        e_k = symfunc.elementary(r.k, r.n, r.n)
        if r.k == 1:
            assert gens == [e_k]
        else:
            assert gens == [*previous.elements, e_k]
        assert gb.elements == from_scratch(r.k, r.n).elements, (r.k, r.n)
        previous = gb


@pytest.mark.parametrize("k, n", [(2, 2), (3, 5), (5, 6), (7, 7)])
def test_gb_ek_cold_and_after_the_cell_before_agree(monkeypatch, k, n):
    monkeypatch.setattr(verify, "_last_gb_ek", ([], None))
    cold = verify.computed_gb_ek(k, n)
    verify.computed_gb_ek(k - 1, n)
    warm = verify.computed_gb_ek(k, n)
    assert warm.elements == cold.elements == from_scratch(k, n).elements


def test_gb_ek_reuse_keyed_by_the_generators(monkeypatch):
    # the unpatched sweep leaves the real basis of (3, 4) stored; the
    # patched cell (4, 4) must not build on it, though its (k, n) follow
    assert all(r.ok for r in run_sweep("gb-ek", 3, 4, fixed_k=3))
    perturb_builders(monkeypatch)
    after = run_sweep("gb-ek", 4, 4, fixed_k=4)
    got = verify._last_gb_ek[1].elements
    monkeypatch.setattr(verify, "_last_gb_ek", ([], None))
    assert run_sweep("gb-ek", 4, 4, fixed_k=4) == after
    assert got == from_scratch(4, 4).elements  # of the patched e's


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
                       "weight_preserving=True, weight_sum_zero=True")


def identity_step(a, b):
    return a, b


def test_certificate_fail_path(patch_family):
    patch_family("hkn", step=identity_step)
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
def test_cli_exits_1_when_a_cell_fails(monkeypatch, patch_family, capsys, target):
    perturb_builders(monkeypatch)
    for family in involution.FAMILIES:
        patch_family(family, step=identity_step)
    break_closed_form(monkeypatch)
    assert main(["verify", target, "--n", "2..3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    if target.startswith("involution"):
        assert all(IDENTITY_STEP_FLAGS in line
                   for line in out.splitlines() if line.startswith("FAIL"))
    summary = re.fullmatch(r"(\d+)/(\d+) cells passed", out.splitlines()[-1])
    assert summary and int(summary[1]) < int(summary[2])
