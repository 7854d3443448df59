import os
import subprocess
import sys
from math import comb, factorial

import pytest

import symgb
from symgb import cli, involution, symfunc, verify
from symgb.cli import main
from symgb.involution import carrier_size
from symgb.poly import parse_polynomial
from symgb.symfunc import sym_build_size


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse(*args):
    raise AssertionError("the guard must refuse before building")


class TestSym:
    def test_elementary(self, capsys):
        code, out, _ = run(capsys, "sym", "--kind", "e", "--k", "2", "--n", "3")
        assert code == 0
        assert out.strip() == "x2*x3+x1*x3+x1*x2"

    def test_homogeneous(self, capsys):
        code, out, _ = run(capsys, "sym", "--kind", "h", "--k", "3", "--n", "1")
        assert code == 0
        assert out.strip() == "x1^3"

    def test_vanishing(self, capsys):
        code, out, _ = run(capsys, "sym", "--kind", "e", "--k", "4", "--n", "3")
        assert code == 0
        assert out.strip() == "0"

    def test_usage_error(self, capsys):
        for kind, k, message in (("p", "0", "power sums require k >= 1"),
                                 ("e", "-1", "degree k must be >= 0")):
            code, out, err = run(capsys, "sym", "--kind", kind, "--k", k, "--n", "3")
            assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSymBudget:
    def test_build_size_counts_the_result(self):
        # each term of the result has n exponents and is the weight of a k-tuple
        builders = {"e": symfunc.elementary, "h": symfunc.homogeneous,
                    "p": symfunc.powersum}
        for n in range(1, 6):
            for k in range(0, n + 2):
                for kind, build in builders.items():
                    if kind == "p" and k == 0:
                        continue
                    terms = len(build(k, n).terms)
                    assert sym_build_size(kind, k, n) == terms * (n + k)
        assert sym_build_size("e", 4, 3) == 0  # e_{4,3} = 0 at once
        assert sym_build_size("h", -1, 3) == 0

    def test_unknown_kind_is_not_counted(self):
        # an unknown kind used to be counted as h
        with pytest.raises(KeyError):
            sym_build_size("q", 2, 3)

    @pytest.mark.parametrize("kind", ["e", "h", "p"])
    def test_no_variables_cost_nothing(self, kind):
        # p used to count n terms, a negative cost for a negative n
        for n in (0, -2):
            assert sym_build_size(kind, 3, n) == 0
            assert symfunc.SYM_KINDS[kind].build(3, n).is_zero()

    def test_capped_binomial(self):
        # C(n, k) >= 2^k for k <= n/2, so k past the cap's bits needs no comb
        for n in (*range(0, 25), 10**6, 10**12, 10**50):
            for k in (*range(0, min(n, 30) + 3), *range(max(n - 30, 0), n + 3)):
                for cap in (0, 1, 7, 1000, 4 * 10**6, 10**30):
                    expected = min(comb(n, k), cap + 1)
                    assert symfunc._comb_capped(n, k, cap) == expected
        assert symfunc._comb_capped(5, -1, 10) == 0

    def test_huge_inputs_are_counted_without_building(self, capsys, monkeypatch):
        for name in ("elementary", "homogeneous", "powersum"):
            monkeypatch.setattr(symfunc, name, refuse)
        over = symfunc.MAX_SYM_EXPONENTS + 1
        assert sym_build_size("h", 10**12, 10**12) == over
        assert sym_build_size("e", 10**6, 2 * 10**6) == over
        assert sym_build_size("h", 10**7, 1) == over  # x1^k: one term, k steps
        for argv in (("h", "30", "30"), ("e", "12", "40"), ("p", "1", "2001"),
                     ("h", str(10**7), "1")):
            code, out, err = run(capsys, "sym", "--kind", argv[0],
                                 "--k", argv[1], "--n", argv[2])
            assert code == 2 and out == ""
            assert err.startswith(f"error: building {argv[0]}_")

    @pytest.mark.parametrize("kind,k,n", [("e", 3, 6), ("h", 3, 4), ("p", 2, 5)])
    def test_size_limit_is_inclusive(self, capsys, monkeypatch, kind, k, n):
        size = sym_build_size(kind, k, n)
        monkeypatch.setattr(symfunc, "MAX_SYM_EXPONENTS", size)
        code, out, _ = run(capsys, "sym", "--kind", kind, "--k", str(k), "--n", str(n))
        assert code == 0 and out.strip() != "0"
        monkeypatch.setattr(symfunc, "MAX_SYM_EXPONENTS", size - 1)
        code, out, err = run(capsys, "sym", "--kind", kind, "--k", str(k), "--n", str(n))
        assert code == 2
        assert out == ""
        assert (f"error: building {kind}_{{{k},{n}}} stores more than the limit "
                f"of {size - 1} exponents") in err

    def test_long_tuples_within_the_limit_run(self, capsys):
        # no depth limit: only the size of the result counts
        code, out, _ = run(capsys, "sym", "--kind", "e", "--k", "1200", "--n", "1200")
        assert code == 0
        assert out.strip() == "*".join(f"x{i}" for i in range(1, 1201))
        code, out, _ = run(capsys, "sym", "--kind", "h", "--k", "2000", "--n", "1")
        assert code == 0 and out.strip() == "x1^2000"

    @pytest.mark.parametrize("command", ["gb"])
    def test_generators_over_the_limit_are_refused(self, capsys, monkeypatch, command):
        monkeypatch.setattr(symfunc, "elementary", refuse)
        code, out, err = run(capsys, command, "--n", "40", "--gens", "e20")
        assert code == 2 and out == ""
        assert (f"error: building e_{{20,40}} stores more than the limit of "
                f"{symfunc.MAX_SYM_EXPONENTS} exponents") in err

    def test_generators_share_one_limit(self, capsys, monkeypatch):
        # e_{1,1000} stores 1000 * 1001 exponents: the fourth copy is over
        built, elementary = [], symfunc.elementary

        def counted(*args):
            built.append(args)
            return elementary(*args)

        monkeypatch.setattr(symfunc, "elementary", counted)
        code, out, err = run(capsys, "gb", "--n", "1000", "--gens", "e1,e1,e1,e1")
        assert (code, out) == (2, "")
        assert err == ("error: building e_{1,1000} stores more than the limit "
                       "of 4000000 exponents, after 3003000 stored\n")
        assert len(built) == 3

    def test_polynomial_text_shares_the_limit(self, capsys, monkeypatch):
        # 2 terms of 4 exponents, then 1 more: 12 stored in all
        monkeypatch.setattr(symfunc, "MAX_SYM_EXPONENTS", 11)
        code, out, err = run(capsys, "gb", "--n", "4", "--gens", "x1+x2,x3")
        assert (code, out) == (2, "")
        assert err == ("error: parsing 'x3' in 4 variables stores more than "
                       "the limit of 11 exponents, after 8 stored\n")
        monkeypatch.setattr(symfunc, "MAX_SYM_EXPONENTS", 12)  # inclusive
        code, out, _ = run(capsys, "gb", "--n", "4", "--gens", "x1+x2,x3")
        assert code == 0 and out != ""

    def test_polynomial_text_over_the_limit_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "parse_polynomial", refuse)
        for n, gens, first in ((2 * 10**7, "x1+x2,x2", "x1+x2"),
                               (10**9, "x1", "x1")):
            code, out, err = run(capsys, "gb", "--n", str(n), "--gens", gens)
            assert code == 2 and out == ""
            assert (f"error: parsing {first!r} in {n} variables stores more "
                    f"than the limit of {symfunc.MAX_SYM_EXPONENTS} exponents") in err

    def test_polynomial_text_limit_is_inclusive(self, capsys, monkeypatch):
        gens = "-x1+x2-3*x1^2"  # 3 terms of 4 exponents
        monkeypatch.setattr(symfunc, "MAX_SYM_EXPONENTS", 12)
        code, out, _ = run(capsys, "gb", "--n", "4", f"--gens={gens}")
        assert code == 0 and out != ""
        monkeypatch.setattr(symfunc, "MAX_SYM_EXPONENTS", 11)
        code, out, err = run(capsys, "gb", "--n", "4", f"--gens={gens}")
        assert code == 2 and out == ""
        assert f"error: parsing {gens!r} in 4 variables" in err


class TestGb:
    def test_elementary_generators(self, capsys):
        code, out, _ = run(capsys, "gb", "--n", "3", "--gens", "e1,e2,e3")
        assert code == 0
        assert out.splitlines() == [
            "x3+x2+x1", "x2^2+x1*x2+x1^2", "x1^3"]

    def test_two_generators(self, capsys):
        code, out, _ = run(capsys, "gb", "--n", "4", "--gens", "e1,e3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "x4+x3+x2+x1"

    def test_raw_polynomials(self, capsys):
        code, out, _ = run(capsys, "gb", "--n", "2", "--gens", "x1+x2,x1-x2")
        assert code == 0
        assert out.splitlines() == ["x2", "x1"]

    def test_principal_ideal(self, capsys):
        code, out, _ = run(capsys, "gb", "--n", "2", "--gens", "e2")
        assert code == 0
        assert out.splitlines() == ["x1*x2"]

    def test_index_out_of_range(self, capsys):
        for n, gens, message in (("2", "e3", "generator e3 out of range e1..e2"),
                                 ("3", "e1,,e2", "empty generator in --gens"),
                                 # an e-index is ASCII digits only
                                 ("3", "e²", "cannot parse generator 'e²': "
                                  "bad token 'e²' in 'e²'"),
                                 ("3", "e١", "cannot parse generator 'e١': "
                                  "bad token 'e١' in 'e١'")):
            code, out, err = run(capsys, "gb", "--n", n, "--gens", gens)
            assert code == 2 and out == ""
            assert f"error: {message}" in err

    @pytest.mark.parametrize("stats", [[], ["--stats"]])
    def test_zero_ideal_prints_nothing(self, capsys, stats):
        code, out, err = run(capsys, "gb", "--n", "2", "--gens", "0", *stats)
        assert (code, out, err) == (0, "", "")

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "gb", "--n", "2", "--gens", "x1+!")
        assert code == 2
        assert "error" in err

    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "gb", "--n", "4", "--gens", "e1,e2,e3,e4")
        assert code == 0
        for line in out.splitlines():
            assert str(parse_polynomial(line, 4)) == line

    def test_exponent_past_every_field_width(self, capsys):
        # x2^2 reduces to x1^(2 * (10^20 - 1)), wider than the fields the
        # generators are packed in
        code, out, _ = run(capsys, "gb", "--n", "2", "--gens",
                           "x2-x1^99999999999999999999,x2^2")
        assert code == 0
        assert out.splitlines() == ["x2-x1^99999999999999999999",
                                    "x1^199999999999999999998"]

    @pytest.mark.parametrize("gens, basis", [
        # a coefficient of the basis, of the input and an exponent past
        # Python's default limit of 4300 digits on int <-> str conversion
        (f"x2-1{'0' * 3000}*x1,x2^2-1", [f"x2-1{'0' * 3000}*x1",
                                          f"x1^2-1/1{'0' * 6000}"]),
        (f"x1-{'7' * 5000}", [f"x1-{'7' * 5000}"]),
        (f"x1^{'1' * 5000}-x1", [f"x1^{'1' * 5000}-x1"]),
    ], ids=["output", "coefficient", "exponent"])
    def test_digits_past_the_int_str_limit(self, capsys, gens, basis):
        limit = getattr(sys, "get_int_max_str_digits", int)()
        code, out, err = run(capsys, "gb", "--n", "2", "--gens", gens)
        assert (code, err) == (0, "")
        assert out.splitlines() == basis
        # lifted for the command only
        assert getattr(sys, "get_int_max_str_digits", int)() == limit


@pytest.mark.parametrize("command", ["gb"])
def test_stats_line_on_stderr(capsys, command):
    argv = (command, "--n", "4", "--gens", "e1,e2,e3,e4")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    code, out_with_stats, err = run(capsys, *argv, "--stats")
    assert code == 0
    assert out_with_stats == out
    assert err == ("stats: pairs=6 product_skipped=6 chain_skipped=0 "
                   "reductions=0 zero_reductions=0 peak_basis=4 "
                   "peak_coeff_bits=1\n")


class TestVerify:
    def test_gb_ek_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "gb-ek", "--n", "1..4")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("cells passed")

    def test_hilbert_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "hilbert", "--n", "1..5")
        assert code == 0
        for dim in (1, 2, 6, 24, 120):
            assert f"dim={dim}" in out

    def test_newton_sweep_records(self, capsys):
        code, out, _ = run(capsys, "verify", "newton", "--n", "1..4",
                           "--format", "records")
        assert code == 0
        for line in out.splitlines()[:-1]:
            assert line.startswith("target=newton k=")
            assert "status=PASS" in line

    def test_fixed_k(self, capsys):
        code, out, _ = run(capsys, "verify", "gb-ek", "--n", "2..4", "--k", "2")
        assert code == 0
        assert out.count("PASS") == 3

    def test_bad_range(self, capsys):
        for text, reason in (("5..2", "need 1 <= LO <= HI"),
                             ("a..b", "expected N or LO..HI")):
            code, out, err = run(capsys, "verify", "gb-ek", "--n", text)
            assert (code, out) == (2, "")
            assert err == f"error: bad range {text!r}; {reason}\n"

    def test_range_above_the_ceiling(self, capsys):
        assert verify.TARGETS["gb-ek"].max_n == 12
        code, out, err = run(capsys, "verify", "gb-ek", "--n", "13..20")
        assert (code, out) == (2, "")
        assert err == ("error: range '13..20' lies above gb-ek's default ceiling "
                       "n=12; pass --no-limit to lift it\n")

    def test_k_outside_the_targets_range(self, capsys):
        code, out, err = run(capsys, "verify", "gb-ek", "--n", "3", "--k", "9")
        assert code == 2
        assert out == ""
        assert "k=9" in err
        code, _, _ = run(capsys, "verify", "gb-e1ek", "--n", "2..4", "--k", "1")
        assert code == 2
        code, _, _ = run(capsys, "verify", "hkn", "--n", "1..3", "--k", "6")
        assert code == 2

    def test_range_without_a_cell(self, capsys):
        # gb-e1ek starts at k = 2, so n = 1 has no cell
        code, out, err = run(capsys, "verify", "gb-e1ek", "--n", "1")
        assert (code, out) == (2, "")
        assert err == "error: gb-e1ek has no cell for n in 1..1\n"

    # the seven targets that build e, h or p
    BUILDING = ("gb-ek", "gb-e1ek", "hkn", "ekn", "telescope", "newton",
                "e1ek-reduction")

    @pytest.mark.parametrize("target", BUILDING)
    def test_builds_past_the_limit_are_refused(self, capsys, monkeypatch, target):
        # --no-limit lifts the n ceiling, not the build limit: every selected
        # cell is checked before the first one builds anything
        for name in ("elementary", "homogeneous", "powersum"):
            monkeypatch.setattr(symfunc, name, refuse)
        for argv in (["--n", "40", "--k", "20"], ["--n", "1..40"]):
            code, out, err = run(capsys, "verify", target, *argv, "--no-limit")
            assert code == 2 and out == ""
            assert "builds e, h or p of up to C(40," in err
            assert f"more than the limit of {symfunc.MAX_SYM_EXPONENTS}" in err

    @pytest.mark.parametrize("target", BUILDING)
    def test_build_limit_is_inclusive(self, capsys, monkeypatch, target):
        # k=3, n=5: up to C(5,2)*8 = 80 exponents
        monkeypatch.setattr(symfunc, "MAX_SYM_EXPONENTS", 80)
        code, out, _ = run(capsys, "verify", target, "--n", "5", "--k", "3")
        assert code == 0 and out.endswith("1/1 cells passed\n")
        monkeypatch.setattr(symfunc, "MAX_SYM_EXPONENTS", 79)
        code, out, err = run(capsys, "verify", target, "--n", "5", "--k", "3")
        assert code == 2 and out == ""
        assert ("error: the cell k=3 n=5 builds e, h or p of up to C(5,2)*8 "
                "exponents, more than the limit of 79") in err

    def test_k_for_a_target_without_k(self, capsys):
        code, out, err = run(capsys, "verify", "hilbert", "--n", "2", "--k", "1")
        assert code == 2
        assert out == ""
        assert "error" in err


class TestInvolutionAndHilbert:
    def test_involution_report(self, capsys):
        code, out, _ = run(capsys, "involution", "--family", "ekn",
                           "--k", "2", "--n", "3")
        assert code == 0
        assert out == ("family=ekn k=2 n=3 carrier_size=12\n"
                       "carrier_closed: True\nis_involution: True\n"
                       "sign_reversing: True\nfixed_point_free: True\n"
                       "weight_preserving: True\nweight_sum_zero: True\n")

    def test_involution_needs_k(self, capsys):
        code, out, err = run(capsys, "involution", "--family", "hkn",
                             "--k", "0", "--n", "3")
        assert (code, out, err) == (2, "", "error: carrier requires k >= 1\n")

    def test_involution_trace(self, capsys):
        code, out, _ = run(capsys, "involution", "--family", "hkn",
                           "--k", "2", "--n", "2", "--trace")
        assert code == 0
        assert "({2}|{1}) <-> ({1,2}|{}) weight -x1*x2" in out

    def test_carrier_size_closed_form(self):
        for family in involution.FAMILIES:
            for n in range(1, 7):
                for k in range(1, n + 3):
                    layers = involution.FAMILIES[family].carrier(k, n)
                    assert carrier_size(family, k, n) == sum(
                        len(a_pool) * len(b_pool) for a_pool, b_pool in layers)

    def test_huge_carrier_refused_without_enumerating(self, capsys, patch_family):
        over = involution.MAX_CARRIER_PAIRS + 1
        for family in involution.FAMILIES:
            patch_family(family, carrier=refuse)
            assert carrier_size(family, 60, 60) == over
            assert carrier_size(family, 10**12, 10**12) == over
            assert carrier_size(family, 10**12 + 1, 10**12) == 0
        code, out, err = run(capsys, "involution", "--family", "hkn",
                             "--k", "60", "--n", "60")
        assert code == 2 and out == ""
        assert (f"error: the hkn carrier for k=60, n=60 has more than the limit "
                f"of {involution.MAX_CARRIER_PAIRS} pairs") in err

    def test_carrier_limit_is_inclusive(self, capsys, monkeypatch):
        size = carrier_size("ekn", 3, 5)
        monkeypatch.setattr(involution, "MAX_CARRIER_PAIRS", size)
        code, out, _ = run(capsys, "involution", "--family", "ekn",
                           "--k", "3", "--n", "5", "--trace")
        assert code == 0 and f"carrier_size={size}" in out
        monkeypatch.setattr(involution, "MAX_CARRIER_PAIRS", size - 1)
        code, out, err = run(capsys, "involution", "--family", "ekn",
                             "--k", "3", "--n", "5")
        assert code == 2 and out == ""
        assert (f"the ekn carrier for k=3, n=5 has more than the limit of "
                f"{size - 1} pairs") in err

    @pytest.mark.parametrize("family", involution.FAMILIES)
    def test_verify_carrier_past_the_limit(self, capsys, monkeypatch, family):
        # --no-limit lifts the n ceiling of the sweep, not the carrier budget
        # of `involution`: every selected cell is checked before the first
        size = carrier_size(family, 3, 5)
        monkeypatch.setattr(involution, "MAX_CARRIER_PAIRS", size - 1)
        monkeypatch.setattr(involution, "certify_involution", refuse)
        target = f"involution-{family}"
        for argv in (["--n", "5", "--k", "3"], ["--n", "1..5"]):
            code, out, err = run(capsys, "verify", target, *argv, "--no-limit")
            assert code == 2 and out == ""
            assert (f"error: the {family} carrier for k=3, n=5 has more than "
                    f"the limit of {size - 1} pairs") in err
        # the cells below the limit still run
        monkeypatch.undo()
        monkeypatch.setattr(involution, "MAX_CARRIER_PAIRS", size)
        code, out, _ = run(capsys, "verify", target, "--n", "5", "--k", "3", "--no-limit")
        assert code == 0 and out.endswith("1/1 cells passed\n")

    def test_hilbert_text(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--n", "4")
        assert code == 0
        assert "dimension: 24" in out

    def test_hilbert_box_over_the_limit(self, capsys, monkeypatch):
        # the limit is now on n, the size of the <e_1..e_n> basis, and it is
        # inclusive and checked before any Groebner work
        monkeypatch.setattr(verify, "MAX_HILBERT_N", 4)
        code, out, _ = run(capsys, "hilbert", "--n", "4")
        assert code == 0 and "dimension: 24" in out
        monkeypatch.setattr(verify, "computed_gb_ek", refuse)
        code, out, err = run(capsys, "hilbert", "--n", "5")
        assert code == 2
        assert out == ""
        assert ("error: the Hilbert series at n=5 needs the Groebner basis of "
                "<e_1..e_5>, more than the limit of n=4") in err

    def test_hilbert_far_over_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "computed_gb_ek", refuse)
        code, out, err = run(capsys, "hilbert", "--n", "40")
        assert code == 2 and out == ""
        assert f"more than the limit of n={verify.MAX_HILBERT_N}" in err

    def test_hilbert_sweep_past_the_limit(self, capsys, monkeypatch):
        # refused before the first cell, so no basis is built and no cell printed
        monkeypatch.setattr(verify, "computed_gb_ek", refuse)
        code, out, err = run(capsys, "verify", "hilbert", "--n", "1..40", "--no-limit")
        assert code == 2 and out == ""
        assert ("error: the Hilbert series at n=40 needs the Groebner basis of "
                f"<e_1..e_40>, more than the limit of n={verify.MAX_HILBERT_N}") in err

    def test_hilbert_n10_prints_the_closed_form(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--n", "10")
        assert code == 0
        assert f"dimension: {factorial(10)}" in out
        staircase, closed = out.splitlines()[:2]
        assert staircase.split(":", 1)[1].strip() == closed.split(":", 1)[1].strip()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_hilbert_n_below_one(self, capsys, n):
        code, out, err = run(capsys, "hilbert", "--n", n)
        assert code == 2
        assert out == ""
        assert "n must be >= 1" in err

    def test_hilbert_records(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--n", "3", "--format", "records")
        assert code == 0
        assert "coeffs=[1, 2, 2, 1]" in out
        assert "matches_closed_form=True" in out


# every command with an integer --n rejects n < 1 like hilbert does
@pytest.mark.parametrize("argv", [
    ("sym", "--kind", "h", "--k", "2", "--n", "-3"),
    ("sym", "--kind", "e", "--k", "1", "--n", "0"),
    ("gb", "--n", "0", "--gens", "e1"),
    ("gb", "--n", "0", "--gens", "x1"),
    ("involution", "--family", "ekn", "--k", "1", "--n", "-2"),
    ("involution", "--family", "hkn", "--k", "1", "--n", "0"),
])
def test_n_below_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "n must be >= 1" in err


def test_python_m_symgb():
    src = os.path.dirname(os.path.dirname(symgb.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "symgb", "sym", "--kind", "e", "--k", "2", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "x2*x3+x1*x3+x1*x2\n", "")
    done = subprocess.run([sys.executable, "-m", "symgb", "hilbert", "--n", "0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and "n must be >= 1" in done.stderr
