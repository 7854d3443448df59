import pytest

from symgb import cli, hilbert, involution, symfunc
from symgb.cli import carrier_size, main, sym_build_size
from symgb.poly import parse_polynomial


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
        code, _, err = run(capsys, "sym", "--kind", "p", "--k", "0", "--n", "3")
        assert code == 2
        assert "error" in err


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

    def test_huge_inputs_are_counted_without_building(self, capsys, monkeypatch):
        for name in ("elementary", "homogeneous", "powersum"):
            monkeypatch.setattr(symfunc, name, refuse)
        over = cli.MAX_SYM_EXPONENTS + 1
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
        monkeypatch.setattr(cli, "MAX_SYM_EXPONENTS", size)
        code, out, _ = run(capsys, "sym", "--kind", kind, "--k", str(k), "--n", str(n))
        assert code == 0 and out.strip() != "0"
        monkeypatch.setattr(cli, "MAX_SYM_EXPONENTS", size - 1)
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

    @pytest.mark.parametrize("command", ["gb", "explore"])
    def test_generators_over_the_limit_are_refused(self, capsys, monkeypatch, command):
        monkeypatch.setattr(symfunc, "elementary", refuse)
        code, out, err = run(capsys, command, "--n", "40", "--gens", "e20")
        assert code == 2 and out == ""
        assert (f"error: building e_{{20,40}} stores more than the limit of "
                f"{cli.MAX_SYM_EXPONENTS} exponents") in err

    def test_polynomial_text_over_the_limit_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "parse_polynomial", refuse)
        for n, gens, first in ((2 * 10**7, "x1+x2,x2", "x1+x2"),
                               (10**9, "x1", "x1")):
            code, out, err = run(capsys, "gb", "--n", str(n), "--gens", gens)
            assert code == 2 and out == ""
            assert (f"error: parsing {first!r} in {n} variables stores more "
                    f"than the limit of {cli.MAX_SYM_EXPONENTS} exponents") in err

    def test_polynomial_text_limit_is_inclusive(self, capsys, monkeypatch):
        gens = "-x1+x2-3*x1^2"  # 3 terms of 4 exponents
        monkeypatch.setattr(cli, "MAX_SYM_EXPONENTS", 12)
        code, out, _ = run(capsys, "gb", "--n", "4", f"--gens={gens}")
        assert code == 0 and out != ""
        monkeypatch.setattr(cli, "MAX_SYM_EXPONENTS", 11)
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

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "gb", "--n", "2", "--gens", "x1+!")
        assert code == 2
        assert "error" in err

    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "gb", "--n", "4", "--gens", "e1,e2,e3,e4")
        assert code == 0
        for line in out.splitlines():
            assert str(parse_polynomial(line, 4)) == line


@pytest.mark.parametrize("command", ["gb", "explore"])
def test_stats_line_on_stderr(capsys, command):
    argv = (command, "--n", "4", "--gens", "e1,e2,e3,e4")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    code, out_with_stats, err = run(capsys, *argv, "--stats")
    assert code == 0
    assert out_with_stats == out
    assert err == ("stats: pairs=21 product_skipped=9 chain_skipped=9 "
                   "reductions=3 zero_reductions=0 peak_basis=7\n")


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
        code, _, err = run(capsys, "verify", "gb-ek", "--n", "5..2")
        assert code == 2
        assert "error" in err

    def test_k_outside_the_targets_range(self, capsys):
        code, out, err = run(capsys, "verify", "gb-ek", "--n", "3", "--k", "9")
        assert code == 2
        assert out == ""
        assert "k=9" in err
        code, _, _ = run(capsys, "verify", "gb-e1ek", "--n", "2..4", "--k", "1")
        assert code == 2
        code, _, _ = run(capsys, "verify", "hkn", "--n", "1..3", "--k", "6")
        assert code == 2

    def test_k_for_a_target_without_k(self, capsys):
        code, out, err = run(capsys, "verify", "hilbert", "--n", "2", "--k", "1")
        assert code == 2
        assert out == ""
        assert "error" in err


class TestExplore:
    def test_informational_output(self, capsys):
        code, out, _ = run(capsys, "explore", "--n", "3", "--gens", "e2,e3")
        assert code == 0
        assert out.startswith("basis size:")
        assert "leading monomials:" in out

    def test_consistent_with_gb(self, capsys):
        code, out_explore, _ = run(capsys, "explore", "--n", "4",
                                   "--gens", "e1,e2,e3,e4")
        assert code == 0
        code, out_gb, _ = run(capsys, "gb", "--n", "4", "--gens", "e1,e2,e3,e4")
        assert code == 0
        explored = [l for l in out_explore.splitlines()
                    if not l.startswith(("basis size", "leading monomials"))]
        assert explored == out_gb.splitlines()

    def test_principal_ideal(self, capsys):
        code, out, _ = run(capsys, "explore", "--n", "2", "--gens", "e2")
        assert code == 0
        assert "x1*x2" in out

    def test_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "explore", "--n", "2", "--gens", "e3")
        assert code == 2
        assert "error" in err

    def test_duplicate_index(self, capsys):
        code, _, err = run(capsys, "explore", "--n", "3", "--gens", "e2,e2")
        assert code == 2


class TestInvolutionAndHilbert:
    def test_involution_report(self, capsys):
        code, out, _ = run(capsys, "involution", "--family", "ekn",
                           "--k", "2", "--n", "3")
        assert code == 0
        assert "weight_sum_zero: True" in out

    def test_involution_trace(self, capsys):
        code, out, _ = run(capsys, "involution", "--family", "hkn",
                           "--k", "2", "--n", "2", "--trace")
        assert code == 0
        assert "({2}|{1}) <-> ({1,2}|{}) weight -x1*x2" in out

    def test_carrier_size_closed_form(self):
        for family in involution.FAMILIES:
            for n in range(1, 7):
                for k in range(1, n + 3):
                    carrier = involution.enumerate_carrier(family, k, n)
                    assert carrier_size(k, n) == len(carrier)

    def test_huge_carrier_refused_without_enumerating(self, capsys, monkeypatch):
        monkeypatch.setattr(involution, "_iter_carrier", refuse)
        monkeypatch.setattr(involution, "certify_involution", refuse)
        over = cli.MAX_CARRIER_PAIRS + 1
        assert carrier_size(60, 60) == over
        assert carrier_size(10**12, 10**12) == over
        assert carrier_size(10**12 + 1, 10**12) == 0
        code, out, err = run(capsys, "involution", "--family", "hkn",
                             "--k", "60", "--n", "60")
        assert code == 2 and out == ""
        assert (f"error: the hkn carrier for k=60, n=60 has more than the limit "
                f"of {cli.MAX_CARRIER_PAIRS} pairs") in err

    def test_carrier_limit_is_inclusive(self, capsys, monkeypatch):
        size = carrier_size(3, 5)
        monkeypatch.setattr(cli, "MAX_CARRIER_PAIRS", size)
        code, out, _ = run(capsys, "involution", "--family", "ekn",
                           "--k", "3", "--n", "5", "--trace")
        assert code == 0 and f"carrier_size={size}" in out
        monkeypatch.setattr(cli, "MAX_CARRIER_PAIRS", size - 1)
        code, out, err = run(capsys, "involution", "--family", "ekn",
                             "--k", "3", "--n", "5")
        assert code == 2 and out == ""
        assert (f"the ekn carrier for k=3, n=5 has more than the limit of "
                f"{size - 1} pairs") in err

    def test_hilbert_text(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--n", "4")
        assert code == 0
        assert "dimension: 24" in out

    def test_hilbert_box_over_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(hilbert, "MAX_BOX_POINTS", 23)
        code, out, err = run(capsys, "hilbert", "--n", "4")
        assert code == 2
        assert out == ""
        assert "staircase box has 24 points" in err

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
    ("explore", "--n", "0", "--gens", "e1"),
    ("involution", "--family", "ekn", "--k", "1", "--n", "-2"),
    ("involution", "--family", "hkn", "--k", "1", "--n", "0"),
])
def test_n_below_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "n must be >= 1" in err
