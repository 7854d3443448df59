"""Command-line interface.

Commands: sym, gb, verify, explore, involution, hilbert.  Exit codes:
0 = success / all verified, 1 = mathematical mismatch found, 2 = usage or
parse error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import groebner, involution, symfunc, verify
from .poly import (PolyParseError, Polynomial, _split_terms, format_polynomial,
                   parse_polynomial)

USAGE_ERROR = 2
# Limit of the builds `sym`, `gb` and `explore` run, in exponents stored
# (h_{10,10} stores 1847560), and of the pairs `involution` streams
# (10^6 pairs take about 13 s and 60 MB on a 2-vCPU Xeon).
MAX_SYM_EXPONENTS = 4 * 10**6
MAX_CARRIER_PAIRS = 10**6
STATS_HELP = "print the Buchberger run's counts as one line on stderr"


class UsageError(ValueError):
    pass


def _parse_n_range(text: str) -> tuple:
    """"3" -> (3, 3); "1..5" -> (1, 5)."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected N or LO..HI")
    if lo < 1 or hi < lo:
        raise UsageError(f"bad range {text!r}; need 1 <= LO <= HI")
    return lo, hi


def _require_n(n: int) -> int:
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    return n


def _parse_generators(spec: str, n: int, elementary_only: bool = False) -> List[Polynomial]:
    """Comma list of e-indices ("e1,e3") and/or raw polynomial text."""
    _require_n(n)
    gens = []
    indices = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise UsageError("empty generator in --gens")
        if token.startswith("e") and token[1:].isdigit():
            i = int(token[1:])
            if not 1 <= i <= n:
                raise UsageError(f"generator {token} out of range e1..e{n}")
            indices.append(i)
            _check_sym_size("e", i, n)
            gens.append(symfunc.elementary(i, n, n))
        elif elementary_only:
            raise UsageError(f"explore accepts only e-indices, got {token!r}")
        else:
            try:
                _check_text_size(token, n)
                gens.append(parse_polynomial(token, n))
            except PolyParseError as exc:
                raise UsageError(f"cannot parse generator {token!r}: {exc}")
    if elementary_only and len(set(indices)) != len(indices):
        raise UsageError("explore requires distinct e-indices")
    return gens


def _print_basis(gb: groebner.GroebnerBasis) -> None:
    for g in gb.elements:
        print(format_polynomial(g))


def _print_stats(args, gb: groebner.GroebnerBasis) -> None:
    """With --stats, one line on stderr, so stdout stays the same."""
    if args.stats:
        print(f"stats: {gb.stats.record()}", file=sys.stderr)


def _comb_capped(n: int, k: int, cap: int) -> int:
    """C(n, k) when it is at most cap, else cap + 1; cheap for any n, k."""
    k = min(k, n - k)
    if k < 0:
        return 0
    c = 1
    for i in range(k):  # C(n, i) grows with i up to n/2
        c = c * (n - i) // (i + 1)
        if c > cap:
            return cap + 1
    return c


def sym_build_size(kind: str, k: int, n: int) -> int:
    """Cost of building e_{k,n}, h_{k,n} or p_{k,n} in n variables, counted
    without building anything; MAX_SYM_EXPONENTS + 1 stands for every count
    above the limit.

    The result has C(n, k), C(n+k-1, k) or n terms of n exponents each, and
    each term is the weight of an enumerated k-tuple, so a term costs n + k:
    h_{k,1} = x1^k is one term but k steps.  0 for a negative k, which the
    builders reject."""
    cap = MAX_SYM_EXPONENTS
    if k < 0:
        return 0
    if kind == "p":
        terms = n
    elif kind == "e":
        terms = _comb_capped(n, k, cap)
    else:
        terms = _comb_capped(n + k - 1, k, cap)
    return min(terms * (n + k), cap + 1)


def _check_sym_size(kind: str, k: int, n: int) -> None:
    if sym_build_size(kind, k, n) > MAX_SYM_EXPONENTS:
        raise UsageError(f"building {kind}_{{{k},{n}}} stores more than the "
                         f"limit of {MAX_SYM_EXPONENTS} exponents")


def _check_text_size(text: str, n: int) -> None:
    """Refuse polynomial text whose terms of n exponents each would store
    more than MAX_SYM_EXPONENTS, counting the terms before parsing them."""
    terms = sum(1 for _ in _split_terms(text.replace(" ", "")))
    if terms * n > MAX_SYM_EXPONENTS:
        raise UsageError(f"parsing {text!r} in {n} variables stores more than "
                         f"the limit of {MAX_SYM_EXPONENTS} exponents")


def carrier_size(k: int, n: int) -> int:
    """Pairs in the hkn or ekn carrier, counted without enumerating them;
    MAX_CARRIER_PAIRS + 1 stands for every count above the limit.

    Both families have sum_i C(n, i) C(n-i, k-i) pairs with |A| = i: for
    hkn, i-subsets of {1..n} times (k-i)-multisets of {1..n-k+1}; for ekn,
    i-multisets of {1..n-i+1} times (k-i)-subsets of {1..n-i}.  The carrier
    is empty for k > n, and otherwise every term is at least 1, so the loop
    stops after at most MAX_CARRIER_PAIRS + 1 terms."""
    cap = MAX_CARRIER_PAIRS
    if k > n:
        return 0
    total = 0
    for i in range(k + 1):
        total += _comb_capped(n, i, cap) * _comb_capped(n - i, k - i, cap)
        if total > cap:
            return cap + 1
    return total


def cmd_sym(args) -> int:
    builders = {"e": symfunc.elementary, "h": symfunc.homogeneous,
                "p": symfunc.powersum}
    kind, k, n = args.kind, args.k, _require_n(args.n)
    _check_sym_size(kind, k, n)
    print(format_polynomial(builders[kind](k, n)))
    return 0


def cmd_gb(args) -> int:
    gens = _parse_generators(args.gens, args.n)
    try:
        gb = groebner.reduced_groebner_basis(gens)
    except groebner.ZeroIdealError:
        return 0  # zero ideal: empty basis, nothing to print
    _print_basis(gb)
    _print_stats(args, gb)
    return 0


def cmd_explore(args) -> int:
    gens = _parse_generators(args.gens, args.n, elementary_only=True)
    gb = groebner.reduced_groebner_basis(gens)
    print(f"basis size: {len(gb)}")
    for g in gb.elements:
        print(format_polynomial(g))
    print("leading monomials: "
          + ", ".join(format_polynomial(Polynomial.from_monomial(m))
                      for m in gb.leading_monomials()))
    _print_stats(args, gb)
    return 0


def cmd_verify(args) -> int:
    lo, hi = _parse_n_range(args.n)
    if not args.no_limit:
        hi = min(hi, verify.TARGETS[args.target].max_n)
    if hi < lo:
        raise UsageError("range is empty after applying caps")
    results = verify.run_sweep(args.target, lo, hi, fixed_k=args.k)
    failed = False
    for r in results:
        if args.format == "records":
            print(r.record())
        else:
            k = "" if r.k is None else f" k={r.k}"
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} {r.target}{k} n={r.n}"
            if r.witness:
                line += f"  [{r.witness}]"
            print(line)
        failed = failed or not r.ok
    total = len(results)
    bad = sum(1 for r in results if not r.ok)
    print(f"{total - bad}/{total} cells passed")
    return 1 if failed else 0


def cmd_involution(args) -> int:
    k, n = args.k, _require_n(args.n)
    if carrier_size(k, n) > MAX_CARRIER_PAIRS:
        raise UsageError(f"the {args.family} carrier for k={k}, n={n} has more "
                         f"than the limit of {MAX_CARRIER_PAIRS} pairs")
    report = involution.certify_involution(args.family, k, n)
    print(f"family={report.family} k={report.k} n={report.n} "
          f"carrier_size={report.carrier_size}")
    for name in ("carrier_closed", "is_involution", "sign_reversing",
                 "fixed_point_free", "weight_sum_zero"):
        print(f"{name}: {getattr(report, name)}")
    if args.trace:
        for line in involution.orbit_trace(args.family, args.k, args.n):
            print(line)
    return 0 if report.ok else 1


def cmd_hilbert(args) -> int:
    series, expected = verify.hilbert_series(args.n)
    if args.format == "records":
        print(f"n={args.n} coeffs={list(series.coeffs)} "
              f"dimension={series.dimension()} "
              f"matches_closed_form={series == expected}")
    else:
        print(f"staircase series: {series}")
        print(f"closed form:      {expected}")
        print(f"dimension: {series.dimension()}")
    return 0 if series == expected else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symgb",
        description="Exact Groebner-basis toolkit for ideals of elementary "
                    "symmetric polynomials")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sym", help="print a symmetric polynomial")
    p.add_argument("--kind", choices=("e", "h", "p"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_sym)

    p = sub.add_parser("gb", help="reduced Groebner basis of an ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", required=True,
                   help="comma list of e-indices and/or polynomial text")
    p.add_argument("--stats", action="store_true", help=STATS_HELP)
    p.set_defaults(fn=cmd_gb)

    p = sub.add_parser("verify", help="sweep-verify a target")
    p.add_argument("target", choices=verify.TARGETS)
    p.add_argument("--n", required=True, help="N or LO..HI")
    p.add_argument("--k", type=int, default=None, help="fix k instead of sweeping")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--no-limit", action="store_true",
                   help="ignore the per-target default n ceiling")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("explore",
                       help="reduced GB of an arbitrary set of elementary generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", required=True, help="comma list of e-indices")
    p.add_argument("--stats", action="store_true", help=STATS_HELP)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("involution", help="certify a cancelling involution")
    p.add_argument("--family", choices=involution.FAMILIES, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_involution)

    p = sub.add_parser("hilbert", help="Hilbert series of the full elementary ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=cmd_hilbert)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # UsageError and PolyParseError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
