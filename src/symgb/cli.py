"""Command-line interface.

Commands: sym, gb, verify, involution, hilbert.  Exit codes:
0 = success / all verified, 1 = mathematical mismatch found, 2 = usage or
parse error.  The CLI applies ``symfunc``'s build limit to its own builds;
the hard limits of a sweep are the ``verify.Target.refuse`` of each target,
and the carrier limit of `involution` is ``involution.refuse_carrier``,
which the certificate and the trace apply themselves.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional

from . import groebner, involution, symfunc, verify
from .poly import PolyParseError, Polynomial, format_polynomial, parse_polynomial
from .symfunc import sym_build_size

USAGE_ERROR = 2


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


def _parse_generators(spec: str, n: int) -> List[Polynomial]:
    """Comma list of e-indices ("e1,e3") and/or raw polynomial text."""
    _require_n(n)
    gens = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise UsageError("empty generator in --gens")
        if token.startswith("e") and token[1:].isdigit():
            i = int(token[1:])
            if not 1 <= i <= n:
                raise UsageError(f"generator {token} out of range e1..e{n}")
            _check_sym_size("e", i, n)
            gens.append(symfunc.elementary(i, n, n))
        else:
            try:
                _check_text_size(token, n)
                gens.append(parse_polynomial(token, n))
            except PolyParseError as exc:
                raise UsageError(f"cannot parse generator {token!r}: {exc}")
    return gens


def _check_sym_size(kind: str, k: int, n: int) -> None:
    if sym_build_size(kind, k, n) > symfunc.MAX_SYM_EXPONENTS:
        raise UsageError(f"building {kind}_{{{k},{n}}} stores more than the "
                         f"limit of {symfunc.MAX_SYM_EXPONENTS} exponents")


def _check_text_size(text: str, n: int) -> None:
    """Refuse polynomial text whose terms of n exponents each would store
    more than symfunc.MAX_SYM_EXPONENTS, counting the terms, the nonblank
    pieces between signs, before parsing them."""
    terms = sum(1 for chunk in re.split(r"[+-]", text) if chunk.strip())
    if terms * n > symfunc.MAX_SYM_EXPONENTS:
        raise UsageError(f"parsing {text!r} in {n} variables stores more than "
                         f"the limit of {symfunc.MAX_SYM_EXPONENTS} exponents")


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
    for g in gb.elements:
        print(format_polynomial(g))
    if args.stats:  # one line on stderr, so stdout stays the same
        print(f"stats: {gb.stats.record()}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    lo, hi = _parse_n_range(args.n)
    max_n = verify.TARGETS[args.target].max_n
    if not args.no_limit:
        hi = min(hi, max_n)
    if hi < lo:
        raise UsageError(f"range {args.n!r} lies above {args.target}'s default "
                         f"ceiling n={max_n}; pass --no-limit to lift it")
    results = verify.run_sweep(args.target, lo, hi, fixed_k=args.k)
    for r in results:
        print(r.record() if args.format == "records" else r.text())
    bad = sum(1 for r in results if not r.ok)
    print(f"{len(results) - bad}/{len(results)} cells passed")
    return 1 if bad else 0


def cmd_involution(args) -> int:
    k, n = args.k, _require_n(args.n)
    report = involution.certify_involution(args.family, k, n)
    print(f"family={report.family} k={report.k} n={report.n} "
          f"carrier_size={report.carrier_size}")
    for name in report.FLAGS:
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
    p.add_argument("--stats", action="store_true",
                   help="print the Buchberger run's counts as one line on stderr")
    p.set_defaults(fn=cmd_gb)

    p = sub.add_parser("verify", help="sweep-verify a target")
    p.add_argument("target", choices=verify.TARGETS)
    p.add_argument("--n", required=True, help="N or LO..HI")
    p.add_argument("--k", type=int, default=None, help="fix k instead of sweeping")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--no-limit", action="store_true",
                   help="ignore the per-target default n ceiling")
    p.set_defaults(fn=cmd_verify)

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
    # Exact coefficients and exponents may have more digits than Python's
    # limit on int <-> str conversion (4300 by default, from 3.10.7 on), so
    # the command lifts it and restores it on return; the text parsed is
    # bounded by the size of the command line.
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ValueError as exc:  # UsageError and PolyParseError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
