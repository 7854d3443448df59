"""Independent check of symgb's reduced Groebner bases against sympy.

sympy is imported only here, after every timed sweep, so its import and its
Groebner time stay out of ``setup_s`` and ``run_s``.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter
from typing import Iterable, Optional, Tuple


def _terms_key(terms) -> tuple:
    return tuple(sorted(terms, key=lambda t: t[0][::-1], reverse=True))


def compare_with_sympy(bases: Iterable) -> Tuple[Optional[bool], float, int]:
    """Compare each (generators, reduced basis) pair with
    ``sympy.groebner(generators, order='lex')`` over QQ, variables ordered
    x_n > ... > x_1 as in symgb.

    Returns (all agree, seconds inside sympy.groebner, bases compared);
    ``all agree`` is None when sympy cannot be imported.
    """
    try:
        import sympy
    except ImportError:
        return None, 0.0, 0
    agree, seconds, seen = True, 0.0, set()
    for gens, gb in bases:
        key = (gb.arity, tuple(g.terms for g in gens))
        if key in seen:
            continue
        seen.add(key)
        xs = sympy.symbols(f"x1:{gb.arity + 1}")[::-1]
        polys = [sympy.Poly.from_dict(
            {m[::-1]: sympy.Rational(c.numerator, c.denominator) for m, c in g.terms},
            *xs, domain=sympy.QQ) for g in gens]
        t0 = perf_counter()
        theirs = sympy.groebner(polys, *xs, order="lex", domain=sympy.QQ)
        seconds += perf_counter() - t0
        theirs = sorted(_terms_key((m[::-1], Fraction(int(c.p), int(c.q)))
                                   for m, c in p.terms()) for p in theirs.polys)
        ours = sorted(_terms_key(g.terms) for g in gb.elements)
        agree = agree and theirs == ours
    return agree, seconds, len(seen)
