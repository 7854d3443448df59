"""Hilbert series of artinian monomial-staircase quotients and the
closed-form product series prod_{i=1..n} (1 - t^i) / (1 - t)^n."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial, prod
from typing import Sequence

from .poly import Monomial, mono_divides


# Largest box staircase_series walks; 10! points pass, 11! do not.
MAX_BOX_POINTS = 10**7


class NonArtinianError(ValueError):
    """Raised when the staircase admits infinitely many standard monomials."""


@dataclass(frozen=True)
class SeriesPoly:
    """Dense univariate polynomial in t; coeffs[d] counts degree d."""

    coeffs: tuple

    def dimension(self) -> int:
        return sum(self.coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.coeffs)) + "]"


def check_box_points(points: int) -> None:
    """Raise ValueError when a box of ``points`` points is too large to walk."""
    if points > MAX_BOX_POINTS:
        raise ValueError(f"staircase box has {points} points, more than the "
                         f"limit of {MAX_BOX_POINTS}")


def _trim(coeffs: Sequence[int]) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def staircase_series(leading_monomials: Sequence[Monomial],
                     arity: int) -> SeriesPoly:
    """Count standard monomials (those divisible by no staircase generator)
    by total degree.

    Requires an artinian staircase: every variable must have some pure
    power among the generators, otherwise enumeration would not terminate.
    The walk covers the box below the pure powers; a box of more than
    ``MAX_BOX_POINTS`` points raises ValueError before it starts.
    """
    lms = [tuple(m) for m in leading_monomials]
    if any(len(m) != arity for m in lms):
        raise ValueError("staircase monomial arity mismatch")
    unit = (0,) * arity
    if unit in lms:
        return SeriesPoly(())  # unit ideal, zero quotient
    caps = [None] * arity
    for m in lms:
        support = [i for i, e in enumerate(m) if e > 0]
        if len(support) == 1:
            i = support[0]
            if caps[i] is None or m[i] < caps[i]:
                caps[i] = m[i]
    missing = [i + 1 for i, c in enumerate(caps) if c is None]
    if missing:
        raise NonArtinianError(
            "no pure power of x%s in the staircase; quotient is not "
            "finite-dimensional" % ",x".join(map(str, missing)))
    check_box_points(prod(caps))
    counts = [0] * (sum(c - 1 for c in caps) + 1)
    for exps in product(*(range(c) for c in caps)):
        if any(mono_divides(m, exps) for m in lms):
            continue
        counts[sum(exps)] += 1
    return SeriesPoly(_trim(counts))


def closed_form_series(n: int) -> SeriesPoly:
    """Expand prod_{i=1..n} (1 + t + ... + t^{i-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [1]
    for i in range(1, n + 1):
        out = [0] * (len(coeffs) + i - 1)
        for d, c in enumerate(coeffs):
            for shift in range(i):
                out[d + shift] += c
        coeffs = out
    return SeriesPoly(_trim(coeffs))


def quotient_dimension(n: int) -> int:
    """Total dimension of the quotient: always n!."""
    dim = closed_form_series(n).dimension()
    if dim != factorial(n):
        raise ArithmeticError(
            f"closed form has dimension {dim}, not {n}! = {factorial(n)}")
    return dim
