"""Sparse multivariate polynomial arithmetic over Q.

Monomials are dense exponent tuples of a fixed arity; ``exps[i-1]`` is the
exponent of the variable ``x_i``.  Coefficients are exact: an integral
coefficient is always an ``int`` and any other one a
:class:`fractions.Fraction`, so integer polynomials stay in ``int``
arithmetic until a division.  The only monomial order provided is
lexicographic with the highest-index variable most significant
(``x_n > x_{n-1} > ... > x_1``).

A polynomial stores one form, its packed monomials beside their
coefficients (see :class:`Polynomial`), which both kernels, ``_product_sum``
here and ``groebner``'s reductions, read and build from.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence, Union

Monomial = tuple
Coefficient = Union[int, Fraction]


class ArityMismatchError(ValueError):
    """Raised when operands live in rings with different variable counts."""


class ZeroPolynomialError(ValueError):
    """Raised when an operation needs a nonzero polynomial."""


class PolyParseError(ValueError):
    """Raised on malformed polynomial text."""


def _coefficient(c: Coefficient) -> Coefficient:
    """c in canonical form: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


def _exact_div(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b in canonical form; never the float that int / int gives."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coefficient(a / b)


def _check_arity(arity: int) -> None:
    if arity < 1:
        raise ValueError("arity must be >= 1")


def _check_monomial(mono: Monomial, arity: int) -> None:
    if len(mono) != arity:
        raise ArityMismatchError(
            f"monomial arity {len(mono)} != polynomial arity {arity}")
    if not all(isinstance(e, int) for e in mono):
        raise TypeError(f"exponents must be ints, got {mono}")
    if any(e < 0 for e in mono):
        raise ValueError(f"negative exponent in {mono}")


class Polynomial:
    """Immutable polynomial in canonical form.

    ``keys`` are the monomials packed in ``width``-byte fields, the fewest
    that ``_field_width`` allows for the largest exponent, in strictly
    decreasing (lex) order; ``coeffs`` are their nonzero canonical
    coefficients.  The zero polynomial has no keys and width 1.  So equal
    polynomials have equal fields, and ``terms`` is a view that unpacks the
    keys into (monomial, coefficient) pairs on each read.
    """

    __slots__ = ("arity", "width", "keys", "coeffs")

    def __init__(self, arity: int, terms: Iterable = ()):
        _check_arity(arity)
        merged: dict = {}
        for mono, coeff in terms:
            mono = tuple(mono)
            _check_monomial(mono, arity)
            merged[mono] = merged.get(mono, 0) + _coefficient(coeff)
        terms = [(m, c) for m, c in merged.items() if c]
        width = _field_width(max([max(m) for m, _ in terms], default=0))
        pack = _packers(arity, width)[0]
        terms = sorted([(pack(m), _coefficient(c)) for m, c in terms], reverse=True)
        self.arity, self.width = arity, width
        self.keys, self.coeffs = tuple(zip(*terms)) or ((), ())

    @classmethod
    def _from_keys(cls, arity: int, width: int, keys: Sequence[int],
                   coeffs: Iterable) -> "Polynomial":
        """The polynomial of a kernel's packed monomials ``keys``, in
        ``width``-byte fields with the top bit of each clear and in strictly
        decreasing order, and of their nonzero canonical ``coeffs``; nothing
        is checked.  The keys are narrowed to the polynomial's own width when
        their largest exponent fits fewer bytes."""
        p = object.__new__(cls)
        p.arity, p.width, p.keys, p.coeffs = arity, width, tuple(keys), tuple(coeffs)
        if width > 1:
            own = _field_width(_max_exponent(p))
            if own < width:
                p.width, p.keys = own, _rewidth(p.keys, arity, width, own)
        return p

    @property
    def terms(self) -> tuple:
        """The (monomial, coefficient) pairs in decreasing lex order."""
        return tuple(_unpacked(self))

    # -- constructors ------------------------------------------------------

    # The single-term constructors build through ``from_monomial``, which
    # checks its input as ``__init__`` does, with the same errors, and then
    # packs its one key directly.

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls(arity)

    @classmethod
    def one(cls, arity: int) -> "Polynomial":
        return cls.from_monomial((0,) * arity)

    @classmethod
    def constant(cls, c: Coefficient, arity: int) -> "Polynomial":
        return cls.from_monomial((0,) * arity, c)

    @classmethod
    def variable(cls, i: int, arity: int) -> "Polynomial":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= arity:
            raise ValueError(f"variable index {i} out of range 1..{arity}")
        return cls.from_monomial((0,) * (i - 1) + (1,) + (0,) * (arity - i))

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff: Coefficient = 1) -> "Polynomial":
        arity = len(mono)
        _check_arity(arity)
        mono = tuple(mono)
        _check_monomial(mono, arity)
        coeff = _coefficient(coeff)
        if not coeff:
            return cls(arity)
        width = _field_width(max(mono))
        return cls._from_keys(arity, width, (_packers(arity, width)[0](mono),), (coeff,))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.keys

    # -- leading data ------------------------------------------------------

    def leading_term(self) -> tuple:
        """(coefficient, monomial) of the lex-maximal term."""
        if not self.keys:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return self.coeffs[0], _packers(self.arity, self.width)[1](self.keys[0])

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[1]

    def leading_coefficient(self) -> Coefficient:
        return self.leading_term()[0]

    def monic(self) -> "Polynomial":
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return self * _exact_div(1, lc)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.arity != self.arity:
                raise ArityMismatchError(
                    f"arity mismatch: {self.arity} vs {other.arity}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.arity)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        one = Polynomial.one(self.arity)
        return _product_sum(self.arity, ((1, self, one), (1, other, one)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _product_sum(self.arity, ((1, self, other),))

    __rmul__ = __mul__

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.arity)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.arity == other.arity and self.width == other.width
                and self.keys == other.keys and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.arity, self.width, self.keys, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.arity}, {format_polynomial(self)!r})"


# -- packed monomials --------------------------------------------------------
#
# A monomial packs into one int with a field of whole bytes per variable,
# x_1 in the lowest field and x_n in the top one.  While no field overflows,
# the product of two monomials is the sum of their ints and lex order is int
# order (Monagan and Pearce, "Sparse polynomial division using a heap",
# J. Symbolic Comput. 46, 2011).  Every packing takes its width from
# ``_field_width``, which keeps the top bit of each field clear: the guard
# bit that ``groebner``'s reductions test.  Both kernels read a polynomial's
# own keys, widened when they work in wider fields (``_packed_pairs``).

def _field_width(top: int) -> int:
    """The fewest bytes per field that hold exponents up to ``top`` with
    the top bit of each field clear: one byte up to 127, two up to 2^15 - 1."""
    return top.bit_length() // 8 + 1


def _guard(arity: int, width: int) -> int:
    """The top bit of each of ``arity`` fields of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * arity, "little")


def _max_exponent(p: Polynomial) -> int:
    """An exponent bound of p with the bit length of its largest exponent:
    the largest field of the bitwise OR of its keys."""
    width = p.width
    fields = reduce(or_, p.keys, 0).to_bytes(p.arity * width, "little")
    return max(int.from_bytes(fields[i:i + width], "little")
               for i in range(0, len(fields), width))


def _packers(arity: int, width: int) -> tuple:
    """(pack, unpack) between monomials and ints with ``width``-byte fields."""
    if width == 1:
        return (lambda m: int.from_bytes(bytes(m), "little"),
                lambda k: tuple(k.to_bytes(arity, "little")))
    size = arity * width

    def pack(m: Monomial) -> int:
        return int.from_bytes(
            b"".join(e.to_bytes(width, "little") for e in m), "little")

    def unpack(k: int) -> Monomial:
        b = k.to_bytes(size, "little")
        return tuple(int.from_bytes(b[i:i + width], "little")
                     for i in range(0, size, width))

    return pack, unpack


def _rewidth(keys: Sequence[int], arity: int, old: int, new: int) -> tuple:
    """``keys``, packed in ``old``-byte fields, repacked in ``new``-byte
    ones: each field keeps its low bytes, so a narrower width must hold
    every exponent.  All keys are moved at once, as one byte string."""
    src = b"".join(k.to_bytes(arity * old, "little") for k in keys)
    out = bytearray(len(keys) * arity * new)
    for j in range(min(old, new)):
        out[j::new] = src[j::old]
    size = arity * new
    return tuple(int.from_bytes(out[i:i + size], "little")
                 for i in range(0, len(out), size))


def _packed_pairs(p: Polynomial, width: int) -> Sequence[tuple]:
    """p's (packed monomial, coefficient) pairs in decreasing lex order, in
    ``width``-byte fields, at least as wide as p's own."""
    keys = p.keys if p.width == width else _rewidth(p.keys, p.arity, p.width, width)
    return tuple(zip(keys, p.coeffs))


def _unpacked(p: Polynomial) -> Iterator[tuple]:
    """p's (monomial, coefficient) pairs, unpacked one at a time."""
    return zip(map(_packers(p.arity, p.width)[1], p.keys), p.coeffs)


def _product_sum(arity: int, parts: Iterable[tuple]) -> Polynomial:
    """sum of a * f * g over the (a, f, g) triples of ``parts``: a is an int
    or a Fraction, f and g are polynomials of the given arity.

    The fields are as wide as the widest factor's, whose top bits are clear,
    so no sum of packed monomials carries.  The products are merged in one
    dict keyed on packed monomials, whose nonzero sums are the result's keys;
    when one of them reaches the top bit of a field, they take a byte more."""
    parts = list(parts)
    width = max([1, *[max(f.width, g.width) for _, f, g in parts]])
    acc: dict = {}
    get = acc.get
    for a, f, g in parts:
        f, g = _packed_pairs(f, width), _packed_pairs(g, width)
        if len(f) > len(g):
            f, g = g, f  # the longer factor in the inner loop
        for k1, c in f:
            c1 = a * c
            for k2, c2 in g:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    keys = [k for k, c in acc.items() if c]
    keys.sort(reverse=True)
    coeffs = [c if type(c := acc[k]) is int else _coefficient(c) for k in keys]
    if reduce(or_, keys, 0) & _guard(arity, width):
        keys, width = _rewidth(keys, arity, width, width + 1), width + 1
    return Polynomial._from_keys(arity, width, keys, coeffs)


# -- canonical text grammar -------------------------------------------------
#
#   poly := ['-'] term (('+'|'-') term)*
#   term := coeff | powprod | coeff '*' powprod
#   powprod := factor ('*' factor)*
#   factor := 'x'INT ['^'INT]
#   coeff := INT ['/'INT]
#
# Canonical printing: terms in decreasing lex order, coefficient 1 elided in
# front of a power product, no denominator 1, no '+' before the first term.

def _format_mono(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def _format_coeff(c: Coefficient) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    out = []
    for mono, coeff in _unpacked(p):
        mag = abs(coeff)
        mono_s = _format_mono(mono)
        if not mono_s:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono_s
        else:
            body = f"{_format_coeff(mag)}*{mono_s}"
        out.append(("-" if coeff < 0 else "+") + body)
    return "".join(out).removeprefix("+")


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_polynomial(text: str, arity: int) -> Polynomial:
    """Parse the text grammar above into a polynomial of the given arity."""
    text = text.strip().replace(" ", "")
    if not text:
        raise PolyParseError("empty polynomial text")
    if text.startswith("+"):
        raise PolyParseError("no '+' allowed before the first term")
    # ['', sign, term, sign, term, ...]: every term gets the sign before it
    parts = re.split(r"([+-])", text if text.startswith("-") else "+" + text)
    terms = []
    for sign, chunk in zip(parts[1::2], parts[2::2]):
        if not chunk:
            raise PolyParseError(f"empty term in {text!r}")
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * arity
        for pos, tok in enumerate(chunk.split("*")):
            fm = _FACTOR_RE.match(tok)
            if fm:
                i = int(fm.group(1))
                if not 1 <= i <= arity:
                    raise PolyParseError(
                        f"variable x{i} out of range 1..{arity}")
                exps[i - 1] += int(fm.group(2) or 1)
                continue
            cm = _COEFF_RE.match(tok)
            if cm and pos == 0:
                den = int(cm.group(2) or 1)
                if den == 0:
                    raise PolyParseError(f"zero denominator in {tok!r}")
                coeff *= Fraction(int(cm.group(1)), den)
                continue
            raise PolyParseError(f"bad token {tok!r} in {chunk!r}")
        terms.append((tuple(exps), coeff))
    return Polynomial(arity, terms)
