"""Sparse multivariate polynomial arithmetic over Q.

Monomials are dense exponent tuples of a fixed arity; ``exps[i-1]`` is the
exponent of the variable ``x_i``.  Polynomials are canonical sorted term
lists with exact coefficients: an integral coefficient is always an
``int`` and any other one a :class:`fractions.Fraction`, so integer
polynomials stay in ``int`` arithmetic until a division.  The only
monomial order provided is lexicographic with the highest-index variable
most significant (``x_n > x_{n-1} > ... > x_1``).  Products are formed on
monomials packed into ints (``_product_sum``) and unpacked into tuples.

A polynomial may be born packed (``Polynomial._packed_born``), as
``symfunc``'s e, h and p are: a sum of monomials with coefficient 1 that
keeps them packed.  Both kernels (``_product_sum`` here and ``groebner``'s
reductions) read them through ``_packed_terms``, and its ``terms`` tuple is
built only when something reads it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
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


def _term_key(term: tuple) -> Monomial:
    return term[0][::-1]  # lex order: the exponent of x_n first, then x_{n-1}, ...


def _check_monomial(mono: Monomial, arity: int) -> None:
    if len(mono) != arity:
        raise ArityMismatchError(
            f"monomial arity {len(mono)} != polynomial arity {arity}")
    if not all(isinstance(e, int) for e in mono):
        raise TypeError(f"exponents must be ints, got {mono}")
    if any(e < 0 for e in mono):
        raise ValueError(f"negative exponent in {mono}")


def _sorted_terms(acc: dict) -> tuple:
    """Canonical terms of a monomial -> coefficient dict: zeros dropped,
    coefficients canonical, sorted strictly decreasing under lex."""
    terms = [(m, c if type(c) is int else _coefficient(c))
             for m, c in acc.items() if c]
    terms.sort(key=_term_key, reverse=True)
    return tuple(terms)


class Polynomial:
    """Immutable polynomial in canonical form.

    ``terms`` is a tuple of (monomial, coefficient) pairs with distinct
    monomials, nonzero coefficients, sorted strictly decreasing under lex.
    The empty tuple is the zero polynomial.  A polynomial born packed keeps
    (width, largest exponent, packed monomials) in ``_packed`` instead, and
    builds ``terms`` from them when it is first read, dropping them then.
    """

    __slots__ = ("arity", "_terms", "_packed")

    def __init__(self, arity: int, terms: Iterable = ()):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        merged: dict = {}
        for mono, coeff in terms:
            mono = tuple(mono)
            _check_monomial(mono, arity)
            merged[mono] = merged.get(mono, 0) + _coefficient(coeff)
        self.arity = arity
        self._terms = _sorted_terms(merged)
        self._packed = None

    @classmethod
    def _trusted(cls, arity: int, terms: tuple) -> "Polynomial":
        """A polynomial whose ``terms`` are already canonical (see the class
        docstring); nothing is checked, merged or sorted."""
        p = object.__new__(cls)
        p.arity = arity
        p._terms = terms
        p._packed = None
        return p

    @classmethod
    def _packed_born(cls, arity: int, width: int, top: int,
                     keys: tuple) -> "Polynomial":
        """The sum, each with coefficient 1, of the distinct monomials
        ``keys``, packed in ``width``-byte fields (see ``_packers``) and in
        decreasing lex order; nothing is checked.  ``top`` is their largest
        exponent.  The zero polynomial keeps no packed monomials."""
        if not keys:
            return cls._trusted(arity, ())
        p = object.__new__(cls)
        p.arity = arity
        p._terms = None
        p._packed = width, top, keys
        return p

    @property
    def terms(self) -> tuple:
        terms = self._terms
        if terms is None:
            width, _, keys = self._packed
            unpack = _packers(self.arity, width)[1]
            terms = self._terms = tuple(zip(map(unpack, keys), repeat(1)))
            self._packed = None
        return terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls(arity)

    @classmethod
    def one(cls, arity: int) -> "Polynomial":
        return cls(arity, [((0,) * arity, 1)])

    @classmethod
    def constant(cls, c: Coefficient, arity: int) -> "Polynomial":
        return cls(arity, [((0,) * arity, c)])

    @classmethod
    def variable(cls, i: int, arity: int) -> "Polynomial":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= arity:
            raise ValueError(f"variable index {i} out of range 1..{arity}")
        exps = [0] * arity
        exps[i - 1] = 1
        return cls(arity, [(tuple(exps), 1)])

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff: Coefficient = 1) -> "Polynomial":
        return cls(len(mono), [(tuple(mono), coeff)])

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        # the zero polynomial is never born packed
        return self._packed is None and not self._terms

    # -- leading data ------------------------------------------------------

    def leading_term(self) -> tuple:
        """(coefficient, monomial) of the lex-maximal term."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        mono, coeff = self.terms[0]
        return coeff, mono

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
        acc = dict(self.terms)
        get = acc.get
        for m, c in other.terms:
            acc[m] = get(m, 0) + c
        return Polynomial._trusted(self.arity, _sorted_terms(acc))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.arity,
                                   tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            if not c:
                return Polynomial.zero(self.arity)
            # a nonzero scalar keeps every term nonzero and the order intact
            return Polynomial._trusted(self.arity, tuple(
                (m, _coefficient(cc * c)) for m, cc in self.terms))
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
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.arity, self.terms))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.arity}, {format_polynomial(self)!r})"


# -- packed products ---------------------------------------------------------
#
# A product packs each monomial into one int with a field of whole bytes per
# variable, x_1 in the lowest field and x_n in the top one.  While no field
# overflows, the product of two monomials is the sum of their ints and lex
# order is int order (Monagan and Pearce, "Sparse polynomial division using
# a heap", J. Symbolic Comput. 46, 2011).  Every packing takes its width
# from ``_field_width``, which keeps the top bit of each field clear: the
# guard bit that ``groebner``'s reductions test.  So a polynomial born packed
# for its own largest exponent is read as it is by both kernels.

def _max_exponent(p: Polynomial) -> int:
    if p._packed is not None:
        return p._packed[1]
    return max(map(max, zip(*[m for m, _ in p.terms])), default=0)


def _field_width(top: int) -> int:
    """The fewest bytes per field that hold exponents up to ``top`` with
    the top bit of each field clear: one byte up to 127, two up to 2^15 - 1."""
    return top.bit_length() // 8 + 1


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


def _packed_terms(p: Polynomial, width: int, pack) -> Sequence[tuple]:
    """p's (packed monomial, coefficient) pairs in decreasing lex order, in
    ``width``-byte fields, which ``pack`` packs: from the monomials p was
    born packed with when they have that width, else from its terms."""
    packed = p._packed
    if packed is not None and packed[0] == width:
        return tuple(zip(packed[2], repeat(1)))
    return [(pack(m), c) for m, c in p.terms]


def _product_sum(arity: int, parts: Iterable[tuple]) -> Polynomial:
    """sum of a * f * g over the (a, f, g) triples of ``parts``: a is an int
    or a Fraction, f and g are polynomials of the given arity.

    The fields are wide enough for the largest exponent of any f * g, so no
    sum of packed monomials carries.  The products are merged in one dict
    keyed on packed monomials, and only the nonzero sums are unpacked."""
    parts = list(parts)
    top = max((_max_exponent(f) + _max_exponent(g) for _, f, g in parts),
              default=0)
    width = _field_width(top)
    pack, unpack = _packers(arity, width)
    acc: dict = {}
    get = acc.get
    for a, f, g in parts:
        f, g = _packed_terms(f, width, pack), _packed_terms(g, width, pack)
        if len(f) > len(g):
            f, g = g, f  # the longer factor in the inner loop
        for k1, c in f:
            c1 = a * c
            for k2, c2 in g:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    keys = [k for k, c in acc.items() if c]
    keys.sort(reverse=True)
    return Polynomial._trusted(arity, tuple(
        (unpack(k), c if type(c := acc[k]) is int else _coefficient(c))
        for k in keys))


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
    for idx, (mono, coeff) in enumerate(p.terms):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        mono_s = _format_mono(mono)
        if not mono_s:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono_s
        else:
            body = f"{_format_coeff(mag)}*{mono_s}"
        if idx == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("-" if neg else "+") + body)
    return "".join(out)


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def _split_terms(text: str) -> Iterator[tuple]:
    """Yield (sign, term_text) pairs from the top-level +/- structure."""
    i = 0
    n = len(text)
    sign = 1
    if text.startswith("-"):
        sign = -1
        i = 1
    elif text.startswith("+"):
        raise PolyParseError("no '+' allowed before the first term")
    start = i
    while i <= n:
        if i == n or text[i] in "+-":
            chunk = text[start:i]
            if not chunk:
                raise PolyParseError(f"empty term in {text!r}")
            yield sign, chunk
            if i < n:
                sign = 1 if text[i] == "+" else -1
            i += 1
            start = i
        else:
            i += 1


def parse_polynomial(text: str, arity: int) -> Polynomial:
    """Parse the text grammar above into a polynomial of the given arity."""
    text = text.strip().replace(" ", "")
    if not text:
        raise PolyParseError("empty polynomial text")
    terms = []
    for sign, chunk in _split_terms(text):
        coeff = Fraction(sign)
        exps = [0] * arity
        saw_factor = False
        for pos, tok in enumerate(chunk.split("*")):
            fm = _FACTOR_RE.match(tok)
            if fm:
                i = int(fm.group(1))
                if not 1 <= i <= arity:
                    raise PolyParseError(
                        f"variable x{i} out of range 1..{arity}")
                exps[i - 1] += int(fm.group(2) or 1)
                saw_factor = True
                continue
            cm = _COEFF_RE.match(tok)
            if cm and pos == 0:
                den = int(cm.group(2) or 1)
                if den == 0:
                    raise PolyParseError(f"zero denominator in {tok!r}")
                coeff *= Fraction(int(cm.group(1)), den)
                continue
            raise PolyParseError(f"bad token {tok!r} in {chunk!r}")
        if not saw_factor and not _COEFF_RE.match(chunk.split("*")[0]):
            raise PolyParseError(f"bad term {chunk!r}")
        terms.append((tuple(exps), coeff))
    return Polynomial(arity, terms)
