import random
from fractions import Fraction
from operator import add, le, sub

import pytest

from symgb import groebner, involution
from symgb.poly import Polynomial


# -- monomial operations on exponent tuples, the reference that the packed
# kernels are tested against

def lex_key(m: tuple) -> tuple:
    """Sort key of the lex order: the exponent of x_n first, then x_{n-1}, ..."""
    return m[::-1]


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    """True iff a | b, i.e. exponents of a are componentwise <= those of b."""
    return all(map(le, a, b))


def mono_div(b: tuple, a: tuple) -> tuple:
    """b / a, for a that divides b."""
    return tuple(map(sub, b, a))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def random_monomial(rng: random.Random, arity: int, max_degree: int) -> tuple:
    exps = [0] * arity
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(arity)] += 1
    return tuple(exps)


def random_coefficient(rng: random.Random, integral: bool = False) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = 1 if integral else rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_polynomial(rng: random.Random, arity: int, max_degree: int,
                      max_terms: int, allow_zero: bool = True,
                      integral: bool = False) -> Polynomial:
    n_terms = rng.randint(0 if allow_zero else 1, max_terms)
    terms = [(random_monomial(rng, arity, max_degree),
              random_coefficient(rng, integral))
             for _ in range(n_terms)]
    p = Polynomial(arity, terms)
    if not allow_zero and p.is_zero():
        return Polynomial.variable(1, arity)
    return p


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def widths(monkeypatch):
    """The list, filled as they are set, of the field widths of every
    packed run: the width it is built at, then each it widens to."""
    widths, widen = [], groebner._Packed.widen

    def recording(packed, width):
        widths.append(width)
        widen(packed, width)

    monkeypatch.setattr(groebner._Packed, "widen", recording)
    return widths


@pytest.fixture
def batches(monkeypatch):
    """The dict, filled as they run, from every ``groebner._Buchberger``
    run built to the list of the batches of generators it was fed: the
    generators it was built on, then each ``add``'s."""
    batches, init, add = {}, groebner._Buchberger.__init__, groebner._Buchberger.add

    def starting(run, *args, **kwargs):
        batches[run] = []
        init(run, *args, **kwargs)

    def adding(run, generators):
        generators = list(generators)
        batches[run].append(generators)
        add(run, generators)

    monkeypatch.setattr(groebner._Buchberger, "__init__", starting)
    monkeypatch.setattr(groebner._Buchberger, "add", adding)
    return batches


@pytest.fixture
def patch_family(monkeypatch):
    """``patch_family(name, step=...)`` replaces fields of one
    ``involution.FAMILIES`` entry until the test ends."""
    def patch(name, **fields):
        monkeypatch.setitem(involution.FAMILIES, name,
                            involution.FAMILIES[name]._replace(**fields))
    return patch
