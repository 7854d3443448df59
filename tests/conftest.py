import random
from fractions import Fraction

import pytest

from symgb import involution
from symgb.poly import Polynomial


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
def patch_family(monkeypatch):
    """``patch_family(name, step=...)`` replaces fields of one
    ``involution.FAMILIES`` entry until the test ends."""
    def patch(name, **fields):
        monkeypatch.setitem(involution.FAMILIES, name,
                            involution.FAMILIES[name]._replace(**fields))
    return patch
