"""Workload definitions: the cells each workload runs, their inputs and the
exact check applied to each cell's output.

A cell is one closed-loop call into the library.  Its ``check`` runs after
the timed sweep, so the checks never count toward ``run_s``.  Every
workload is rebuilt on a freshly imported ``symgb`` (see ``load_symgb``), so
module-level caches start cold for each sweep, as they do for one
``symgb verify`` process.
"""

from __future__ import annotations

import gc
import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("poly", "groebner", "symfunc", "involution", "hilbert", "verify")


class MissingProgramError(RuntimeError):
    """Raised when the symgb sources are not beside the benchmark."""


def unload_symgb() -> None:
    """Drop every symgb module and collect what only they kept alive."""
    for name in [m for m in sys.modules if m == "symgb" or m.startswith("symgb.")]:
        del sys.modules[name]
    gc.collect()


def load_symgb() -> SimpleNamespace:
    """Import symgb from ``src/``.  After ``unload_symgb`` this gives fresh
    module state, including every cache a module keeps, without starting a
    new interpreter."""
    if not (SRC / "symgb" / "__init__.py").is_file():
        raise MissingProgramError(f"no symgb package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("symgb")
    if Path(pkg.__file__).resolve().parent != SRC / "symgb":
        raise MissingProgramError(f"symgb imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"symgb.{name}")
                              for name in LAYERS})


@dataclass(frozen=True)
class Cell:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    n: int


# -- verify-driven workloads -------------------------------------------------
#
# The k range of each verify target, as `symgb verify` sweeps it: hkn, ekn
# and newton also cover the trivially true k = n+1, n+2 cells.

def _k_range(target: str, n: int) -> List[Optional[int]]:
    if target == "hilbert":
        return [None]
    if target in ("hkn", "ekn", "newton"):
        return list(range(1, n + 3))
    if target == "gb-e1ek":
        return list(range(2, n + 1))
    return list(range(1, n + 1))


def _verify_cell(lib, target: str, k: Optional[int], n: int) -> Cell:
    def run():
        return lib.verify.run_sweep(target, n, n, fixed_k=k)

    def check(results) -> bool:
        return (len(results) == 1 and results[0].ok
                and (results[0].target, results[0].k, results[0].n) == (target, k, n))

    label = f"{target} n={n}" if k is None else f"{target} k={k} n={n}"
    return Cell(label, run, check, n)


def _verify_cells(lib, ceilings: Dict[str, int]) -> List[Cell]:
    return [_verify_cell(lib, target, k, n)
            for target, hi in ceilings.items()
            for n in range(1, hi + 1)
            for k in _k_range(target, n)]


def paper_gb(lib, seed: int) -> List[Cell]:
    return _verify_cells(lib, {"gb-ek": 8, "gb-e1ek": 8, "hilbert": 7})


def identities(lib, seed: int) -> List[Cell]:
    return _verify_cells(lib, {t: 10 for t in
                               ("hkn", "ekn", "telescope", "newton", "e1ek-reduction")})


def certify(lib, seed: int) -> List[Cell]:
    cells = _verify_cells(lib, {"involution-hkn": 9, "involution-ekn": 9})
    for n in range(1, 9):
        cells.append(_staircase_cell(lib, n))
    return cells


def _staircase_cell(lib, n: int) -> Cell:
    # leading monomials x_{n-i+1}^i of the closed-form basis {h_{i,n-i+1}}
    staircase = [tuple(i if j == n - i else 0 for j in range(n))
                 for i in range(1, n + 1)]
    expected = lib.hilbert.closed_form_series(n)

    def check(series) -> bool:
        return series == expected and series.dimension() == factorial(n)

    return Cell(f"staircase n={n}",
                lambda: lib.hilbert.staircase_series(staircase, n), check, n)


# -- shifted-gb --------------------------------------------------------------
#
# x -> x + c keeps every lex leading monomial and maps standard monomials to
# sums of standard monomials, so the reduced basis of <e_{1..k,n}(x+c)> is
# exactly {h_{i,n-i+1}(x+c)}.  The magnitudes are fixed and the seed only
# permutes them and picks signs: coefficient growth, and so the cost, depends
# on the magnitudes, and fixing them keeps run_s comparable across seeds.

SHIFT_MAGNITUDES = tuple(Fraction(*q) for q in
                         ((1, 2), (2, 3), (3, 4), (1, 3), (3, 2), (5, 4), (2, 1)))
SHIFT_MAX_N = 7


def shift_vectors(seed: int) -> Dict[Tuple[int, int], Tuple[Fraction, ...]]:
    """The shift vector c of every (k, n) cell; a pure function of the seed."""
    rng = random.Random(seed)
    out = {}
    for n in range(1, SHIFT_MAX_N + 1):
        for k in range(1, n + 1):
            mags = list(SHIFT_MAGNITUDES)
            rng.shuffle(mags)
            out[(k, n)] = tuple(m * rng.choice((-1, 1)) for m in mags[:n])
    return out


def shifted(lib, p, c: Tuple[Fraction, ...]):
    """p(x_1 + c_1, ..., x_n + c_n), expanded by the binomial theorem."""
    acc: Dict[tuple, Fraction] = {}
    for mono, coeff in p.terms:
        partial = {(): coeff}
        for e, ci in zip(mono, c):
            partial = {m + (a,): v * comb(e, a) * ci ** (e - a)
                       for m, v in partial.items() for a in range(e + 1)}
        for m, v in partial.items():
            acc[m] = acc.get(m, 0) + v
    return lib.poly.Polynomial(p.arity, acc.items())


def shifted_gb(lib, seed: int) -> List[Cell]:
    cells = []
    for (k, n), c in shift_vectors(seed).items():
        gens = [shifted(lib, lib.symfunc.elementary(i, n, n), c)
                for i in range(1, k + 1)]
        expected = [shifted(lib, lib.symfunc.homogeneous(i, n - i + 1, n), c)
                    for i in range(1, k + 1)]
        cells.append(Cell(f"shifted-gb k={k} n={n}",
                          lambda gens=gens: lib.groebner.reduced_groebner_basis(gens),
                          lambda gb, expected=expected: list(gb.elements) == expected,
                          n))
    return cells


WORKLOADS = {
    "paper-gb": paper_gb,
    "shifted-gb": shifted_gb,
    "identities": identities,
    "certify": certify,
}
