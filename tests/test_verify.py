import pytest

from symgb.verify import TARGETS, run_sweep


def test_k_range_of_each_target():
    cells = {t: [r.k for r in run_sweep(t, 3, 3)] for t in TARGETS}
    assert cells == {
        "gb-ek": [1, 2, 3], "gb-e1ek": [2, 3],
        "hkn": [1, 2, 3, 4, 5], "ekn": [1, 2, 3, 4, 5],
        "telescope": [1, 2, 3], "newton": [1, 2, 3, 4, 5],
        "e1ek-reduction": [1, 2, 3],
        "involution-hkn": [1, 2, 3], "involution-ekn": [1, 2, 3],
        "hilbert": [None],
    }


def test_fixed_k_selects_one_cell_per_n():
    results = run_sweep("gb-e1ek", 2, 4, fixed_k=3)
    assert [(r.k, r.n, r.ok) for r in results] == [(3, 3, True), (3, 4, True)]


def test_unknown_target():
    with pytest.raises(ValueError, match="unknown target"):
        run_sweep("gb", 1, 2)
