"""Tests of the benchmark itself: exact gates, the seeded input generator,
the tracer's patching and the speed correction.  Run with ``python3 -m pytest bench/tests``."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def small_cells(workload, max_n, seed=1):
    lib, cells, _ = run.setup(workload, seed)
    return lib, [c for c in cells if c.n <= max_n]


def failed_cells(cells):
    _, _, outputs = run.sweep(cells)
    return run.failures(cells, outputs)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_small_cells_pass(workload):
    _, cells = small_cells(workload, 4)
    assert cells
    assert failed_cells(cells) == 0


def test_corrupted_expected_basis_is_counted():
    lib, cells = small_cells("paper-gb", 4)
    good = lib.symfunc.conjectured_gb_ek
    lib.symfunc.conjectured_gb_ek = lambda k, n: good(k, n)[:-1]
    gb_ek = [c for c in cells if c.label.startswith("gb-ek")]
    assert failed_cells(cells) == len(gb_ek)


def test_corrupted_shifted_expectation_is_counted():
    lib, _ = small_cells("shifted-gb", 3)
    good = lib.symfunc.homogeneous
    lib.symfunc.homogeneous = lambda k, n, arity=None: good(k, n, arity) * 2
    cells = [c for c in workloads.shifted_gb(lib, 1) if c.n <= 3]
    assert failed_cells(cells) == len(cells)


def test_identity_defect_is_counted():
    lib, cells = small_cells("identities", 3)
    one = lib.poly.Polynomial.one
    lib.symfunc.hkn_identity_defect = lambda k, n: one(max(n, 1))
    hkn = [c for c in cells if c.label.startswith("hkn ")]
    assert failed_cells(cells) == len(hkn)


def test_raising_cell_is_counted_and_the_sweep_goes_on():
    lib, cells = small_cells("certify", 3)

    def boom(*args):
        raise RuntimeError("injected")

    lib.involution.certify_involution = boom
    involution = [c for c in cells if c.label.startswith("involution")]
    _, _, outputs = run.sweep(cells)
    assert len(outputs) == len(cells)
    assert run.failures(cells, outputs) == len(involution)


def test_shift_vectors_are_a_pure_function_of_the_seed():
    a, b = workloads.shift_vectors(7), workloads.shift_vectors(7)
    assert a == b
    assert a != workloads.shift_vectors(8)
    assert set(a) == {(k, n) for n in range(1, 8) for k in range(1, n + 1)}
    for (k, n), c in a.items():
        assert len(c) == n
        assert all(x != 0 for x in c)


def test_tracer_restores_every_patched_function():
    lib, cells = small_cells("paper-gb", 3)
    P = lib.poly.Polynomial
    before = (dict(vars(P)), dict(vars(lib.groebner)), dict(vars(lib.verify)),
              dict(vars(lib.symfunc)), dict(vars(lib.hilbert)), dict(vars(lib.involution)))
    with pytest.raises(RuntimeError):
        with Tracer(lib) as tracer:
            assert lib.groebner.divide is not before[1]["divide"]
            run.sweep(cells)
            raise RuntimeError("leave the block by an exception")
    after = (dict(vars(P)), dict(vars(lib.groebner)), dict(vars(lib.verify)),
             dict(vars(lib.symfunc)), dict(vars(lib.hilbert)), dict(vars(lib.involution)))
    assert after == before
    assert tracer.missing == []
    assert tracer.calls["groebner.divide"] > 0


def traced_counts(workload, max_n):
    lib, cells = small_cells(workload, max_n)
    with Tracer(lib) as tracer:
        run.sweep([replace(c, run=tracer.wrap("bench.cell", c.run)) for c in cells])
    return tracer, cells


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_exact_counts_repeat(workload):
    first, second = traced_counts(workload, 4)[0], traced_counts(workload, 4)[0]
    assert first.exact_counts() == second.exact_counts()


def test_self_time_excludes_children():
    tracer, cells = traced_counts("paper-gb", 4)
    child = {}
    for sid, name, start, end, parent in tracer.spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    self_divide = sum(end - start - child.get(sid, 0.0)
                      for sid, name, start, end, _ in tracer.spans
                      if name == "groebner.divide")
    # hook time is hidden from spans, so the online figure can only be smaller
    assert 0 < tracer.self_s["groebner.divide"] <= self_divide + 1e-9
    m = tracer.layer_metrics()
    assert m["groebner.reductions"][0] >= m["groebner.zero_reductions"][0] > 0
    assert m["verify.cells"][0] == len(cells)
    assert tracer.calls["bench.cell"] == len(cells)


def test_speed_clock_scales_each_stretch_and_skips_sample_time():
    clock = speed.SpeedClock()
    nominal = speed.REF_NOMINAL_S
    # samples at [0, 1], [3, 4] and [6, 7]: the host ran at nominal speed
    # before the second sample and at half speed before the third
    clock.samples = [(0.0, 1.0, nominal), (3.0, 4.0, nominal), (6.0, 7.0, 2 * nominal)]
    clock._starts = [s for s, _, _ in clock.samples]
    assert clock.seconds(1.0, 3.0) == pytest.approx(2.0)
    assert clock.seconds(2.0, 5.0) == pytest.approx(1.0 + 0.5)
    assert clock.seconds(1.0, 6.0) == pytest.approx(2.0 + 1.0)
    with pytest.raises(ValueError):
        clock.seconds(6.5, 8.0)
    with pytest.raises(ValueError):
        clock.seconds(-1.0, 0.5)


def test_speed_clock_samples_while_open_and_restores_the_timer():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock(every_s=0.01) as clock:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 5
    assert 0 < clock.seconds(t0, t1)
