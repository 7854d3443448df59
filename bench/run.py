"""symgb benchmark: one workload per process, every output checked exactly.

    python3 bench/run.py --workload paper-gb --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run repeats sweeps of the workload's cells, one cell at a time (a closed
loop with one caller), until the next sweep would overrun ``--seconds``.
Before each sweep symgb is imported afresh and the workload's inputs and
expected answers are rebuilt; that set-up is ``setup_s``.

With ``--trace 0`` the run reports the end-to-end metrics (medians over
sweeps), in reference seconds: wall seconds corrected for the host's speed,
which ``speed.SpeedClock`` samples while the run goes on.  With
``--trace 1`` it makes two untraced sweeps and two traced sweeps, reports
the per-layer metrics of the first traced sweep, checks that the exact
counts of both traced sweeps agree, compares every reduced basis with sympy
and writes the spans to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import oracle
from speed import REF_NOMINAL_S, SpeedClock, wall
from tracing import Tracer
from workloads import WORKLOADS, MissingProgramError, load_symgb, unload_symgb

OUT = Path(__file__).resolve().parent / "out"
# set-up is repeated until both hold, so a set-up of a few milliseconds
# still gets a median over about a second of samples
MIN_SETUPS = 5
MIN_SETUP_TOTAL_S = 1.0

Span = Tuple[float, float]   # perf_counter start and end


def setup(workload: str, seed: int) -> Tuple[object, list, Span]:
    """Fresh import of symgb plus the workload's cells, and its span."""
    unload_symgb()
    t0 = perf_counter()
    lib = load_symgb()
    cells = WORKLOADS[workload](lib, seed)
    return lib, cells, (t0, perf_counter())


def sweep(cells) -> Tuple[Span, List[Span], list]:
    """Run every cell once, in order; a raising cell yields its exception.
    Returns the perf_counter spans of the sweep and of each cell, for a
    clock to convert into seconds."""
    gc.collect()
    spans, outputs = [], []
    t0 = perf_counter()
    for cell in cells:
        c0 = perf_counter()
        try:
            out = cell.run()
        except Exception as exc:  # a failing cell is counted, never fatal
            out = exc
            traceback.print_exc(file=sys.stderr)
        spans.append((c0, perf_counter()))
        outputs.append(out)
    return (t0, perf_counter()), spans, outputs


def failures(cells, outputs) -> int:
    bad = 0
    for cell, out in zip(cells, outputs):
        ok = not isinstance(out, Exception)
        if ok:
            try:
                ok = bool(cell.check(out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
        if not ok:
            bad += 1
            print(f"FAILED cell {cell.label}", file=sys.stderr)
    return bad


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe(name: str, samples: List[float], unit: str) -> str:
    """Sample count, median and the highest percentile that still has at
    least ten samples above it (none below eleven samples)."""
    xs = sorted(samples)
    line = f"  {name}: n={len(xs)} median={statistics.median(xs):.6g} {unit}"
    if len(xs) >= 11:
        line += f" p{100 * (len(xs) - 10) // len(xs)}={xs[-11]:.6g} {unit}"
    else:
        line += " (under 11 samples: no tail percentile)"
    return line


def measure(workload: str, seed: int, seconds: float) -> dict:
    setups, sweeps = [], []
    attempted = failed = 0
    start = perf_counter()
    with SpeedClock() as clock:
        while True:
            _, cells, setup_span = setup(workload, seed)
            span, cell_spans, outputs = sweep(cells)
            setups.append(setup_span)
            sweeps.append((span, cell_spans))
            attempted += len(cells)
            failed += failures(cells, outputs)
            if perf_counter() - start + wall(*span) > seconds:
                break
        while len(setups) < MIN_SETUPS or sum(wall(*s) for s in setups) < MIN_SETUP_TOTAL_S:
            setups.append(setup(workload, seed)[2])
    # converted after the clock has closed, so every span has a sample after it
    runs = [clock.seconds(*span) for span, _ in sweeps]
    tops = [max(clock.seconds(*c) for c in cell_spans) for _, cell_spans in sweeps]
    setup_s = [clock.seconds(*s) for s in setups]
    raw = [wall(*span) for span, _ in sweeps]
    refs = [ref for _, _, ref in clock.samples]
    print(f"{workload}: {len(runs)} sweeps of {len(cells)} cells, "
          f"{failed}/{attempted} cells failed; times in reference seconds "
          f"(speed.REF_NOMINAL_S = {REF_NOMINAL_S * 1e3:g} ms)")
    for name, xs in (("run_s", runs), ("top_cell_s", tops), ("setup_s", setup_s)):
        print(describe(name, xs, "s"))
    print(describe("wall run_s", raw, "s"))
    print(describe("reference", refs, "s"))
    metrics = {
        "run_s": (statistics.median(runs), "s"),
        "top_cell_s": (statistics.median(tops), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return result(failed == 0, attempted, failed, metrics)


def trace(workload: str, seed: int) -> dict:
    # untraced, traced, traced, untraced: the overhead ratio compares the two
    # pairs, so a slow spell of the host weighs on both sides alike
    attempted = failed = 0
    untraced, runs = [], []
    for traced in (False, True, True, False):
        lib, cells, _ = setup(workload, seed)
        if traced:
            with Tracer(lib) as tracer:
                span, _, outputs = sweep(
                    [replace(c, run=tracer.wrap("bench.cell", c.run)) for c in cells])
            runs.append((tracer, wall(*span)))
        else:
            span, _, outputs = sweep(cells)
            untraced.append(wall(*span))
        attempted += len(cells)
        failed += failures(cells, outputs)
    tracer = runs[0][0]
    first, second = tracer.exact_counts(), runs[1][0].exact_counts()
    mismatched = sorted(k for k in first.keys() | second.keys()
                        if first.get(k) != second.get(k))
    for key in mismatched:
        print(f"COUNT MISMATCH {key}: {first.get(key)} then {second.get(key)}",
              file=sys.stderr)
    for name in tracer.missing:
        print(f"not traced (absent): {name}", file=sys.stderr)

    agree, sympy_s, compared = oracle.compare_with_sympy(tracer.bases)
    if agree is None:
        print("sympy is not importable; ref.sympy.agree reported as -1", file=sys.stderr)
    elif not agree:
        print("symgb and sympy disagree on a reduced basis", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_file)
    untraced_s = sum(untraced) / 2
    traced_s = sum(seconds for _, seconds in runs) / 2
    print(f"{workload}: mean sweep {traced_s:.3f} s traced, {untraced_s:.3f} s untraced; "
          f"{len(tracer.spans)} spans in {spans_file}")

    metrics = tracer.layer_metrics()
    metrics.update({
        "ref.sympy.groebner_s": (sympy_s, "s"),
        "ref.sympy.agree": (-1 if agree is None else int(agree), "bool"),
        "ref.sympy.bases": (compared, "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "trace.count_mismatches": (len(mismatched), "count"),
    })
    return result(failed == 0 and agree is not False, attempted, failed, metrics)


def result(correct: bool, attempted: int, failed: int,
           metrics: Dict[str, Tuple[float, str]]) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: float, traced: int) -> dict:
    """Each workload in its own fresh interpreter, one after another."""
    combined = result(True, 0, 0, {})
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(traced)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for name, m in one["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
            print(f"  {workload:<11} {name:<34} {m['value']:.6g} {m['unit']}")
    return combined


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            out = run_all(args.seed, args.seconds, args.trace)
        elif args.trace:
            out = trace(args.workload, args.seed)
        else:
            out = measure(args.workload, args.seed, args.seconds)
    except (MissingProgramError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
