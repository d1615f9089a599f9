"""Batched-solve benchmark: solve_batch vs the per-problem loop (ISSUE 6).

Runs :func:`repro.runtime.bench.batched_solve_benchmark` — the same
measurement ``roarray bench --batched`` prints — asserts the acceptance
criteria (batched numpy ≥ 2× the sequential loop at batch 64, float64
deviation within the 1e-12 parity budget, also for the ``mmv`` block's
ℓ2,1 kernel rows against their ``B = 1`` solves), and writes the numbers to
``BENCH_batched_solve.json`` (repo root, or ``REPRO_BENCH_OUTPUT_DIR``)
so CI can upload the perf trajectory next to ``BENCH_joint_solve.json``.

Scale knobs:

``REPRO_SMOKE=1``
    Fewer timing repeats and a reduced iteration pin — what CI runs.
    The speedup assertion stays on: both paths run identical pinned
    iteration counts on the same problems, so the ratio is robust even
    on a noisy shared runner.  The ``mmv`` rows keep their fixed
    100/250-iteration shapes (about 1 s).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.runtime.bench import batched_solve_benchmark
from repro.runtime.checkpoint import atomic_write

SPEEDUP_TARGET = 2.0  # acceptance floor at batch 64; measured ~2.5x
PARITY_LIMIT = 1e-12
BATCH_SIZES = (1, 8, 64)


def _smoke() -> bool:
    return os.environ.get("REPRO_SMOKE", "") == "1"


def _output_path() -> Path:
    root = os.environ.get("REPRO_BENCH_OUTPUT_DIR")
    base = Path(root) if root else Path(__file__).resolve().parent.parent
    return base / "BENCH_batched_solve.json"


@pytest.mark.benchmark(group="runtime")
def test_batched_solve_speedup():
    if _smoke():
        repeats, iterations = 3, 40
    else:
        repeats, iterations = 3, None  # None = the evaluation config's pin

    result = batched_solve_benchmark(
        batch_sizes=BATCH_SIZES, repeats=repeats, max_iterations=iterations
    )

    path = _output_path()
    atomic_write(path, result)
    print(
        f"\n-- batched solve ({result['grid']['rows']}x{result['grid']['columns']}, "
        f"{result['iterations']} iterations) --"
    )
    for row in result["batches"]:
        print(
            f"batch {row['batch_size']:>3}: loop {row['loop_seconds'] * 1e3:8.2f} ms | "
            f"batched {row['batched_seconds'] * 1e3:8.2f} ms | "
            f"speedup {row['speedup']:5.2f}x | dev {row['max_relative_deviation']:.2e}"
        )
    for row in result["mmv"]:
        print(
            f"mmv {row['grid']:>5} p={row['snapshots']} batch {row['batch_size']:>2}: "
            f"{row['seconds_per_problem_iteration'] * 1e6:7.1f} us/problem-iteration | "
            f"dev {row['max_relative_deviation']:.2e}"
        )
    print(f"-> {path.name}")

    worst_deviation = max(
        row["max_relative_deviation"] for row in result["batches"] + result["mmv"]
    )
    assert worst_deviation <= PARITY_LIMIT, (
        "batched solutions drift beyond the parity budget: "
        f"{worst_deviation:.2e} > {PARITY_LIMIT:.0e}"
    )
    largest = result["batches"][-1]
    assert largest["batch_size"] >= 64
    assert largest["speedup"] >= SPEEDUP_TARGET, (
        f"expected solve_batch >= {SPEEDUP_TARGET}x the sequential loop at "
        f"batch {largest['batch_size']}, got {largest['speedup']:.2f}x"
    )
