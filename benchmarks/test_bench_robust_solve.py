"""Robustness-tax microbenchmark: plain LASSO vs outlier-augmented solve.

Runs :func:`repro.runtime.bench.robust_solve_benchmark` — the same
measurement ``roarray bench`` prints — asserts the augmented ``[Ã | I]``
path stays within the acceptance overhead of the plain solve, and
writes the numbers to ``BENCH_robust_solve.json`` (repo root, or
``REPRO_BENCH_OUTPUT_DIR``) so CI can upload the perf trajectory as an
artifact.

Scale knobs:

``REPRO_SMOKE=1``
    Fewer timing repeats and a reduced iteration pin — what CI's
    ``drills`` job runs.  The ratio assertion stays on: both paths
    run identical iteration counts on the same problem, so the ratio is
    robust even on a noisy shared runner.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.runtime.bench import robust_solve_benchmark
from repro.runtime.checkpoint import atomic_write

# Acceptance ceiling: the augmented solve adds one shrinkage over the
# e-block and a residual subtraction per iteration — measured ~1.2x on
# a laptop core; 1.6x leaves headroom for noisy CI runners.
OVERHEAD_CEILING = 1.6
# A clean trace must not have its energy explained away as corruption.
CLEAN_OUTLIER_CEILING = 0.05


def _smoke() -> bool:
    return os.environ.get("REPRO_SMOKE", "") == "1"


def _output_path() -> Path:
    root = os.environ.get("REPRO_BENCH_OUTPUT_DIR")
    base = Path(root) if root else Path(__file__).resolve().parent.parent
    return base / "BENCH_robust_solve.json"


@pytest.mark.benchmark(group="runtime")
def test_robust_solve_overhead_within_ceiling():
    if _smoke():
        repeats, iterations = 2, 120
    else:
        repeats, iterations = 5, None  # None = the evaluation config's 250

    result = robust_solve_benchmark(repeats=repeats, max_iterations=iterations)

    path = _output_path()
    atomic_write(path, result)
    print(
        f"\n-- robust solve ({result['grid']['rows']}x{result['grid']['columns']}, "
        f"{result['iterations']} iterations) --"
    )
    print(f"plain:    {result['plain_seconds'] * 1e3:8.2f} ms")
    print(f"robust:   {result['robust_seconds'] * 1e3:8.2f} ms")
    print(f"overhead: {result['overhead_ratio']:8.2f}x  -> {path.name}")

    assert result["overhead_ratio"] <= OVERHEAD_CEILING, (
        f"outlier-augmented solve exceeds the {OVERHEAD_CEILING}x robustness "
        f"budget: {result['overhead_ratio']:.2f}x"
    )
    assert result["clean_outlier_fraction"] <= CLEAN_OUTLIER_CEILING, (
        "robust solve attributed clean-trace energy to corruption: "
        f"{result['clean_outlier_fraction']:.3f}"
    )
