"""The memory a Fig. 6 location's batched fusion solve holds at its peak.

``solve_batch`` runs a location's six ℓ2,1 fusion problems in lockstep
blocks (``repro.optim.batch.BLOCK_SIZE``), and perfbench's ``fig6_sweep``
reads its cost as peak resident memory.  Resident memory follows the
peak of live arrays, so this bounds the batched call's tracemalloc peak
against the largest peak of the six ``B = 1`` solves: a block rule, a
kernel transient or a result copy that grows the batched peak fails
here, before a benchmark run sees it.
"""

from __future__ import annotations

import tracemalloc

from repro.optim import solve_batch, solve_mmv_fista
from repro.runtime.bench import fig6_location_problems

#: Measured when the bound was set, at seed 1000 (a location whose early
#: candidate sets are wide): 5.25 MB batched in blocks of three against
#: 1.93 MB for the largest lone solve, 2.72×; the six solutions alone
#: take 2.6 MB.  One block of six peaks at 3.06×.
GROUPED_PEAK_RATIO = 2.9


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_location_peak_stays_within_its_bound():
    estimator, snapshots, kappas = fig6_location_problems(1000)
    operator = estimator.cache.joint_operator
    options = dict(
        max_iterations=estimator.config.max_iterations,
        lipschitz=estimator.cache.joint_lipschitz,
    )
    lone = max(
        traced_peak(lambda: solve_mmv_fista(operator, y, kappa, **options))
        for y, kappa in zip(snapshots, kappas)
    )
    grouped = traced_peak(
        lambda: solve_batch(operator, snapshots, "mmv", kappa=kappas, **options)
    )
    assert grouped <= GROUPED_PEAK_RATIO * lone, (
        f"batched fig6 location peaks at {grouped / 1e6:.2f} MB, "
        f"{grouped / lone:.2f}x its largest B = 1 solve's {lone / 1e6:.2f} MB "
        f"(bound {GROUPED_PEAK_RATIO}x)"
    )
