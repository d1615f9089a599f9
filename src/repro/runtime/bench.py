"""Solver microbenchmarks shared by the CLI and the CI smoke jobs.

Three self-contained measurements:

* :func:`joint_solve_benchmark` — dense GEMM vs the structured
  :class:`~repro.optim.operators.KroneckerJointOperator` path on one
  Eq. 18 FISTA solve (``BENCH_joint_solve.json``).
* :func:`batched_solve_benchmark` — the per-problem sequential loop vs
  :func:`repro.optim.solve_batch` stacking many measurements into
  lockstep batched iterations (``BENCH_batched_solve.json``).
* :func:`robust_solve_benchmark` — the plain LASSO solve vs the
  outlier-augmented ``[Ã | I]`` robust solve on the same measurement
  (``BENCH_robust_solve.json``); the robustness tax must stay small
  enough to leave the augmented path on by default in hardened mode.

All pin the iteration count (``tolerance=0``) so the compared paths do
identical algorithmic work and the wall-time ratio measures pure linear
algebra throughput, not convergence luck.
"""

from __future__ import annotations

import time

import numpy as np


def _best_time(run, repeats: int):
    """``(best wall time of repeats calls, the last call's result)``."""
    best, outcome = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = run()
        best = min(best, time.perf_counter() - start)
    return best, outcome


def _scene_packets(config, *, n_packets: int, snr_db: float, seed: int):
    """``(estimator, packets)``: vectorized noisy packets of one seeded scene."""
    from repro.channel.csi import CsiSynthesizer
    from repro.channel.impairments import ImpairmentModel
    from repro.channel.paths import random_profile
    from repro.core.pipeline import RoArrayEstimator
    from repro.core.steering import vectorize_csi_matrix

    estimator = RoArrayEstimator(config=config)
    rng = np.random.default_rng(seed)
    profile = random_profile(rng, direct_aoa_deg=150.0)
    synthesizer = CsiSynthesizer(
        estimator.array, estimator.layout, ImpairmentModel(), seed=seed
    )
    trace = synthesizer.packets(profile, n_packets=n_packets, snr_db=snr_db, rng=rng)
    return estimator, [vectorize_csi_matrix(trace.packet(i)) for i in range(trace.n_packets)]


def joint_solve_benchmark(
    *,
    snr_db: float = 12.0,
    seed: int = 2017,
    repeats: int = 3,
    max_iterations: int | None = None,
) -> dict:
    """Measure the dense vs operator joint solve at the evaluation config.

    Returns a JSON-ready dict with the grid size, pinned iteration
    count, best-of-``repeats`` wall times for both paths, their speedup,
    and the relative spectrum disagreement (which must be at rounding
    level — the operator is the *same* matrix, applied factored).
    """
    from repro.core.joint import coefficients_to_joint_power
    from repro.experiments.runner import evaluation_roarray_config
    from repro.optim import solve_lasso_fista
    from repro.optim.tuning import residual_kappa

    estimator, (y,) = _scene_packets(
        evaluation_roarray_config(), n_packets=1, snr_db=snr_db, seed=seed
    )
    cache = estimator.cache
    config = estimator.config
    if max_iterations is None:
        max_iterations = config.max_iterations

    operator = cache.joint_operator
    dense = cache.joint_dictionary
    lipschitz = cache.joint_lipschitz
    kappa = residual_kappa(operator, y, fraction=config.kappa_fraction)

    def run(matrix):
        # tolerance=0 pins the iteration count: both paths run exactly
        # max_iterations FISTA steps, so wall time compares pure matvec
        # cost, not convergence luck.
        return solve_lasso_fista(
            matrix, y, kappa,
            max_iterations=max_iterations, tolerance=0.0, lipschitz=lipschitz,
        )

    dense_seconds, dense_result = _best_time(lambda: run(dense), repeats)
    operator_seconds, operator_result = _best_time(lambda: run(operator), repeats)

    n_angles, n_delays = config.angle_grid.n_points, config.delay_grid.n_points
    dense_power = coefficients_to_joint_power(dense_result.x, n_angles, n_delays)
    operator_power = coefficients_to_joint_power(operator_result.x, n_angles, n_delays)
    scale = float(dense_power.max(initial=0.0)) or 1.0
    max_relative_error = float(np.abs(dense_power - operator_power).max() / scale)

    return {
        "benchmark": "joint_solve",
        "grid": {
            "n_angles": n_angles,
            "n_delays": n_delays,
            "rows": operator.shape[0],
            "columns": operator.shape[1],
        },
        "iterations": int(max_iterations),
        "repeats": int(repeats),
        "snr_db": float(snr_db),
        "seed": int(seed),
        "dense_seconds": dense_seconds,
        "operator_seconds": operator_seconds,
        "speedup": dense_seconds / operator_seconds,
        "max_relative_spectrum_error": max_relative_error,
    }


def robust_solve_benchmark(
    *,
    snr_db: float = 12.0,
    seed: int = 2017,
    repeats: int = 3,
    max_iterations: int | None = None,
) -> dict:
    """Measure the robustness tax: plain LASSO vs outlier-augmented solve.

    Times :func:`repro.optim.solve_lasso_fista` against
    :func:`repro.optim.solve_robust_lasso` on the same measurement,
    operator, κ, and pinned iteration count.  The augmented problem
    carries one extra variable per measurement row and a second
    shrinkage per iteration, so its per-iteration cost is strictly
    higher; the ratio is the price of leaving NLOS/corruption
    resilience on.  The CI smoke gate holds it at ≤ 1.6×.

    Also records the clean-trace ``outlier_fraction`` — near zero by
    construction, which is what lets hardened mode run the augmented
    path unconditionally without distorting clean solves.
    """
    from repro.experiments.runner import evaluation_roarray_config
    from repro.optim import solve_lasso_fista, solve_robust_lasso
    from repro.optim.tuning import residual_kappa

    estimator, (y,) = _scene_packets(
        evaluation_roarray_config(), n_packets=1, snr_db=snr_db, seed=seed
    )
    cache = estimator.cache
    config = estimator.config
    if max_iterations is None:
        max_iterations = config.max_iterations

    operator = cache.joint_operator
    lipschitz = cache.joint_lipschitz
    kappa = residual_kappa(operator, y, fraction=config.kappa_fraction)

    plain_seconds, plain_result = _best_time(
        lambda: solve_lasso_fista(
            operator, y, kappa,
            max_iterations=max_iterations, tolerance=0.0, lipschitz=lipschitz,
        ),
        repeats,
    )
    robust_seconds, robust_result = _best_time(
        lambda: solve_robust_lasso(
            operator, y, kappa,
            max_iterations=max_iterations, tolerance=0.0, lipschitz=lipschitz,
        ),
        repeats,
    )

    scale = max(1.0, float(np.abs(plain_result.x).max()))
    spectrum_deviation = float(np.abs(robust_result.x - plain_result.x).max()) / scale

    return {
        "benchmark": "robust_solve",
        "grid": {
            "n_angles": config.angle_grid.n_points,
            "n_delays": config.delay_grid.n_points,
            "rows": operator.shape[0],
            "columns": operator.shape[1],
        },
        "iterations": int(max_iterations),
        "repeats": int(repeats),
        "snr_db": float(snr_db),
        "seed": int(seed),
        "plain_seconds": plain_seconds,
        "robust_seconds": robust_seconds,
        "overhead_ratio": robust_seconds / plain_seconds,
        "clean_outlier_fraction": float(robust_result.outlier_fraction),
        "max_relative_spectrum_deviation": spectrum_deviation,
    }


def batched_solve_benchmark(
    *,
    batch_sizes: tuple[int, ...] = (1, 8, 64),
    snr_db: float = 12.0,
    seed: int = 2017,
    repeats: int = 3,
    max_iterations: int | None = None,
) -> dict:
    """Measure ``solve_batch`` against the per-problem sequential loop.

    Synthesizes ``max(batch_sizes)`` noisy packets of one evaluation
    scene, then for each batch size times (a) the sequential numpy
    reference — one pinned-iteration
    :func:`~repro.optim.reference.reference_lasso_fista` solve per
    packet, the fixed yardstick — and (b) one
    :func:`repro.optim.solve_batch` call, with identical per-problem κ
    and iteration counts.  ``kernel_loop_seconds`` also times a loop of
    the public ``B = 1`` :func:`repro.optim.solve_lasso_fista` solves,
    i.e. the lockstep kernel one column at a time.
    Every row also records the max relative ℓ∞ deviation of the batched
    solutions from the sequential reference.

    Returns a JSON-ready dict with one row per batch size; ``speedup``
    on each row is ``loop_seconds / batched_seconds``.  Its ``mmv``
    block times the ℓ2,1 kernel (:func:`_mmv_kernel_rows`).
    """
    from repro.experiments.runner import evaluation_roarray_config
    from repro.optim import FLOAT64_PARITY_TOLERANCE, solve_batch, solve_lasso_fista
    from repro.optim.reference import reference_lasso_fista
    from repro.optim.tuning import residual_kappa

    batch_sizes = tuple(sorted(int(b) for b in batch_sizes))
    if not batch_sizes or batch_sizes[0] < 1:
        raise ValueError(f"batch_sizes must be positive, got {batch_sizes}")
    estimator, ys = _scene_packets(
        evaluation_roarray_config(), n_packets=batch_sizes[-1], snr_db=snr_db, seed=seed
    )
    cache = estimator.cache
    config = estimator.config
    if max_iterations is None:
        max_iterations = config.max_iterations

    operator = cache.joint_operator
    lipschitz = cache.joint_lipschitz
    kappas = [
        residual_kappa(operator, y, fraction=config.kappa_fraction) for y in ys
    ]

    rows = []
    for batch_size in batch_sizes:
        batch_ys = ys[:batch_size]
        batch_kappas = kappas[:batch_size]

        loop_seconds, loop_results = _best_time(
            lambda: [
                reference_lasso_fista(
                    operator, y, k,
                    max_iterations=max_iterations, tolerance=0.0, lipschitz=lipschitz,
                )
                for y, k in zip(batch_ys, batch_kappas)
            ],
            repeats,
        )
        kernel_loop_seconds, _ = _best_time(
            lambda: [
                solve_lasso_fista(
                    operator, y, k,
                    max_iterations=max_iterations, tolerance=0.0, lipschitz=lipschitz,
                )
                for y, k in zip(batch_ys, batch_kappas)
            ],
            repeats,
        )
        batched_seconds, batched = _best_time(
            lambda: solve_batch(
                operator, batch_ys, method="fista", kappa=batch_kappas,
                max_iterations=max_iterations, tolerance=0.0, lipschitz=lipschitz,
            ),
            repeats,
        )

        solutions = batched.to_numpy()
        deviation = 0.0
        for index, reference in enumerate(loop_results):
            scale = max(1.0, float(np.abs(reference).max()))
            deviation = max(
                deviation, float(np.abs(solutions[index] - reference).max()) / scale
            )
        rows.append(
            {
                "batch_size": int(batch_size),
                "loop_seconds": loop_seconds,
                "kernel_loop_seconds": kernel_loop_seconds,
                "batched_seconds": batched_seconds,
                "speedup": loop_seconds / batched_seconds,
                "max_relative_deviation": deviation,
            }
        )

    return {
        "benchmark": "batched_solve",
        "grid": {
            "n_angles": config.angle_grid.n_points,
            "n_delays": config.delay_grid.n_points,
            "rows": operator.shape[0],
            "columns": operator.shape[1],
        },
        "iterations": int(max_iterations),
        "repeats": int(repeats),
        "snr_db": float(snr_db),
        "seed": int(seed),
        "parity_tolerance": FLOAT64_PARITY_TOLERANCE,
        "batches": rows,
        "max_batch_speedup": rows[-1]["speedup"],
        "mmv": _mmv_kernel_rows(snr_db=snr_db, seed=seed, repeats=repeats),
        "fig6_location": fig6_location_row(seed=seed, repeats=repeats),
    }


#: MMV kernel shapes: the serve working point (61×21 grid, 2-packet
#: windows, 100 iterations) and the Fig. 6 one (91×50 grid, 6 fused
#: snapshots, 250 iterations).
MMV_SHAPES = (
    {"n_angles": 61, "n_delays": 21, "snapshots": 2, "iterations": 100, "batch_sizes": (1, 3, 16)},
    {"n_angles": 91, "n_delays": 50, "snapshots": 6, "iterations": 250, "batch_sizes": (1,)},
)


def _mmv_kernel_rows(*, snr_db: float, seed: int, repeats: int) -> list[dict]:
    """Time ``solve_batch(method="mmv")`` per problem-iteration at :data:`MMV_SHAPES`.

    The kernel runs at its default tolerance, as the pipeline and the
    service run it, so the timing includes the per-iteration stop test;
    the test never fires at these caps, which each row's ``iterations``
    confirms.  Each problem is a window of consecutive packets of one
    scene; every row also records the max relative deviation of the
    batched solutions from their ``B = 1``
    :func:`~repro.optim.solve_mmv_fista` solves.
    """
    from dataclasses import replace

    from repro.core.grids import AngleGrid, DelayGrid
    from repro.experiments.runner import evaluation_roarray_config
    from repro.optim import solve_batch, solve_mmv_fista
    from repro.optim.tuning import mmv_residual_kappa

    rows = []
    for shape in MMV_SHAPES:
        config = replace(
            evaluation_roarray_config(),
            angle_grid=AngleGrid(n_points=shape["n_angles"]),
            delay_grid=DelayGrid(n_points=shape["n_delays"]),
        )
        iterations, p = shape["iterations"], shape["snapshots"]
        estimator, packets = _scene_packets(
            config, n_packets=max(shape["batch_sizes"]) * p, snr_db=snr_db, seed=seed
        )
        operator = estimator.cache.joint_operator
        lipschitz = estimator.cache.joint_lipschitz
        stacks = [np.stack(packets[i : i + p], axis=1) for i in range(0, len(packets), p)]
        kappas = [mmv_residual_kappa(operator, s, fraction=config.kappa_fraction) for s in stacks]
        options = dict(max_iterations=iterations, lipschitz=lipschitz)
        for batch_size in shape["batch_sizes"]:
            best, batched = _best_time(
                lambda: solve_batch(
                    operator, stacks[:batch_size], method="mmv",
                    kappa=kappas[:batch_size], **options,
                ),
                repeats,
            )
            if set(batched.iterations) != {iterations}:
                raise RuntimeError(
                    f"mmv bench row {shape['n_angles']}x{shape['n_delays']} B={batch_size} "
                    f"stopped before its cap: iterations {batched.iterations}"
                )
            deviation = 0.0
            for index in range(batch_size):
                solo = solve_mmv_fista(operator, stacks[index], kappas[index], **options).x
                scale = max(1.0, float(np.abs(solo).max()))
                deviation = max(
                    deviation, float(np.abs(batched.to_numpy()[index] - solo).max()) / scale
                )
            rows.append(
                {
                    "grid": f"{shape['n_angles']}x{shape['n_delays']}",
                    "snapshots": p,
                    "batch_size": batch_size,
                    "iterations": batched.iterations[0],
                    "batched_seconds": best,
                    "seconds_per_problem_iteration": best / (batch_size * iterations),
                    "max_relative_deviation": deviation,
                }
            )
    return rows


def fig6_location_problems(seed: int = 2017):
    """The six ℓ2,1 fusion problems of one low-band Fig. 6 location.

    The scene, SNRs, blockages and 15-packet traces are drawn exactly as
    :func:`~repro.experiments.runner.run_snr_band_experiment` draws its
    first location for ``seed``; each AP's packets are delay-aligned and
    SVD-reduced as :func:`~repro.core.fusion.fuse_packets` does, and κ
    follows the evaluation config.  Returns ``(estimator, snapshots,
    kappas)`` with ``(m, 6)`` snapshot matrices.
    """
    from repro.channel.impairments import ImpairmentModel
    from repro.core.fusion import align_packet_delays, svd_reduce_snapshots
    from repro.core.pipeline import RoArrayEstimator
    from repro.core.steering import vectorize_csi_matrix
    from repro.experiments.runner import _scene_traces, evaluation_roarray_config
    from repro.experiments.scenarios import SNR_BANDS, build_random_scene
    from repro.optim.tuning import mmv_residual_kappa

    n_aps, band = 6, SNR_BANDS["low"]
    rng = np.random.default_rng(seed)
    scene = build_random_scene(rng, n_aps=n_aps)
    snrs = [band.draw(rng) for _ in range(n_aps)]
    blockages = [band.draw_blockage(rng) for _ in range(n_aps)]
    traces = _scene_traces(
        scene, snr_db_per_ap=snrs, n_packets=15, impairments=ImpairmentModel(), rng=rng,
        boot_seed=seed * 10_000, blockage_db_per_ap=blockages,
    )
    estimator = RoArrayEstimator(config=evaluation_roarray_config())
    config, cache = estimator.config, estimator.cache
    snapshots = []
    for trace in traces:
        aligned, _ = align_packet_delays(trace.csi, cache.layout)
        stacked = np.stack([vectorize_csi_matrix(packet) for packet in aligned], axis=1)
        snapshots.append(svd_reduce_snapshots(stacked, config.svd_rank))
    kappas = [
        mmv_residual_kappa(cache.joint_operator, y, fraction=config.kappa_fraction)
        for y in snapshots
    ]
    return estimator, snapshots, kappas


def fig6_location_row(*, seed: int = 2017, repeats: int = 3) -> dict:
    """One Fig. 6 location's six fusion solves: six ``B = 1``
    :func:`~repro.optim.solve_mmv_fista` calls against one
    :func:`~repro.optim.solve_batch` call (its lockstep blocks), each at
    the evaluation config's iteration cap.  Records µs per
    problem-iteration, the tracemalloc peak of one ``B = 1`` solve and of
    the batched call, and the max deviation of the batched solutions
    from the lone ones, which the lockstep blocks make exactly 0.
    """
    import tracemalloc

    from repro.optim import solve_batch, solve_mmv_fista
    from repro.optim.batch import block_problems

    estimator, snapshots, kappas = fig6_location_problems(seed)
    operator = estimator.cache.joint_operator
    options = dict(
        max_iterations=estimator.config.max_iterations,
        lipschitz=estimator.cache.joint_lipschitz,
    )

    def lone():
        return [solve_mmv_fista(operator, y, k, **options) for y, k in zip(snapshots, kappas)]

    def batched():
        return solve_batch(operator, snapshots, "mmv", kappa=kappas, **options)

    lone_seconds, lone_results = _best_time(lone, repeats)
    batched_seconds, batched_result = _best_time(batched, repeats)
    iterations = sum(result.iterations for result in lone_results)
    deviation = max(
        float(np.abs(batched_result.x[index] - result.x).max())
        / max(1.0, float(np.abs(result.x).max()))
        for index, result in enumerate(lone_results)
    )

    def traced_peak_mb(run) -> float:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    lone_peak = max(
        traced_peak_mb(lambda: solve_mmv_fista(operator, y, k, **options))
        for y, k in zip(snapshots, kappas)
    )
    return {
        "grid": f"{estimator.config.angle_grid.n_points}x{estimator.config.delay_grid.n_points}",
        "problems": len(snapshots),
        "snapshots": int(snapshots[0].shape[1]),
        "block_problems": block_problems(snapshots[0].shape[1], operator.shape[1]),
        "iterations": int(iterations),
        "lone_us_per_problem_iteration": lone_seconds / iterations * 1e6,
        "batched_us_per_problem_iteration": batched_seconds / iterations * 1e6,
        "speedup": lone_seconds / batched_seconds,
        "lone_peak_mb": lone_peak,
        "batched_peak_mb": traced_peak_mb(batched),
        "max_relative_deviation": deviation,
    }
