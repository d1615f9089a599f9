"""Which program entry points each layer of the ledger wraps.

Every target names the attribute the *caller* looks up at call time:
``repro.serve.service:solve_batch`` is the name the service resolves, so
wrapping it times the service's solves without touching
``repro.optim.batch``.  Methods are wrapped on their class, which every
instance consults on each call.

Hooks collect the per-layer counts the timers cannot see: queue waits,
batch widths, iterations warm and cold, convergence, and a sample of
solved problems for the solve-quality probe.
"""

from __future__ import annotations

import numpy as np

from repro.optim.batch import solve_batch

SERVE = "repro.serve.service"
SUPERVISOR = "repro.serve.resilience"
OPERATOR = "repro.optim.operators:KroneckerJointOperator"

#: Service layers shared by both serve workloads.
SERVE_LAYERS = [
    (f"{SERVE}:LocalizationService.process_due", "serve.fix"),
    (f"{SERVE}:LocalizationService.drain", "serve.fix"),
    (f"{SERVE}:identify_direct_path", "core.direct_path"),
    (f"{SERVE}:coefficients_to_joint_power", "core.direct_path"),
    (f"{SERVE}:localize_robust", "core.localize"),
    (f"{SERVE}:localize_consensus", "core.localize"),
    ("repro.core.tracking:KalmanTracker.update", "core.track"),
    (f"{OPERATOR}.matvec", "optim.products"),
    (f"{OPERATOR}.rmatvec", "optim.products"),
    ("repro.core.steering:SteeringCache.warmup", "core.steering_warmup"),
]

#: Crash-safety layers of the supervised service.
RESILIENCE_LAYERS = [
    (f"{SUPERVISOR}:ServiceSupervisor.run", "resilience.supervisor"),
    (f"{SUPERVISOR}:ServiceSupervisor._deliver", "resilience.journal"),
    (f"{SUPERVISOR}:save_snapshot", "resilience.snapshot"),
    (f"{SUPERVISOR}:load_snapshot", "resilience.restore"),
    (f"{SUPERVISOR}:count_journaled_fixes", "resilience.restore"),
    (f"{SERVE}:LocalizationService.restore_state", "resilience.restore"),
]

#: The trace → CDF path of the Fig. 6 sweep.
SWEEP_LAYERS = [
    ("repro.experiments.runner:build_random_scene", "channel.synth"),
    ("repro.channel.geometry:Scene.multipath_profile", "channel.synth"),
    ("repro.channel.csi:CsiSynthesizer.packets", "channel.synth"),
    ("repro.runtime.batch:BatchEvaluator.evaluate", "runtime.batch_overhead"),
    ("repro.core.steering:SteeringCache.warmup", "core.steering_warmup"),
    ("repro.core.pipeline:RoArrayEstimator.joint_spectrum", "core.fusion"),
    ("repro.core.pipeline:fuse_packets", "core.fusion"),
    ("repro.core.fusion:align_packet_delays", "core.align"),
    ("repro.core.fusion:svd_reduce_snapshots", "core.svd"),
    (f"{OPERATOR}.matvec", "optim.products"),
    (f"{OPERATOR}.rmatvec", "optim.products"),
    ("repro.core.pipeline:RoArrayEstimator.analysis_from_spectrum", "core.direct_path"),
    ("repro.baselines.spotfi:SpotFiEstimator.analyze", "baselines.spotfi"),
    ("repro.baselines.arraytrack:ArrayTrackEstimator.analyze", "baselines.arraytrack"),
    ("repro.experiments.runner:localize_weighted_aoa", "core.localize"),
]

#: Bulk ingestion: parse → stages → calibration → artifact write.
INGEST_LAYERS = [
    ("repro.io.ingest:ingest_sources", "io.ingest"),
    ("repro.io.source:open_traces", "io.parse"),
    ("repro.io.stages:run_stages", "io.stages"),
    ("repro.io.calibration:fit_calibration", "io.calibration"),
    ("repro.channel.trace:CsiTrace.save", "io.write"),
]


class SolveStats:
    """Work, convergence and warm-start counts of the sparse solves.

    ``problems`` keeps ``(operator, Y, kappa, objective, lipschitz,
    max_iterations)`` for each solved problem so the probe can re-solve
    a sample of them to a tighter optimum afterwards.
    """

    def __init__(self) -> None:
        self.iterations = {"warm": [], "cold": []}
        self.converged: list[bool] = []
        self.batch_widths: list[int] = []
        self.problems: list[tuple] = []

    def _record(self, iterations, converged, warm) -> None:
        for count, done, is_warm in zip(iterations, converged, warm):
            self.iterations["warm" if is_warm else "cold"].append(int(count))
            self.converged.append(bool(done))

    # -- repro.serve.service:solve_batch ------------------------------------

    def before_batch(self, args, kwargs):
        operator, ys = args[0], args[1]
        state, keys = kwargs.get("warm_state"), kwargs.get("warm_keys") or ()
        warm = []
        for key, y in zip(keys, ys):
            slot = state.slots.get(key) if state is not None else None
            warm.append(slot is not None and slot.shape == (operator.shape[1], y.shape[1]))
        return warm or [False] * len(ys)

    def after_batch(self, args, kwargs, result, warm) -> None:
        self.batch_widths.append(result.n_problems)
        self._record(result.iterations, result.converged, warm)
        operator, ys = args[0], args[1]
        self.problems.append(
            (operator, np.array(ys[0]), result.kappas[0], result.objectives[0],
             kwargs.get("lipschitz"), kwargs.get("max_iterations"))
        )

    # -- repro.core.fusion:solve_mmv_fista -----------------------------------

    def after_single(self, args, kwargs, result, _token) -> None:
        self.batch_widths.append(1)
        self._record([result.iterations], [result.converged], [kwargs.get("x0") is not None])
        operator, snapshots, kappa = args[:3]
        self.problems.append(
            (operator, np.array(snapshots), float(kappa), float(result.objective),
             kwargs.get("lipschitz"), kwargs.get("max_iterations"))
        )


def relative_objective_gaps(problems, *, sample: int, factor: int = 20) -> list[float]:
    """Re-solve an evenly spaced sample with ``factor``× the iteration cap.

    Returns ``(f_run − f_ref) / f_ref`` per sampled problem, where
    ``f_ref`` is the objective the longer solve reaches from a cold
    start on the same operator, measurements and κ.
    """
    if not problems:
        return []
    picks = np.unique(np.linspace(0, len(problems) - 1, num=min(sample, len(problems))).astype(int))
    gaps = []
    for index in picks:
        operator, y, kappa, objective, lipschitz, cap = problems[index]
        reference = solve_batch(
            operator, [y], "mmv", kappa=[kappa],
            max_iterations=factor * int(cap), lipschitz=lipschitz,
        )
        best = reference.objectives[0]
        gaps.append((objective - best) / best)
    return gaps
