"""Parallel batch evaluation with a sequential-parity guarantee.

:class:`BatchEvaluator` fans a list of :class:`~repro.channel.trace.CsiTrace`
jobs out over a ``concurrent.futures.ProcessPoolExecutor``:

* **Per-worker warmup** — the pool initializer builds the estimator from
  a compact :class:`~repro.runtime.jobs.EstimatorSpec` and warms its
  :class:`~repro.core.steering.SteeringCache` once per process, so the
  joint dictionary (the expensive shared artifact) is built per worker,
  never per trace, and never pickled.
* **Determinism** — every job's result is a pure function of the job
  itself (trace + per-job seed ``base_seed + index``), jobs are chunked
  by contiguous index ranges, and outcomes are re-ordered by job index
  before returning.  The output is therefore byte-identical for any
  worker count, including the ``workers=0`` in-process sequential path.
* **Graceful degradation** — a failing job comes back as a tagged,
  taxonomized :class:`~repro.runtime.jobs.JobFailure` record
  (``validation`` / ``solver`` / ``timeout`` / ``runtime`` / ``crash``)
  instead of killing the pool; the remaining jobs are unaffected.
* **Hardened execution** — an :class:`~repro.runtime.jobs.ExecutionPolicy`
  adds an opt-in CSI validation gate, per-job wall-clock timeouts and
  bounded deterministic retries, all enforced *where the job runs* so
  ``workers=0`` and ``workers=N`` stay byte-identical.  A crashed
  worker process (``BrokenProcessPool``) is recovered by respawning the
  pool and requeueing only the unfinished chunks — completed outcomes
  are never lost.
* **Grouped fusion** — a plain ROArray estimator evaluates consecutive
  jobs :data:`GROUP_JOBS` at a time, their fusion solves batched into
  lockstep blocks (:meth:`~repro.core.pipeline.RoArrayEstimator.joint_spectra`),
  which give each job the analysis it gets alone; a group that fails or
  misses its deadline reruns job by job, so outcomes, retries and
  journals are those of per-job evaluation.
* **Instrumentation** — workers time the dictionary / solve / peak
  stages per job; the totals, plus the failure taxonomy and
  retry/timeout/quarantine counts, come back in a
  :class:`~repro.runtime.report.RuntimeReport`.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback as traceback_module
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.channel.trace import CsiTrace
from repro.core.direct_path import ApAnalysis
from repro.exceptions import (
    ConfigurationError,
    JobTimeoutError,
    ResumableInterrupt,
    SolverError,
    ValidationError,
)
from repro.obs import NULL_TRACER, Tracer
from repro.runtime.checkpoint import (
    CheckpointJournal,
    CheckpointPolicy,
    config_digest,
    job_key,
    trace_fingerprint,
)
from repro.runtime.jobs import (
    DEFAULT_POLICY,
    RETRYABLE_KINDS,
    EstimatorSpec,
    EvalJob,
    ExecutionPolicy,
    JobFailure,
    JobOutcome,
)
from repro.runtime.report import RuntimeReport

#: Consecutive jobs a plain ROArray estimator evaluates as one group.
#: A drain request is honoured between groups, so the group also sets
#: how much work still finishes after a SIGINT.
GROUP_JOBS = 3

#: How often the parallel drain loop wakes to check for completed chunks
#: and shutdown requests (seconds).
_DRAIN_POLL_S = 0.2

# Per-process estimator slot, populated by the pool initializer.  A
# module-level global is the standard ProcessPoolExecutor idiom for
# one-time per-worker state; in the parent process it stays None.
_WORKER_SYSTEM = None
# Set once the worker's one-time warmup cost has been shipped back with
# a chunk result, so N workers report N warmups total, each exactly once.
_WORKER_WARMUP_PENDING_S = 0.0
# Whether workers should record per-job trace spans (set from the
# parent's tracer state at pool startup).
_WORKER_CAPTURE_SPANS = False
# The hardening policy every job in this process runs under.
_WORKER_POLICY = DEFAULT_POLICY


def _initialize_worker(
    spec: EstimatorSpec,
    capture_spans: bool = False,
    policy: ExecutionPolicy = DEFAULT_POLICY,
) -> None:
    """Build the estimator once per worker process and warm its cache."""
    global _WORKER_SYSTEM, _WORKER_WARMUP_PENDING_S, _WORKER_CAPTURE_SPANS, _WORKER_POLICY
    # A terminal Ctrl-C delivers SIGINT to the whole process group.  The
    # *parent* owns the shutdown (drain, journal, cancel); workers must
    # not die mid-chunk from the same keystroke, or their in-flight
    # results are lost and the pool reads as crashed.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _WORKER_SYSTEM = _build_warm_system(spec)
    _WORKER_WARMUP_PENDING_S = _system_warmup_seconds(_WORKER_SYSTEM)
    _WORKER_CAPTURE_SPANS = capture_spans
    _WORKER_POLICY = policy


class _GracefulShutdown:
    """Turn the first SIGINT/SIGTERM into a drain request, not a crash.

    While active, the first signal sets :attr:`triggered` — the
    evaluation loops notice it between jobs (sequential) or between
    drain polls (parallel), stop submitting, journal what finished and
    exit cleanly.  A *second* signal escalates to an immediate
    ``KeyboardInterrupt`` for users who really mean it.  The previous
    handlers are always restored on exit, and installation is skipped
    off the main thread (where Python forbids ``signal.signal``), so the
    evaluator stays usable from worker threads — just without graceful
    draining.
    """

    _SIGNALS = ("SIGINT", "SIGTERM")

    def __init__(self) -> None:
        self.triggered = False
        self._previous: dict[int, object] = {}

    def _on_signal(self, signum, frame) -> None:
        if self.triggered:
            raise KeyboardInterrupt
        self.triggered = True

    def __enter__(self) -> "_GracefulShutdown":
        for name in self._SIGNALS:
            signum = getattr(signal, name, None)
            if signum is None:
                continue
            try:
                self._previous[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        self._previous.clear()


def _system_warmup_seconds(system) -> float:
    cache = getattr(system, "cache", None)
    return float(getattr(cache, "warmup_seconds", 0.0))


def _build_warm_system(spec: EstimatorSpec):
    system = spec.build()
    cache = getattr(system, "cache", None)
    if cache is not None and hasattr(cache, "warmup"):
        cache.warmup()
    return system


@contextmanager
def _job_deadline(timeout_s: float | None):
    """Enforce a wall-clock budget with a POSIX interval timer.

    Runs identically in the pool workers and on the in-process
    sequential path (both execute jobs on their process's main thread),
    which is what keeps timeouts from breaking worker-count parity.  On
    platforms without ``SIGALRM``, or off the main thread, the deadline
    is silently skipped — the pool-crash recovery is the backstop.
    """
    usable = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeoutError(f"job exceeded its {timeout_s:g} s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _classify_failure(error: Exception) -> str:
    """Map an exception to its :data:`~repro.runtime.jobs.FAILURE_KINDS` bucket."""
    if isinstance(error, ValidationError):
        return "validation"
    if isinstance(error, JobTimeoutError):
        return "timeout"
    if isinstance(error, SolverError):
        return "solver"
    return "runtime"


def _expected_shape(system) -> tuple[int, int] | None:
    """The (antennas, subcarriers) shape the system's hardware model expects."""
    array = getattr(system, "array", None)
    layout = getattr(system, "layout", None)
    if array is None or layout is None:
        return None
    return (array.n_antennas, layout.n_subcarriers)


def _evaluate_job(
    system,
    job: EvalJob,
    *,
    capture_spans: bool = False,
    policy: ExecutionPolicy = DEFAULT_POLICY,
) -> JobOutcome:
    """Run one job under the execution policy; failures become data.

    Retries happen *here* — in the same process the job runs in — so the
    sequential and pooled paths share one retry semantic: attempt *k* of
    job *i* is the same computation everywhere, and the deterministic
    backoff schedule is a pure function of the attempt number.  Only
    :data:`~repro.runtime.jobs.RETRYABLE_KINDS` (timeouts, arbitrary
    runtime errors) are retried; solver and validation failures are pure
    functions of the trace and would fail identically every time.
    """
    total_attempts = policy.max_retries + 1
    outcome = None
    for attempt in range(1, total_attempts + 1):
        backoff = policy.backoff_for_attempt(attempt)
        if backoff > 0.0:
            time.sleep(backoff)
        outcome = _attempt_job(system, job, capture_spans=capture_spans, policy=policy)
        outcome.attempts = attempt
        if outcome.ok or outcome.failure.kind not in RETRYABLE_KINDS:
            break
    if not outcome.ok:
        outcome.failure = replace(outcome.failure, attempts=outcome.attempts)
    return outcome


def _attempt_job(
    system,
    job: EvalJob,
    *,
    capture_spans: bool,
    policy: ExecutionPolicy,
) -> JobOutcome:
    """One attempt at one job: gate, analyze, classify.

    With ``capture_spans`` the job runs under a fresh per-job
    :class:`~repro.obs.Tracer` (installed on the system for the duration
    of the call), and the recorded spans come back serialized on the
    outcome.  Both the sequential and the worker-pool paths go through
    here with the same flag, so the two span trees are structurally
    identical job for job.
    """
    job_tracer = Tracer() if capture_spans else NULL_TRACER
    previous_tracer = getattr(system, "tracer", None)
    if capture_spans and previous_tracer is not None:
        system.tracer = job_tracer
    stage_seconds: dict[str, float] = {}
    quarantined = 0
    start = time.perf_counter()
    try:
        with job_tracer.span("job", index=job.index):
            trace = job.trace
            if policy.validate:
                from repro.faults.validate import sanitize_trace

                trace, validation = sanitize_trace(
                    trace, expected_shape=_expected_shape(system)
                )
                quarantined = validation.n_quarantined
            with _job_deadline(policy.timeout_s):
                analysis = _timed_analysis(system, trace, stage_seconds)
    except Exception as error:
        return JobOutcome(
            index=job.index,
            failure=JobFailure(
                error_type=type(error).__name__,
                message=str(error),
                kind=_classify_failure(error),
                traceback=traceback_module.format_exc(),
            ),
            elapsed_s=time.perf_counter() - start,
            stage_seconds=stage_seconds,
            spans=_drain_spans(job_tracer, stage_seconds, capture_spans),
            quarantined_packets=quarantined,
        )
    finally:
        if capture_spans and previous_tracer is not None:
            system.tracer = previous_tracer
    return JobOutcome(
        index=job.index,
        analysis=analysis,
        elapsed_s=time.perf_counter() - start,
        stage_seconds=stage_seconds,
        spans=_drain_spans(job_tracer, stage_seconds, capture_spans),
        quarantined_packets=quarantined,
    )


def _drain_spans(job_tracer, stage_seconds: dict[str, float], capture_spans: bool) -> list[dict]:
    """Serialize a job tracer's spans and derive the solver-time subtotal."""
    if not capture_spans:
        return []
    solver_s = job_tracer.total_wall_s("solver")
    if solver_s > 0.0:
        stage_seconds["solver"] = solver_s
    return [span.to_dict() for span in job_tracer.spans]


def _timed_analysis(system, trace: CsiTrace, stage_seconds: dict[str, float]) -> ApAnalysis:
    """``system.analyze(trace)`` with per-stage timing.

    ROArray estimators expose the stage boundaries (cache warmup → joint
    solve → peak pick); for opaque systems everything lands in ``solve``.
    The staged path calls exactly the methods ``analyze`` chains, so the
    result is identical to a plain ``analyze(trace)``.
    """
    from repro.core.pipeline import RoArrayEstimator

    if isinstance(system, RoArrayEstimator):
        tick = time.perf_counter()
        system.warm_cache()
        stage_seconds["dictionary"] = time.perf_counter() - tick
        tick = time.perf_counter()
        spectrum = system.joint_spectrum(trace)
        stage_seconds["solve"] = time.perf_counter() - tick
        tick = time.perf_counter()
        analysis = system.analysis_from_spectrum(spectrum)
        stage_seconds["peaks"] = time.perf_counter() - tick
        return analysis
    tick = time.perf_counter()
    analysis = system.analyze(trace)
    stage_seconds["solve"] = time.perf_counter() - tick
    return analysis


def _job_groups(system, jobs: list[EvalJob]):
    """Consecutive runs of ``jobs`` evaluated together: :data:`GROUP_JOBS`
    for a plain :class:`~repro.core.pipeline.RoArrayEstimator` (the
    test :meth:`EstimatorSpec.for_system` uses), one job otherwise."""
    from repro.core.pipeline import RoArrayEstimator

    size = GROUP_JOBS if type(system) is RoArrayEstimator else 1
    for start in range(0, len(jobs), size):
        yield jobs[start : start + size]


def _evaluate_group(
    system,
    jobs: list[EvalJob],
    *,
    capture_spans: bool = False,
    policy: ExecutionPolicy = DEFAULT_POLICY,
) -> list[JobOutcome]:
    """Outcomes of consecutive jobs, in job order, with their fusion
    solves run together.

    Each job is validated first; a job the gate rejects is evaluated
    alone.  The rest go through one
    :meth:`~repro.core.pipeline.RoArrayEstimator.joint_spectra` call
    under a deadline of ``timeout_s`` per job; if that raises or times
    out, every one of them is evaluated alone instead.  Either way each
    outcome equals :func:`_evaluate_job`'s: the batched solve gives each
    job its lone solve's spectrum.
    """
    if len(jobs) == 1:
        return [_evaluate_job(system, jobs[0], capture_spans=capture_spans, policy=policy)]
    ready = []
    for job in jobs:
        trace, quarantined = job.trace, 0
        if policy.validate:
            from repro.faults.validate import sanitize_trace

            try:
                trace, validation = sanitize_trace(trace, expected_shape=_expected_shape(system))
            except Exception:
                continue
            quarantined = validation.n_quarantined
        ready.append((job, trace, quarantined))
    grouped = {}
    if ready:
        try:
            grouped = _attempt_group(system, ready, capture_spans=capture_spans, policy=policy)
        except Exception:
            pass  # every job of the group reruns alone, which records the failure
    return [
        grouped[job.index]
        if job.index in grouped
        else _evaluate_job(system, job, capture_spans=capture_spans, policy=policy)
        for job in jobs
    ]


def _attempt_group(system, ready, *, capture_spans: bool, policy: ExecutionPolicy) -> dict:
    """One attempt at validated ``(job, trace, quarantined)`` triples:
    :func:`_timed_analysis`'s stages with the solves batched, each job
    under its own tracer, billed an equal share of the shared stages."""
    tracers = [Tracer() if capture_spans else NULL_TRACER for _ in ready]
    stages = [{} for _ in ready]
    previous_tracer = system.tracer
    start = time.perf_counter()
    timeout_s = None if policy.timeout_s is None else policy.timeout_s * len(ready)
    try:
        with ExitStack() as spans, _job_deadline(timeout_s):
            for (job, _, _), tracer in zip(ready, tracers):
                spans.enter_context(tracer.span("job", index=job.index))
            for tracer, stage_seconds in zip(tracers, stages):
                if capture_spans:
                    system.tracer = tracer
                tick = time.perf_counter()
                system.warm_cache()
                stage_seconds["dictionary"] = time.perf_counter() - tick
            tick = time.perf_counter()
            spectra = system.joint_spectra(
                [trace for _, trace, _ in ready], tracers=tracers if capture_spans else None
            )
            solve_s = (time.perf_counter() - tick) / len(ready)
            analyses = []
            for tracer, stage_seconds, spectrum in zip(tracers, stages, spectra):
                if capture_spans:
                    system.tracer = tracer
                stage_seconds["solve"] = solve_s
                tick = time.perf_counter()
                analyses.append(system.analysis_from_spectrum(spectrum))
                stage_seconds["peaks"] = time.perf_counter() - tick
    finally:
        system.tracer = previous_tracer
    elapsed_s = (time.perf_counter() - start) / len(ready)
    return {
        job.index: JobOutcome(
            index=job.index,
            analysis=analysis,
            elapsed_s=elapsed_s,
            stage_seconds=stage_seconds,
            spans=_drain_spans(tracer, stage_seconds, capture_spans),
            quarantined_packets=quarantined,
        )
        for (job, _, quarantined), analysis, tracer, stage_seconds in zip(
            ready, analyses, tracers, stages
        )
    }


def _run_chunk(jobs: list[EvalJob]) -> tuple[list[JobOutcome], float]:
    """Worker entry point: evaluate one contiguous chunk of jobs.

    Returns the outcomes plus this worker's one-time cache-warmup cost
    (nonzero only on the first chunk a worker returns, so the parent can
    sum it into the report's ``dictionary`` stage without double counting).
    """
    global _WORKER_WARMUP_PENDING_S
    if _WORKER_SYSTEM is None:  # pragma: no cover - initializer contract
        raise RuntimeError("worker used before initialization")
    warmup_s, _WORKER_WARMUP_PENDING_S = _WORKER_WARMUP_PENDING_S, 0.0
    outcomes = [
        outcome
        for group in _job_groups(_WORKER_SYSTEM, jobs)
        for outcome in _evaluate_group(
            _WORKER_SYSTEM, group, capture_spans=_WORKER_CAPTURE_SPANS, policy=_WORKER_POLICY
        )
    ]
    return outcomes, warmup_s


@dataclass
class BatchResult:
    """Ordered outcomes of one batch plus the runtime report."""

    outcomes: list[JobOutcome]
    report: RuntimeReport

    @property
    def analyses(self) -> list[ApAnalysis | None]:
        """Per-job analyses in submission order (``None`` where failed)."""
        return [outcome.analysis for outcome in self.outcomes]

    @property
    def failures(self) -> list[JobOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def raise_on_failure(self) -> None:
        """Raise :class:`SolverError` summarizing *all* distinct failures.

        The message counts every distinct error type in the batch (not
        just the first failure) and quotes the first failed job for
        context; per-failure detail — including the worker-side
        traceback — stays on the :class:`~repro.runtime.jobs.JobFailure`
        records in :attr:`failures`.
        """
        failed = self.failures
        if not failed:
            return
        counts: dict[str, int] = {}
        for outcome in failed:
            counts[outcome.failure.error_type] = counts.get(outcome.failure.error_type, 0) + 1
        summary = ", ".join(f"{name} x{count}" for name, count in sorted(counts.items()))
        first = failed[0]
        raise SolverError(
            f"{len(failed)} of {len(self.outcomes)} batch jobs failed ({summary}); "
            f"first: job {first.index}: {first.failure.error_type}: "
            f"{first.failure.message}"
        )

    def strict_analyses(self) -> list[ApAnalysis]:
        """All analyses, raising :class:`SolverError` if any job failed.

        This restores sequential-loop semantics for callers (like the
        experiment drivers) that treat a solver failure as fatal; see
        :meth:`raise_on_failure` for the error's shape.
        """
        self.raise_on_failure()
        return [outcome.analysis for outcome in self.outcomes]


@dataclass
class BatchEvaluator:
    """Evaluate many traces through one system, optionally in parallel.

    Parameters
    ----------
    system:
        An :class:`~repro.runtime.jobs.EstimatorSpec` or a built system
        (``RoArrayEstimator``, ``SpotFiEstimator``, ``ArrayTrackEstimator``,
        or anything implementing ``analyze(trace)``).
    workers:
        ``0`` (default) runs sequentially in-process — no subprocesses,
        no pickling.  ``N >= 1`` uses a pool of N worker processes.
        Results are byte-identical across all settings.
    chunk_size:
        Jobs per scheduling unit; ``None`` picks roughly two chunks per
        worker.  Chunking affects scheduling granularity only, never
        results.
    base_seed:
        Per-job seeds are ``base_seed + index`` (see
        :class:`~repro.runtime.jobs.EvalJob`).
    policy:
        The :class:`~repro.runtime.jobs.ExecutionPolicy` hardening knobs
        (validation gate, per-job timeout, bounded retries, pool-respawn
        budget).  The default policy disables all of them, preserving
        the original failure semantics.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When enabled, every job
        runs under its own worker-side tracer (sequential and parallel
        alike), the serialized spans come back on each
        :class:`~repro.runtime.jobs.JobOutcome`, and the whole batch is
        merged into this tracer under one ``batch_evaluate`` span.  The
        default no-op tracer records nothing and costs nothing.

    Examples
    --------
    >>> from repro.runtime import BatchEvaluator          # doctest: +SKIP
    >>> result = BatchEvaluator(estimator, workers=4).evaluate(traces)  # doctest: +SKIP
    >>> aoas = [a.direct.aoa_deg for a in result.strict_analyses()]     # doctest: +SKIP
    """

    system: object
    workers: int = 0
    chunk_size: int | None = None
    base_seed: int = 0
    policy: ExecutionPolicy = DEFAULT_POLICY
    tracer: object = NULL_TRACER
    _local_system: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {self.chunk_size}")
        self.spec = EstimatorSpec.for_system(self.system)

    def evaluate(
        self,
        traces: Sequence[CsiTrace],
        *,
        checkpoint: CheckpointPolicy | None = None,
    ) -> BatchResult:
        """Evaluate every trace; outcomes come back in submission order.

        With ``checkpoint``, every completed job is appended to the
        journal as it finishes; jobs already journaled by a previous run
        are *replayed* instead of recomputed, so a killed sweep resumes
        where it stopped and the final result is byte-identical to an
        uninterrupted run at any worker count.  While a checkpointed
        batch runs, the first SIGINT/SIGTERM drains gracefully — every
        finished job is already durable in the journal — and
        :class:`~repro.exceptions.ResumableInterrupt` is raised; without
        a checkpoint the interrupt propagates as usual
        (``KeyboardInterrupt``).
        """
        jobs = [
            EvalJob(index=index, trace=trace, seed=self.base_seed + index)
            for index, trace in enumerate(traces)
        ]
        journal = None
        keys: dict[int, str] = {}
        replayed: list[JobOutcome] = []
        pending_jobs = jobs
        if checkpoint is not None:
            # The digest deliberately excludes workers/chunk_size: results
            # are byte-identical across worker counts, so a journal written
            # at --workers 4 must resume cleanly at --workers 0 (and vice
            # versa).  The per-job key additionally pins the trace bytes,
            # so a changed input is recomputed, never wrongly replayed.
            digest = config_digest(self.spec, self.policy, self.base_seed, len(jobs))
            keys = {
                job.index: job_key(digest, job.index, job.seed, trace_fingerprint(job.trace))
                for job in jobs
            }
            journal = CheckpointJournal(checkpoint)
            state = journal.open(config_digest=digest, n_jobs=len(jobs))
            for job in jobs:
                record = state.payloads.get(keys[job.index])
                if record is not None:
                    replayed.append(JobOutcome.from_dict(record["payload"]))
            replayed_indices = {outcome.index for outcome in replayed}
            pending_jobs = [job for job in jobs if job.index not in replayed_indices]

        start = time.perf_counter()
        try:
            with _GracefulShutdown() as shutdown, self.tracer.span(
                "batch_evaluate", workers=self.workers, n_jobs=len(jobs)
            ):
                pool_respawns = 0
                if self.workers == 0 or len(pending_jobs) == 0:
                    outcomes, warmup_s = self._evaluate_sequential(
                        pending_jobs, journal=journal, keys=keys, shutdown=shutdown
                    )
                    chunk_size = len(jobs) or 1
                else:
                    chunk_size = self._effective_chunk_size(len(pending_jobs))
                    outcomes, warmup_s, pool_respawns = self._evaluate_parallel(
                        pending_jobs,
                        chunk_size,
                        journal=journal,
                        keys=keys,
                        shutdown=shutdown,
                    )
                outcomes = replayed + outcomes
                outcomes.sort(key=lambda outcome: outcome.index)
                # Without a journal nothing is kept, so the interrupt
                # stands even if the last group finished the batch.
                if shutdown.triggered and (journal is None or len(outcomes) < len(jobs)):
                    self._raise_interrupted(journal, completed=len(outcomes), total=len(jobs))
                # Graft worker-side spans in job order (inside the
                # batch_evaluate span so each job tree hangs under it).
                # Replayed outcomes carry their original run's spans, so
                # the resumed trace tree covers the whole batch.
                for outcome in outcomes:
                    if outcome.spans:
                        self.tracer.adopt(outcome.spans)
            if journal is not None:
                journal.finalize()
        finally:
            if journal is not None:
                journal.close()
        wall_s = time.perf_counter() - start
        report = RuntimeReport.from_outcomes(
            outcomes,
            workers=self.workers,
            chunk_size=chunk_size,
            wall_s=wall_s,
            warmup_s=warmup_s,
            pool_respawns=pool_respawns,
            n_replayed=len(replayed),
        )
        return BatchResult(outcomes=outcomes, report=report)

    def _raise_interrupted(self, journal, *, completed: int, total: int) -> None:
        """Drain finished: surface the interrupt with resume guidance."""
        if journal is None:
            # No checkpoint — nothing was saved, so behave like a plain
            # interrupt and let the caller's cleanup run.
            raise KeyboardInterrupt
        raise ResumableInterrupt(
            f"interrupted after {completed} of {total} jobs; completed work "
            f"is journaled in {journal.path} — rerun the same command to resume",
            completed=completed,
            total=total,
            path=str(journal.path),
        )

    # -- internals ---------------------------------------------------------

    def _evaluate_sequential(
        self,
        jobs: list[EvalJob],
        *,
        journal: CheckpointJournal | None = None,
        keys: dict[int, str] | None = None,
        shutdown: _GracefulShutdown | None = None,
    ) -> tuple[list[JobOutcome], float]:
        warmup_s = 0.0
        if self._local_system is None and jobs:
            self._local_system = _build_warm_system(self.spec)
            warmup_s = _system_warmup_seconds(self._local_system)
        capture = bool(getattr(self.tracer, "enabled", False))
        outcomes: list[JobOutcome] = []
        for group in _job_groups(self._local_system, jobs):
            if shutdown is not None and shutdown.triggered:
                break
            for outcome in _evaluate_group(
                self._local_system, group, capture_spans=capture, policy=self.policy
            ):
                outcomes.append(outcome)
                if journal is not None:
                    journal.append(keys[outcome.index], outcome.to_dict(), index=outcome.index)
        return outcomes, warmup_s

    def _evaluate_parallel(
        self,
        jobs: list[EvalJob],
        chunk_size: int,
        *,
        journal: CheckpointJournal | None = None,
        keys: dict[int, str] | None = None,
        shutdown: _GracefulShutdown | None = None,
    ) -> tuple[list[JobOutcome], float, int]:
        """Pooled evaluation with crash recovery.

        A worker process dying (OOM kill, segfault, ``os.kill``) breaks
        the whole ``ProcessPoolExecutor``; every unfinished future then
        raises :class:`BrokenProcessPool`.  Chunk results that already
        crossed back are kept, the pool is rebuilt, and only the
        unfinished chunks are resubmitted — up to
        ``policy.max_pool_respawns`` times, after which the remaining
        jobs come back as taxonomized ``crash`` failures instead of an
        exception.  Results stay deterministic throughout: chunk
        contents never change, so a requeued chunk recomputes exactly
        what the dead worker would have.

        Chunk results are journaled in the parent the moment their
        future resolves (workers never touch the journal file), and a
        graceful-shutdown request cancels the still-queued futures while
        letting the in-flight chunks finish and be journaled.
        """
        chunks = [jobs[i : i + chunk_size] for i in range(0, len(jobs), chunk_size)]
        capture = bool(getattr(self.tracer, "enabled", False))
        completed: dict[int, tuple[list[JobOutcome], float]] = {}
        pending = list(range(len(chunks)))
        respawns = 0
        interrupted = False
        while pending:
            workers = min(self.workers, len(pending))
            pool_broke = False
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_initialize_worker,
                initargs=(self.spec, capture, self.policy),
            ) as pool:
                futures = {
                    pool.submit(_run_chunk, chunks[index]): index for index in pending
                }
                not_done = set(futures)
                while not_done:
                    done, not_done = futures_wait(not_done, timeout=_DRAIN_POLL_S)
                    for future in done:
                        index = futures[future]
                        try:
                            completed[index] = future.result()
                        except CancelledError:
                            continue
                        except BrokenProcessPool:
                            pool_broke = True
                            continue
                        if journal is not None:
                            for outcome in completed[index][0]:
                                journal.append(
                                    keys[outcome.index],
                                    outcome.to_dict(),
                                    index=outcome.index,
                                )
                    if pool_broke:
                        break
                    if shutdown is not None and shutdown.triggered and not interrupted:
                        # Drain: drop everything still queued; chunks a
                        # worker is already computing run to completion
                        # (and get journaled) before the pool exits.
                        interrupted = True
                        for future in not_done:
                            future.cancel()
            pending = [index for index in pending if index not in completed]
            if interrupted or not pending:
                break
            if not pool_broke:  # pragma: no cover - defensive: avoid spinning
                raise ConfigurationError(
                    f"{len(pending)} chunks unfinished without a pool crash"
                )
            if respawns >= self.policy.max_pool_respawns:
                break
            respawns += 1

        outcomes: list[JobOutcome] = []
        warmup_s = 0.0
        for index in sorted(completed):
            chunk_outcomes, chunk_warmup_s = completed[index]
            outcomes.extend(chunk_outcomes)
            warmup_s += chunk_warmup_s
        # Respawn budget exhausted: the still-unfinished jobs become
        # tagged crash failures so the batch completes with data.  After
        # a graceful interrupt the unfinished jobs are simply *pending*
        # (they resume from the journal), not failed.
        for index in pending if not interrupted else []:
            for job in chunks[index]:
                outcomes.append(
                    JobOutcome(
                        index=job.index,
                        failure=JobFailure(
                            error_type="PoolCrashError",
                            message=(
                                "worker process died and the pool-respawn budget "
                                f"({self.policy.max_pool_respawns}) is exhausted"
                            ),
                            kind="crash",
                            attempts=respawns + 1,
                        ),
                        attempts=respawns + 1,
                    )
                )
        return outcomes, warmup_s, respawns

    def _effective_chunk_size(self, n_jobs: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        # Aim for ~2 chunks per worker: large enough to amortize IPC,
        # small enough to keep the pool busy at the tail.
        return max(1, -(-n_jobs // (2 * self.workers)))
