"""Job and estimator specifications for the batch runtime.

The worker-pool protocol is pickle-based, so everything that crosses a
process boundary lives here and is deliberately small:

* :class:`EstimatorSpec` — a compact, picklable *recipe* for a system.
  Shipping the recipe instead of a built estimator is what makes the
  per-worker one-time warmup possible: the worker initializer builds the
  estimator (and its :class:`~repro.core.steering.SteeringCache`) once
  per process, so the joint dictionary is never pickled and never built
  per trace.
* :class:`EvalJob` — one unit of work: a trace plus a stable identity.
* :class:`ExecutionPolicy` — the hardening knobs (validation gate,
  per-job timeout, bounded retries) every worker enforces locally, so
  the sequential and pooled paths behave identically.
* :class:`JobFailure` / :class:`JobOutcome` — what comes back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.array import UniformLinearArray
from repro.channel.ofdm import SubcarrierLayout
from repro.channel.trace import CsiTrace
from repro.core.config import RoArrayConfig
from repro.core.direct_path import ApAnalysis
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class EstimatorSpec:
    """A picklable recipe that builds an AP estimation system.

    For ROArray the spec carries only the configuration (grids, solver
    tunables, hardware model) — each worker rebuilds the estimator and
    warms its steering cache locally.  For other systems (SpotFi,
    ArrayTrack, or any object implementing ``analyze(trace)``) the
    built instance itself is carried; those systems hold no large
    precomputed state, so pickling them whole is cheap.
    """

    kind: str = "roarray"
    config: RoArrayConfig | None = None
    array: UniformLinearArray | None = None
    layout: SubcarrierLayout | None = None
    system: object | None = None

    def build(self):
        """Construct the system this spec describes."""
        if self.kind == "roarray":
            from repro.core.pipeline import RoArrayEstimator

            return RoArrayEstimator(array=self.array, layout=self.layout, config=self.config)
        if self.kind == "instance":
            if self.system is None:
                raise ConfigurationError("EstimatorSpec(kind='instance') requires a system")
            return self.system
        raise ConfigurationError(f"unknown estimator spec kind {self.kind!r}")

    @classmethod
    def roarray(
        cls,
        config: RoArrayConfig | None = None,
        *,
        array: UniformLinearArray | None = None,
        layout: SubcarrierLayout | None = None,
    ) -> "EstimatorSpec":
        return cls(kind="roarray", config=config, array=array, layout=layout)

    @classmethod
    def for_system(cls, system) -> "EstimatorSpec":
        """Derive a spec from an already-built system.

        A plain :class:`~repro.core.pipeline.RoArrayEstimator` collapses
        to its configuration (workers rebuild the cache rather than
        unpickling megabytes of dictionary); anything else, a subclass
        included, is wrapped as-is, so the system that runs is the one
        passed in.
        """
        from repro.core.pipeline import RoArrayEstimator

        if isinstance(system, EstimatorSpec):
            return system
        if type(system) is RoArrayEstimator:
            return cls(
                kind="roarray",
                config=system.config,
                array=system.array,
                layout=system.layout,
            )
        if not hasattr(system, "analyze"):
            raise ConfigurationError(
                f"system {system!r} does not implement analyze(trace)"
            )
        return cls(kind="instance", system=system)


@dataclass(frozen=True)
class EvalJob:
    """One trace to evaluate, with a stable identity.

    Attributes
    ----------
    index:
        Position in the submitted batch; results are re-ordered by it,
        so output order never depends on scheduling.
    trace:
        The CSI trace to analyze.
    seed:
        A per-job seed derived as ``base_seed + index`` — a function of
        the job, never of the worker or chunk it lands on.  The three
        shipped systems are deterministic and ignore it, but any future
        stochastic stage must draw randomness from this seed (and only
        this seed) to preserve the runtime's determinism guarantee.
    """

    index: int
    trace: CsiTrace
    seed: int = 0


#: Failure taxonomy: how a job failed, independent of the exception type.
#: ``validation`` — the input gate rejected the trace; ``solver`` — the
#: sparse solve failed; ``timeout`` — the per-job deadline fired;
#: ``runtime`` — any other worker-side exception; ``crash`` — the worker
#: process died and the pool-respawn budget ran out.
FAILURE_KINDS = ("validation", "solver", "timeout", "runtime", "crash")

#: Kinds worth retrying: a timeout or an arbitrary runtime error may be
#: transient (contention, a flaky dependency), but a solver or
#: validation failure is a pure function of the trace and would fail
#: identically on every attempt.
RETRYABLE_KINDS = ("timeout", "runtime")


@dataclass(frozen=True)
class ExecutionPolicy:
    """Hardening knobs enforced where the job runs.

    The policy ships to every worker through the pool initializer and
    applies identically on the in-process sequential path, so enabling
    it never breaks the worker-count parity guarantee.

    Attributes
    ----------
    timeout_s:
        Per-job (per-attempt) wall-clock budget, enforced with a POSIX
        interval timer inside the worker.  ``None`` disables it.  Code
        stuck inside a C extension that never returns to the
        interpreter cannot be interrupted this way — the pool-crash
        recovery is the backstop for that.
    max_retries:
        Extra attempts for retryable failures (:data:`RETRYABLE_KINDS`).
        Deterministic: attempt *k* of a job is the same computation on
        every worker count, and the backoff schedule is a pure function
        of the attempt number.
    backoff_s:
        Sleep before retry *k* is ``backoff_s · 2^(k-1)``.
    validate:
        Run the CSI validation gate
        (:func:`repro.faults.validate.sanitize_trace`) before analysis:
        quarantine bad packets, fail the job with a ``validation``
        failure when nothing survives.  Off by default — the gate is a
        byte-identical no-op on clean traces, but leaving it opt-in
        keeps the default path's failure semantics unchanged.
    max_pool_respawns:
        Parent-side: how many times a crashed process pool is rebuilt
        before the still-unfinished jobs are tagged as ``crash``
        failures.
    """

    timeout_s: float | None = None
    max_retries: int = 0
    backoff_s: float = 0.0
    validate: bool = False
    max_pool_respawns: int = 2

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ConfigurationError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.max_pool_respawns < 0:
            raise ConfigurationError(
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}"
            )

    def backoff_for_attempt(self, attempt: int) -> float:
        """Deterministic exponential backoff before retry ``attempt`` (2-based)."""
        if self.backoff_s <= 0.0 or attempt <= 1:
            return 0.0
        return self.backoff_s * (2.0 ** (attempt - 2))


#: The default, fully permissive policy (no gate, no timeout, no retries).
DEFAULT_POLICY = ExecutionPolicy()


@dataclass(frozen=True)
class JobFailure:
    """A tagged record of a failed job.

    Workers convert failures into data instead of exceptions so one
    degenerate trace cannot poison the pool.  Besides the error type
    name and message, the failure carries its taxonomy ``kind`` (one of
    :data:`FAILURE_KINDS`), the worker-side ``traceback`` string (the
    exception object itself cannot cross the process boundary intact),
    and how many ``attempts`` were spent before giving up.
    """

    error_type: str
    message: str
    kind: str = "solver"
    traceback: str = ""
    attempts: int = 1

    def to_dict(self) -> dict:
        """JSON-ready view (round-trips through :meth:`from_dict`)."""
        return {
            "error_type": self.error_type,
            "message": self.message,
            "kind": self.kind,
            "traceback": self.traceback,
            "attempts": int(self.attempts),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobFailure":
        return cls(
            error_type=str(payload["error_type"]),
            message=str(payload["message"]),
            kind=str(payload.get("kind", "solver")),
            traceback=str(payload.get("traceback", "")),
            attempts=int(payload.get("attempts", 1)),
        )


@dataclass
class JobOutcome:
    """The per-job result crossing back from a worker.

    Exactly one of ``analysis`` / ``failure`` is set.  ``stage_seconds``
    holds the per-stage wall times (``dictionary`` / ``solve`` /
    ``peaks``, plus the span-derived ``solver`` subtotal when tracing)
    the worker measured.  ``spans`` carries the job's serialized trace
    spans (plain dicts, see :meth:`repro.obs.Span.to_dict`) when the
    batch ran with tracing enabled — serialized rather than live so they
    survive the pickle trip back from worker processes; the parent
    re-homes them via :meth:`repro.obs.Tracer.adopt`.

    The hardening fields: ``attempts`` counts executions of this job
    (1 = first try succeeded), and ``quarantined_packets`` how many
    packets the validation gate removed before analysis.
    """

    index: int
    analysis: ApAnalysis | None = None
    failure: JobFailure | None = None
    elapsed_s: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    attempts: int = 1
    quarantined_packets: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_dict(self) -> dict:
        """JSON-ready view — what the checkpoint journal stores per job.

        The analysis round-trips byte-exactly (floats via ``repr``), so
        a replayed outcome is indistinguishable from the recomputed one;
        the timing fields carry the *original* run's measurements, which
        is what lets a resumed :class:`~repro.runtime.report.RuntimeReport`
        merge observability totals across the kill/resume boundary.
        """
        analysis = self.analysis
        if analysis is not None and not hasattr(analysis, "to_dict"):
            raise ConfigurationError(
                f"analysis {type(analysis).__name__} is not checkpointable "
                "(no to_dict): run this system without a checkpoint"
            )
        return {
            "index": int(self.index),
            "analysis": None if analysis is None else analysis.to_dict(),
            "failure": None if self.failure is None else self.failure.to_dict(),
            "elapsed_s": float(self.elapsed_s),
            "stage_seconds": {k: float(v) for k, v in self.stage_seconds.items()},
            "spans": list(self.spans),
            "attempts": int(self.attempts),
            "quarantined_packets": int(self.quarantined_packets),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobOutcome":
        from repro.core.direct_path import ApAnalysis

        analysis = payload.get("analysis")
        failure = payload.get("failure")
        return cls(
            index=int(payload["index"]),
            analysis=None if analysis is None else ApAnalysis.from_dict(analysis),
            failure=None if failure is None else JobFailure.from_dict(failure),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            stage_seconds=dict(payload.get("stage_seconds", {})),
            spans=list(payload.get("spans", [])),
            attempts=int(payload.get("attempts", 1)),
            quarantined_packets=int(payload.get("quarantined_packets", 0)),
        )
