"""Exception hierarchy for the ROArray reproduction.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still distinguishing subsystems.
"""


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent."""


class SolverError(ReproError):
    """A sparse-recovery solver received bad input or failed to make progress."""


class GeometryError(ReproError):
    """A scene/geometry construction is degenerate (e.g. AP outside room)."""


class CalibrationError(ReproError):
    """Phase calibration could not be performed with the given measurements."""


#: Closed taxonomy of ingestion-failure kinds.  Every
#: :class:`IngestError` carries exactly one of these so fuzz harnesses,
#: failure summaries, and dashboards can bucket hostile inputs without
#: parsing error prose.
INGEST_FAULT_KINDS = (
    "io",  # the file/stream itself could not be read (OSError territory)
    "truncated",  # data ends mid-record / mid-array
    "bad_length",  # a length field disagrees with the payload it frames
    "bad_field",  # a scalar field holds an impossible value
    "bad_shape",  # array layout cannot be normalized to (packets, m, s)
    "empty",  # structurally readable but contains no usable records
    "unsupported",  # recognized format variant this reader does not handle
    "unresolved",  # the source spec / dataset reference does not resolve
    "invalid",  # malformed in a way no finer bucket captures
)


class IngestError(ReproError):
    """A trace source could not be read or resolved.

    Raised by :mod:`repro.io` for unreadable or malformed capture files
    (truncated Intel 5300 ``.dat`` records, a ``.mat`` file without a
    recognizable CSI variable), unknown formats that survive sniffing,
    and sources that simply do not exist.  Defects *inside* a parseable
    trace (NaN packets, dead antennas) are not ingest errors — they are
    the validation gate's job (:class:`ValidationError`).

    Every instance carries a ``kind`` from :data:`INGEST_FAULT_KINDS`;
    the adversarial-ingestion harness asserts that hostile bytes always
    surface as one of these, never as a stray ``struct.error`` or
    ``IndexError``.
    """

    def __init__(self, message: str, *, kind: str = "invalid"):
        if kind not in INGEST_FAULT_KINDS:
            raise ValueError(f"unknown ingest fault kind {kind!r}")
        super().__init__(message)
        self.kind = kind


class DatasetError(IngestError):
    """A dataset registry reference could not be resolved.

    Raised for unknown ``dataset://`` names, a missing or unreadable
    registry manifest, and checksum mismatches between the manifest and
    the file on disk (a corrupted or silently replaced capture must not
    masquerade as the registered one).
    """

    def __init__(self, message: str, *, kind: str = "unresolved"):
        super().__init__(message, kind=kind)


class ValidationError(ReproError):
    """CSI input failed the validation gate beyond repair.

    Raised by :func:`repro.faults.validate.sanitize_trace` when a trace
    is structurally unusable — wrong shape, empty, or with every packet
    quarantined.  Recoverable defects (a few non-finite packets) are
    quarantined instead and never raise.
    """


class FaultInjectionError(ConfigurationError):
    """A fault injector or chaos scenario is misconfigured."""


class JobTimeoutError(ReproError):
    """A batch job exceeded its per-job wall-clock budget."""


class PoolCrashError(ReproError):
    """A worker process died and its jobs could not be completed.

    Raised (as a tagged :class:`~repro.runtime.jobs.JobFailure`, not an
    exception) once the batch runtime exhausts its pool-respawn budget.
    """


class QuorumError(ReproError):
    """Too few surviving APs to attempt a localization fix."""


class CheckpointError(ReproError):
    """A checkpoint journal cannot be used for the requested run.

    Raised when the journal's config digest does not match the run being
    resumed (resuming would silently mix results from two different
    experiments), when its format version is unsupported, or when the
    header itself is unreadable.  A torn *tail* record is **not** an
    error — the loader skips it and the job is recomputed.
    """


class ResumableInterrupt(ReproError):
    """A checkpointed batch was interrupted but can be resumed.

    Raised by :meth:`repro.runtime.BatchEvaluator.evaluate` after a
    graceful SIGINT/SIGTERM drain: completed jobs are journaled and
    flushed, in-flight futures cancelled, and rerunning the same
    evaluation with the same checkpoint finishes the run.  Carries the
    drain state so callers (the ``roarray`` CLI exits with the distinct
    resumable status :data:`repro.runtime.checkpoint.EXIT_RESUMABLE`)
    can report progress.
    """

    def __init__(self, message: str, *, completed: int = 0, total: int = 0, path=None):
        super().__init__(message)
        self.completed = completed
        self.total = total
        self.path = path


class SolverDivergenceError(SolverError):
    """Every solver in a guardrail fallback chain diverged or failed."""


class ServiceError(ReproError):
    """The streaming localization service was misused.

    Raised by :mod:`repro.serve` for lifecycle violations — running a
    service concurrently with itself, or feeding it after shutdown
    completed.  Per-packet problems (unknown AP, malformed CSI, a full
    queue) are *not* errors: admission control rejects those packets
    with a taxonomized reason and the service keeps running.
    """


class SupervisorError(ServiceError):
    """The service supervisor cannot keep the service alive.

    Raised by :class:`repro.serve.resilience.ServiceSupervisor` when the
    bounded restart budget is exhausted (the service keeps crashing on
    the same input), or when the snapshot directory holds state that
    does not match the stream being replayed.  Carries the last crash as
    ``__cause__`` so operators see *why* restarts kept failing.
    """
