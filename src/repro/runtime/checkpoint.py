"""Durable checkpoint/resume: a crash-safe experiment store.

Long sweeps (the Fig. 6–8 drivers run hundreds of joint solves) must
survive SIGKILL, OOM and host preemption without losing completed work.
This module provides the storage layer:

* :func:`atomic_write` — the one way any artifact (JSON report, NPZ
  trace, benchmark result) reaches disk: tmp file in the destination
  directory, ``fsync``, then ``os.replace``.  A crash leaves either the
  old file or the new file, never a torn hybrid.
* :class:`JsonlLog` — the one journal format: an append-only, fsync'd
  JSON-lines file with one torn-tail rule (below).  The checkpoint
  journal and the serve ack journal (``fixes.jsonl``,
  :mod:`repro.serve.resilience`) both write through it.
* :class:`CheckpointJournal` — per-job outcomes on a :class:`JsonlLog`.
  The first record is a versioned header carrying the experiment id,
  the config digest and the expected job count; every subsequent record
  is one job outcome keyed by a content hash of (config digest, job
  index, per-job seed, trace fingerprint).  :meth:`~CheckpointJournal.finalize`
  rewrites the finished journal atomically, one record per key.
* :class:`CheckpointPolicy` — what callers hand to
  :meth:`repro.runtime.BatchEvaluator.evaluate`: the journal path, the
  experiment label and an optional metrics registry.  Every append is
  fsync'd; there is nothing to tune.
* :func:`config_digest` / :func:`job_key` — stable content hashes.  The
  digest pins *what experiment this journal belongs to* (estimator
  spec, execution policy, base seed, job count); resuming against a
  journal with a different digest raises
  :class:`~repro.exceptions.CheckpointError` instead of silently mixing
  results.  The per-job key additionally pins the trace bytes, so a
  changed input reruns rather than wrongly replaying.
* :func:`checkpoint_status` / manifest helpers — what ``roarray
  resume`` uses to report percent-complete and re-dispatch the original
  command.  ``checkpoint_status`` only reads; it never heals a journal.

Torn-write recovery: a record is one JSON object on one
``\\n``-terminated line.  Opening a log keeps the longest prefix of such
lines and truncates whatever follows in place (a last line missing only
its ``\\n`` gets it back).  This means an unparseable line in the
*middle* of a checkpoint journal drops every record after it too; those
jobs are recomputed, never half-trusted.  The checkpoint journal counts
a torn tail, and every schema-invalid object inside the kept prefix, on
the ``checkpoint.validation_warnings`` metric and emits a
``RuntimeWarning``; invalid objects are skipped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from repro.exceptions import CheckpointError

#: Journal format version; bumped on incompatible record-layout changes.
JOURNAL_VERSION = 1

#: Process exit status for "interrupted but resumable" (BSD EX_TEMPFAIL).
#: Distinct from both success (0) and failure (1/2) so wrappers can
#: requeue the run instead of reporting it broken.
EXIT_RESUMABLE = 75

#: Name of the run manifest ``roarray resume`` re-dispatches from.
MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# Atomic artifact writes
# ---------------------------------------------------------------------------


def atomic_write(
    path: str | Path,
    data: dict | list | str | bytes | Callable[[Any], None],
    *,
    indent: int | None = 2,
) -> Path:
    """Write an artifact atomically: tmp file + ``fsync`` + ``os.replace``.

    ``data`` may be a JSON-ready dict/list (serialized with ``indent``
    and a trailing newline), a ``str`` (UTF-8 text), raw ``bytes``, or a
    callable taking a binary file object (for writers like
    ``np.savez_compressed`` that stream their own format).

    The temporary file is created in the destination directory so the
    final ``os.replace`` stays on one filesystem (rename atomicity);
    readers observe either the complete old content or the complete new
    content, never a partially written file.
    """
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if callable(data):
                data(handle)
            elif isinstance(data, bytes):
                handle.write(data)
            elif isinstance(data, str):
                handle.write(data.encode("utf-8"))
            else:
                handle.write(json.dumps(data, indent=indent).encode("utf-8"))
                handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(directory)
    return path


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not supported on all filesystems
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# The JSONL log
# ---------------------------------------------------------------------------


def _scan_jsonl(path: Path) -> tuple[list[dict], int, int]:
    """Apply the framing rule to a JSONL file without touching it.

    Returns ``(records, kept, size)``: the records of the valid prefix,
    its byte length (``size + 1`` when only the final ``\\n`` is
    missing) and the file's byte length.
    """
    data = path.read_bytes() if path.exists() else b""
    records: list[dict] = []
    kept = 0
    for line in data.split(b"\n"):
        if line.strip():
            try:
                record = json.loads(line)
            except ValueError:
                break
            if not isinstance(record, dict):
                break
            records.append(record)
        elif kept + len(line) == len(data):
            break  # an unterminated blank tail
        kept += len(line) + 1
    return records, kept, len(data)


class JsonlLog:
    """An append-only, fsync'd JSON-lines file: the one journal format.

    The framing rule: a record is one JSON object on one
    ``\\n``-terminated line, and blank lines are ignored.  The log is the
    longest prefix of such lines; whatever follows — a write torn
    mid-line, a line that does not parse, a line that is not an object —
    is truncated in place and the file fsync'd, so the next append
    starts on a record boundary.  A last line that is a complete object
    missing only its ``\\n`` is kept and gets the ``\\n``.  The file is
    never rewritten by rename.

    Constructing it creates the file at once, reads the records and
    heals it; :meth:`append` makes one write, one flush and one
    ``fsync`` per call, so a batch of records is durable together.
    """

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        self._handle = open(path, "ab")
        try:
            #: The records found on disk, in file order.
            self.records, kept, size = _scan_jsonl(path)
            #: Torn bytes cut from the tail.
            self.torn_bytes = max(size - kept, 0)
            if kept != size:
                self._handle.truncate(min(kept, size))
                if kept > size:
                    self._handle.write(b"\n")
                self._handle.flush()
                os.fsync(self._handle.fileno())
        except BaseException:
            self._handle.close()
            raise

    def append(self, records: Iterable[dict]) -> None:
        """Write ``records`` with one flush and one ``fsync``."""
        self._handle.write(
            "".join(json.dumps(record) + "\n" for record in records).encode("utf-8")
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Content hashing
# ---------------------------------------------------------------------------


def describe_for_digest(value) -> Any:
    """A canonical, JSON-able description of a configuration value.

    Dataclasses recurse field by field, numpy arrays collapse to a hash
    of their bytes, containers recurse, scalars pass through.  Opaque
    objects contribute their class identity plus a ``name`` attribute if
    they expose one — enough to distinguish estimator systems without
    depending on unstable ``repr`` addresses.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest(),
            "shape": list(value.shape),
            "dtype": str(value.dtype),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        described = {
            f.name: describe_for_digest(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        described["__class__"] = type(value).__qualname__
        return described
    if isinstance(value, dict):
        return {str(k): describe_for_digest(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [describe_for_digest(item) for item in value]
    label = f"{type(value).__module__}.{type(value).__qualname__}"
    name = getattr(value, "name", None)
    return {"__object__": label, "name": name if isinstance(name, str) else None}


def config_digest(*parts) -> str:
    """A stable hex digest over arbitrary configuration values."""
    canonical = json.dumps(
        [describe_for_digest(part) for part in parts], sort_keys=True, allow_nan=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def trace_fingerprint(trace) -> str:
    """Content hash of a CSI trace's measurement bytes."""
    csi = np.ascontiguousarray(trace.csi)
    digest = hashlib.sha256(csi.tobytes())
    digest.update(np.float64(trace.snr_db).tobytes())
    return digest.hexdigest()[:32]


def job_key(config_digest_hex: str, index: int, seed: int, content_hash: str = "") -> str:
    """Content hash identifying one job inside one experiment."""
    raw = f"{config_digest_hex}:{index}:{seed}:{content_hash}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:32]


# ---------------------------------------------------------------------------
# The checkpoint journal
# ---------------------------------------------------------------------------


@dataclass
class CheckpointPolicy:
    """Where a batch journals its outcomes.

    Attributes
    ----------
    path:
        Journal file (JSONL).  Parent directories are created on demand.
    experiment:
        Human-readable label stored in the journal header (shown by
        ``roarray resume``); defaults to ``"batch"``.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; replay/append/
        torn-record counters land there.
    """

    path: str | Path
    experiment: str = "batch"
    metrics: object | None = None


@dataclass
class JournalState:
    """What a journal load recovered: the header plus replayable payloads."""

    header: dict
    payloads: dict[str, dict] = field(default_factory=dict)

    @property
    def n_recorded(self) -> int:
        return len(self.payloads)


class CheckpointJournal:
    """Per-job outcomes on a :class:`JsonlLog`, keyed and versioned.

    Record layout (one JSON object per line)::

        {"record": "header", "version": 1, "experiment": ..,
         "config_digest": .., "n_jobs": ..}
        {"record": "job", "key": "<hex>", "index": 3, "payload": {...}}

    The header is written atomically at creation, before any job
    record, so a journal either identifies its experiment or is treated
    as empty.  Every :meth:`append` is fsync'd before it returns.
    :meth:`finalize` rewrites the journal atomically, one record per key
    (last record wins), sorted by job index.
    """

    def __init__(self, policy: CheckpointPolicy):
        self.policy = policy
        self.path = Path(policy.path)
        self._log: JsonlLog | None = None
        self._records: dict[str, dict] = {}
        self._header: dict | None = None

    # -- lifecycle ---------------------------------------------------------

    def open(self, *, config_digest: str, n_jobs: int) -> JournalState:
        """Create the journal or load it for resumption.

        Returns the recovered :class:`JournalState` (empty for a fresh
        journal).  Raises :class:`~repro.exceptions.CheckpointError`
        when the existing header belongs to a different experiment
        configuration — a resumed run must never mix results.
        """
        experiment = self.policy.experiment
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._log = JsonlLog(self.path)
        state = _load_journal(
            self.path, self._log.records, self._log.torn_bytes, metrics=self.policy.metrics
        )
        fresh = state is None
        if fresh:
            state = JournalState(
                header={
                    "record": "header",
                    "version": JOURNAL_VERSION,
                    "experiment": experiment,
                    "config_digest": config_digest,
                    "n_jobs": int(n_jobs),
                }
            )
        header = state.header
        problem = None
        if header.get("version") != JOURNAL_VERSION:
            problem = (
                f"journal version {header.get('version')!r} "
                f"is not supported (expected {JOURNAL_VERSION})"
            )
        elif header.get("config_digest") != config_digest:
            problem = (
                "journal belongs to a different experiment "
                f"configuration (digest {header.get('config_digest')!r} != "
                f"{config_digest!r} for {experiment!r}); refusing to mix "
                "results — point the run at a fresh checkpoint or delete "
                "the stale journal"
            )
        if problem is not None:
            self.close()
            raise CheckpointError(f"{self.path}: {problem}")
        self._header = header
        self._records = dict(state.payloads)
        if fresh:
            # New or headerless: start over from a lone header.
            self._rewrite()
            self._log = JsonlLog(self.path)
        counter = self._counter("checkpoint.records_replayed")
        if counter is not None:
            counter.inc(state.n_recorded)
        return state

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- appends -----------------------------------------------------------

    def append(self, key: str, payload: dict, *, index: int | None = None) -> None:
        """Journal one outcome; it is durable when this returns."""
        record = {"record": "job", "key": key, "index": index, "payload": payload}
        self._log.append([record])
        self._records[key] = record
        counter = self._counter("checkpoint.records_appended")
        if counter is not None:
            counter.inc()

    def finalize(self) -> None:
        """Rewrite the journal sorted and deduplicated, then close it."""
        self._rewrite()

    def _rewrite(self) -> None:
        self.close()
        records = sorted(
            self._records.values(),
            key=lambda r: (r.get("index") is None, r.get("index"), r.get("key")),
        )
        atomic_write(
            self.path, "".join(json.dumps(r) + "\n" for r in [self._header, *records])
        )

    def _counter(self, name: str):
        metrics = self.policy.metrics
        if metrics is None:
            return None
        return metrics.counter(name)


def _load_journal(
    path: Path, records: list[dict], torn_bytes: int, *, metrics=None
) -> JournalState | None:
    """Header and job records from a log's records, without touching the file.

    Returns ``None`` when there is no usable header (a crash before the
    header landed) — the caller recreates the journal from scratch.
    A torn tail and every schema-invalid record increment
    ``checkpoint.validation_warnings`` and emit a Python warning; the
    affected jobs are recomputed.
    """
    if not records or records[0].get("record") != "header":
        if records or torn_bytes:
            _warn_torn(path, "unreadable header — recreating the journal", metrics)
        return None
    if torn_bytes:
        _warn_torn(path, f"torn record of {torn_bytes} bytes at the tail dropped", metrics)
    state = JournalState(header=records[0])
    for number, record in enumerate(records[1:], start=1):
        if (
            record.get("record") != "job"
            or not isinstance(record.get("key"), str)
            or not isinstance(record.get("payload"), dict)
        ):
            _warn_torn(path, f"malformed record {number} skipped", metrics)
            continue
        state.payloads[record["key"]] = record
    return state


def _warn_torn(path: Path, message: str, metrics) -> None:
    if metrics is not None:
        metrics.counter("checkpoint.validation_warnings").inc()
    warnings.warn(f"checkpoint {path}: {message}", RuntimeWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# Resume status + manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalStatus:
    """Progress of one journal inside a checkpoint directory."""

    path: str
    experiment: str
    n_jobs: int
    n_recorded: int

    @property
    def percent_complete(self) -> float:
        if self.n_jobs <= 0:
            return 0.0
        return 100.0 * min(self.n_recorded, self.n_jobs) / self.n_jobs

    @property
    def complete(self) -> bool:
        return self.n_jobs > 0 and self.n_recorded >= self.n_jobs


def checkpoint_status(directory: str | Path) -> list[JournalStatus]:
    """Report the progress of a checkpoint directory's journals.

    Read-only: a torn journal is reported as found and left for the
    next run's :meth:`CheckpointJournal.open` to heal.
    """
    directory = Path(directory)
    statuses = []
    for path in sorted(directory.glob("*.jsonl")):
        records, kept, size = _scan_jsonl(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state = _load_journal(path, records, max(size - kept, 0))
        if state is None:
            continue
        statuses.append(
            JournalStatus(
                path=str(path),
                experiment=str(state.header.get("experiment", "?")),
                n_jobs=int(state.header.get("n_jobs", 0)),
                n_recorded=state.n_recorded,
            )
        )
    return statuses


def write_manifest(directory: str | Path, argv: Iterable[str]) -> Path:
    """Record the CLI command a checkpoint directory belongs to."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return atomic_write(
        directory / MANIFEST_NAME,
        {"version": JOURNAL_VERSION, "command": list(argv)},
    )


def read_manifest(directory: str | Path) -> list[str]:
    """The argv recorded by :func:`write_manifest`; raises if unusable."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise CheckpointError(
            f"{path} not found — was this checkpoint created with "
            "`roarray batch --checkpoint`, `roarray chaos --checkpoint` or "
            "`roarray serve --snapshot-dir`?"
        )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(f"{path}: unreadable manifest ({error})") from error
    command = manifest.get("command")
    if not isinstance(command, list) or not all(isinstance(a, str) for a in command):
        raise CheckpointError(f"{path}: manifest carries no command to resume")
    return command
