"""The ingestion pipeline behind ``roarray ingest``.

One call takes raw capture sources end to end: parse → preprocessing
stages (STO removal for real formats) → quarantine gate → calibration
fit → normalized ``.npz`` artifact (atomically written) → optional
registry registration.  Every step is spanned and counted via
:mod:`repro.obs`, and the per-source results are journaled through the
PR-5 checkpoint store, so a killed bulk ingestion resumes without
re-parsing finished captures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import ReproError
from repro.obs import NULL_TRACER


def _jsonable(value):
    """``value`` with every array inside it turned into a list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class IngestRecord:
    """Outcome of ingesting one trace from one source.

    Per-packet series (STO ``slopes_rad`` / ``delays_ns``, calibration
    ``relative_delays_s``) stay float64 arrays until :meth:`to_dict`.
    """

    label: str
    source: str
    ok: bool
    n_packets: int = 0
    n_antennas: int = 0
    n_subcarriers: int = 0
    source_format: str = ""
    snr_db: float | None = None
    output_path: str | None = None
    dataset: str | None = None
    stage_reports: list[dict] = field(default_factory=list)
    calibration: dict | None = None
    error: str | None = None
    error_kind: str | None = None

    def to_dict(self) -> dict:
        return _jsonable(vars(self))

    @classmethod
    def from_dict(cls, payload: dict) -> "IngestRecord":
        return cls(
            label=str(payload["label"]),
            source=str(payload["source"]),
            ok=bool(payload["ok"]),
            n_packets=int(payload.get("n_packets", 0)),
            n_antennas=int(payload.get("n_antennas", 0)),
            n_subcarriers=int(payload.get("n_subcarriers", 0)),
            source_format=str(payload.get("source_format", "")),
            snr_db=payload.get("snr_db"),
            output_path=payload.get("output_path"),
            dataset=payload.get("dataset"),
            stage_reports=list(payload.get("stage_reports", [])),
            calibration=payload.get("calibration"),
            error=payload.get("error"),
            error_kind=payload.get("error_kind"),
        )


@dataclass(frozen=True)
class IngestResult:
    """Everything one ingestion run produced."""

    records: tuple[IngestRecord, ...]
    n_replayed: int = 0

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def n_failed(self) -> int:
        return sum(1 for record in self.records if not record.ok)

    def failure_summary(self) -> list[dict]:
        """Failures deduplicated by ``(fault kind, normalized message)``.

        A bulk ingestion of 500 captures from one broken logger fails
        500 times with the same story; the summary tells it once, with a
        count and the first few offending source paths.  Source/label
        substrings inside messages are masked so per-path messages from
        the same defect still collapse into one group.
        """
        groups: dict[tuple[str, str], dict] = {}
        for record in self.records:
            if record.ok:
                continue
            message = record.error or ""
            for token in (record.source, record.label):
                if token:
                    message = message.replace(token, "<source>")
            key = (record.error_kind or "unknown", message)
            entry = groups.setdefault(
                key,
                {"error_kind": key[0], "error": message, "count": 0, "sources": []},
            )
            entry["count"] += 1
            if len(entry["sources"]) < 5:
                entry["sources"].append(record.source)
        return sorted(
            groups.values(), key=lambda e: (-e["count"], e["error_kind"], e["error"])
        )

    def to_dict(self) -> dict:
        return {
            "records": [record.to_dict() for record in self.records],
            "n_replayed": self.n_replayed,
            "ok": self.ok,
            "n_failed": self.n_failed,
            "failure_summary": self.failure_summary(),
        }


def _fault_kind(error: ReproError) -> str:
    """Classify a per-source failure for the ingest record/summary.

    :class:`~repro.exceptions.IngestError` carries its own taxonomized
    kind; other ``ReproError`` subclasses (validation gate, calibration,
    configuration) classify by subsystem name.
    """
    kind = getattr(error, "kind", None)
    if isinstance(kind, str) and kind:
        return kind
    name = type(error).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    return name.lower()


def _slug(label: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")
    return slug or "trace"


def _artifact_name(label: str, source: str) -> str:
    """A short artifact/dataset name for one ingested trace.

    File sources are labeled by their full spec path; artifacts take
    the file's stem.  Dataset sources drop the scheme.  Synthetic
    labels (``synthetic[0]`` …) are already short and just get slugged.
    """
    if label == source and "://" not in label:
        return _slug(Path(label).stem)
    if label.startswith("dataset://"):
        return _slug(label[len("dataset://") :])
    return _slug(label)


def ingest_sources(
    sources,
    *,
    out_dir: str | Path | None = None,
    stages=None,
    calibrate: bool = True,
    expected_shape: tuple[int, int] | None = None,
    registry=None,
    register_prefix: str | None = None,
    overwrite: bool = False,
    checkpoint_dir: str | Path | None = None,
    tracer=NULL_TRACER,
    metrics=None,
) -> IngestResult:
    """Ingest every trace each source yields.

    Parameters
    ----------
    sources:
        Source specs (anything :func:`repro.io.open_traces` accepts).
    out_dir:
        Where normalized ``.npz`` artifacts go; ``None`` skips writing.
    stages:
        Preprocessing stages; ``None`` picks
        :func:`repro.io.stages.default_stages` per trace (STO removal
        for real formats, quarantine gate always).
    calibrate:
        Fit a :class:`~repro.io.calibration.CalibrationReport` per
        trace (needs >= 2 antennas; skipped with a note otherwise).
    registry / register_prefix:
        When both are given, each written artifact is registered as
        ``{register_prefix}{label}`` and the manifest saved.
    checkpoint_dir:
        Journal per-source outcomes under this directory; a rerun
        replays finished sources from the journal.

    A source that fails to parse or validate produces a failed record;
    the run continues (bulk ingestion must not die on one bad capture).
    """
    source_list = [str(s) for s in sources]
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    journal = None
    payloads: dict[str, dict] = {}
    keys: list[str] = []
    if checkpoint_dir is not None:
        from repro.runtime.checkpoint import (
            CheckpointJournal,
            CheckpointPolicy,
            config_digest,
            job_key,
        )

        digest = config_digest(
            "ingest", source_list, str(out_dir), calibrate, expected_shape, register_prefix
        )
        keys = [job_key(digest, index, 0, source) for index, source in enumerate(source_list)]
        journal = CheckpointJournal(
            CheckpointPolicy(
                path=Path(checkpoint_dir) / "ingest.jsonl",
                experiment="ingest",
                metrics=metrics,
            )
        )
        payloads = journal.open(config_digest=digest, n_jobs=len(source_list)).payloads

    records: list[IngestRecord] = []
    n_replayed = 0
    counter = metrics.counter("io.ingested_traces") if metrics is not None else None
    failures = metrics.counter("io.ingest_failures") if metrics is not None else None
    try:
        with tracer.span("ingest", n_sources=len(source_list)):
            for index, source in enumerate(source_list):
                if journal is not None:
                    cached = payloads.get(keys[index])
                    if cached is not None:
                        for item in cached["payload"]["records"]:
                            records.append(IngestRecord.from_dict(item))
                        n_replayed += 1
                        continue
                source_records = _ingest_one(
                    source,
                    out_dir=out_dir,
                    stages=stages,
                    calibrate=calibrate,
                    expected_shape=expected_shape,
                    registry=registry,
                    register_prefix=register_prefix,
                    overwrite=overwrite,
                    tracer=tracer,
                )
                for record in source_records:
                    records.append(record)
                    if counter is not None and record.ok:
                        counter.inc()
                    if failures is not None and not record.ok:
                        failures.inc()
                if journal is not None:
                    journal.append(
                        keys[index],
                        {"records": [r.to_dict() for r in source_records]},
                        index=index,
                    )
        if journal is not None:
            journal.finalize()
    finally:
        if journal is not None:
            journal.close()

    if registry is not None and register_prefix is not None:
        registry.save()
    return IngestResult(records=tuple(records), n_replayed=n_replayed)


def _ingest_one(
    source: str,
    *,
    out_dir,
    stages,
    calibrate,
    expected_shape,
    registry,
    register_prefix,
    overwrite,
    tracer,
) -> list["IngestRecord"]:
    """Ingest one source spec; never raises for per-source problems."""
    from repro.io.calibration import fit_calibration
    from repro.io.source import open_traces
    from repro.io.stages import QuarantineGate, default_stages, run_stages

    try:
        pairs = open_traces(source)
    except ReproError as error:
        return [
            IngestRecord(
                label=source,
                source=source,
                ok=False,
                error=f"{type(error).__name__}: {error}",
                error_kind=_fault_kind(error),
            )
        ]

    records: list[IngestRecord] = []
    for label, trace in pairs:
        with tracer.span("ingest_source", source=label) as span:
            try:
                pipeline = (
                    list(stages)
                    if stages is not None
                    else default_stages(trace.source_format)
                )
                if expected_shape is not None:
                    # The shape check must reach the gate even when the
                    # pipeline already carries a default (shapeless) one.
                    pipeline = [
                        s for s in pipeline if not isinstance(s, QuarantineGate)
                    ]
                    pipeline.append(QuarantineGate(expected_shape=expected_shape))
                cleaned, reports = run_stages(trace, pipeline, tracer=tracer)

                # Calibration characterizes the capture as recorded —
                # fit the raw trace, not the cleaned one (the stages
                # remove exactly the impairments being measured).
                calibration = None
                if calibrate and trace.n_antennas >= 2 and trace.n_packets >= 1:
                    calibration = fit_calibration(trace, tracer=tracer).to_dict()
                    calibration["relative_delays_s"] = np.array(calibration["relative_delays_s"])

                output_path = None
                dataset = None
                if out_dir is not None:
                    output_path = str(out_dir / f"{_artifact_name(label, source)}.npz")
                    cleaned.save(output_path)
                    if registry is not None and register_prefix is not None:
                        dataset = f"{register_prefix}{_artifact_name(label, source)}"
                        registry.register(
                            dataset,
                            output_path,
                            format="npz",
                            description=f"ingested from {source}",
                            overwrite=overwrite,
                        )
                span.annotate(ok=True, n_packets=cleaned.n_packets)
                records.append(
                    IngestRecord(
                        label=label,
                        source=source,
                        ok=True,
                        n_packets=cleaned.n_packets,
                        n_antennas=cleaned.n_antennas,
                        n_subcarriers=cleaned.n_subcarriers,
                        source_format=trace.source_format,
                        snr_db=None if np.isnan(cleaned.snr_db) else float(cleaned.snr_db),
                        output_path=output_path,
                        dataset=dataset,
                        stage_reports=[report.to_dict() for report in reports],
                        calibration=calibration,
                    )
                )
            except ReproError as error:
                span.annotate(ok=False)
                records.append(
                    IngestRecord(
                        label=label,
                        source=source,
                        ok=False,
                        source_format=trace.source_format,
                        error=f"{type(error).__name__}: {error}",
                        error_kind=_fault_kind(error),
                    )
                )
    return records
