"""``repro.io`` — real-capture ingestion and unified trace sources.

This package is the only way traces enter the system:

* :func:`open_trace` / :func:`open_traces` — the front door.  One
  source spec grammar (file path, ``dataset://name``,
  ``synthetic://scenario?params``) resolves everywhere a trace is
  accepted: ``CsiTrace.load``, every CLI subcommand, every experiment
  driver.
* Format parsers — Intel 5300 ``.dat`` logs (:mod:`repro.io.intel`,
  scaled-CSI + spatial-mapping correction), SpotFi ``.mat`` captures
  (:mod:`repro.io.matio`) and the native ``.npz`` archives
  (:mod:`repro.io.npzio`).
* Preprocessing stages (:mod:`repro.io.stages`) — the
  ``PreprocessingStage`` protocol with SpotFi STO/phase-slope removal,
  phase-offset correction and the PR-4 quarantine gate as composable
  stages.
* The dataset registry (:mod:`repro.io.registry`) — named, checksummed
  captures with AP geometry and site-survey ground truth.
* Calibration fitting (:mod:`repro.io.calibration`) — estimate the
  impairment parameters the simulator assumes, as a JSON-round-tripping
  :class:`CalibrationReport`.
* The ingestion pipeline (:mod:`repro.io.ingest`) behind ``roarray
  ingest``: parse → stages → validate → calibrate → normalized ``.npz``
  → registry, checkpointable and fully spanned.
* Byte-level fault injection (:mod:`repro.io.bytefaults`) — seeded
  wire-format corruption (truncation, bit rot, hostile length fields,
  duplicated/garbage frames) driving the adversarial-ingestion fuzz
  harness that proves every parser fails closed with a taxonomized
  :class:`~repro.exceptions.IngestError`.
"""

from repro.io.bytefaults import (
    BYTE_FAULT_CATALOGUE,
    BitFlips,
    ByteFault,
    FrameDuplication,
    GarbageInsertion,
    LengthFieldCorruption,
    Truncation,
    corrupt_bytes,
    fuzz_corpus,
)
from repro.io.calibration import CalibrationReport, fit_calibration
from repro.io.ingest import IngestRecord, IngestResult, ingest_sources
from repro.io.intel import read_intel_dat, write_intel_dat
from repro.io.matio import read_spotfi_mat
from repro.io.npzio import read_npz_trace
from repro.io.registry import DatasetEntry, DatasetRegistry, file_sha256
from repro.io.source import (
    FILE_FORMATS,
    TraceSource,
    open_trace,
    open_traces,
    resolve_source,
    sniff_format,
)
from repro.io.stages import (
    PhaseOffsetCorrection,
    PreprocessingStage,
    QuarantineGate,
    StageReport,
    StoRemoval,
    default_stages,
    run_stages,
    subcarrier_indices,
)
from repro.io.synthetic import scenario_band, synthesize_from_spec

__all__ = [
    "BYTE_FAULT_CATALOGUE",
    "BitFlips",
    "ByteFault",
    "CalibrationReport",
    "DatasetEntry",
    "DatasetRegistry",
    "FILE_FORMATS",
    "FrameDuplication",
    "GarbageInsertion",
    "IngestRecord",
    "IngestResult",
    "LengthFieldCorruption",
    "PhaseOffsetCorrection",
    "PreprocessingStage",
    "QuarantineGate",
    "StageReport",
    "StoRemoval",
    "TraceSource",
    "Truncation",
    "corrupt_bytes",
    "default_stages",
    "fuzz_corpus",
    "file_sha256",
    "fit_calibration",
    "ingest_sources",
    "open_trace",
    "open_traces",
    "read_intel_dat",
    "read_npz_trace",
    "read_spotfi_mat",
    "resolve_source",
    "scenario_band",
    "sniff_format",
    "subcarrier_indices",
    "synthesize_from_spec",
    "write_intel_dat",
]
