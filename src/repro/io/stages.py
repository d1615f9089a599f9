"""Pluggable trace preprocessing stages.

Real CSI needs conditioning before any estimator can use it, and which
conditioning depends on the capture: Intel logs want SpotFi's
sampling-time-offset (STO) removal, known-bad boots want a phase
recalibration, everything wants the quarantine gate.  Rather than
baking a fixed cleanup into each parser, preprocessing is a list of
:class:`PreprocessingStage` objects, each mapping ``trace → (trace,
StageReport)``, composed by :func:`run_stages` with one
:mod:`repro.obs` span per stage.

The first-class stages:

* :class:`StoRemoval` — SpotFi Algorithm 1 (SIGCOMM'15): per packet,
  fit one linear phase ramp (slope + intercept) jointly across all
  antennas against the subcarrier index, and subtract it.  The slope is
  the STO/detection-delay ramp that randomizes raw per-packet ToA; the
  intercept removes common phase (CFO residue).  AoA information —
  *differences* between antennas — is untouched because the fit is
  common to all antennas.
* :class:`PhaseOffsetCorrection` — apply known per-antenna offsets
  (e.g. from a :class:`repro.io.calibration.CalibrationReport`).
* :class:`QuarantineGate` — the PR-4 validation gate
  (:func:`repro.faults.validate.sanitize_trace`) as a stage, so
  "parse → despike → validate" is one composable list.

Subcarrier indexing: the Intel 5300 reports 30 of the OFDM grid's raw
subcarriers, non-uniformly grouped.  :func:`subcarrier_indices` gives
the raw index set for a bandwidth/grouping (the 802.11n Ng values), and
:class:`StoRemoval` accepts it so slopes are fitted against the true
frequency positions; synthetic traces use the uniform default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.channel.trace import CsiTrace
from repro.exceptions import ConfigurationError
from repro.obs import NULL_TRACER

#: Frequency step of one *raw* 802.11n subcarrier index (Hz).
RAW_SUBCARRIER_SPACING_HZ = 312.5e3


def subcarrier_indices(bandwidth_mhz: int = 40, grouping: int | None = None) -> np.ndarray:
    """Raw subcarrier indices the Intel 5300 reports CSI for.

    With 802.11n grouping Ng (2 at 20 MHz, 4 at 40 MHz) the NIC reports
    every Ng-th data subcarrier plus the band edges — 30 indices total,
    spaced Ng raw bins apart except at the DC gap and edges.
    """
    if bandwidth_mhz == 20:
        grouping = 2 if grouping is None else grouping
        if grouping != 2:
            raise ConfigurationError(f"20 MHz grouping must be 2, got {grouping}")
        return np.concatenate(
            [np.arange(-28, 0, 2), [-1], np.arange(1, 28, 2), [28]]
        ).astype(float)
    if bandwidth_mhz == 40:
        grouping = 4 if grouping is None else grouping
        if grouping != 4:
            raise ConfigurationError(f"40 MHz grouping must be 4, got {grouping}")
        return np.concatenate(
            [np.arange(-58, -2, 4), [-2], np.arange(2, 58, 4), [58]]
        ).astype(float)
    raise ConfigurationError(f"bandwidth must be 20 or 40 MHz, got {bandwidth_mhz}")


@dataclass(frozen=True)
class StageReport:
    """What one preprocessing stage did to one trace (per-packet ``details`` are arrays)."""

    stage: str
    changed: bool
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**vars(self), "metrics": dict(self.metrics), "details": dict(self.details)}


@runtime_checkable
class PreprocessingStage(Protocol):
    """The stage contract: a pure ``trace → (trace, report)`` map.

    Stages never mutate their input trace; a stage that finds nothing
    to do returns the input object itself with ``report.changed``
    false, so a clean pipeline is a guaranteed no-op (the same
    invariant the PR-4 quarantine gate keeps).
    """

    name: str

    def apply(self, trace: CsiTrace) -> tuple[CsiTrace, StageReport]: ...


def _unwrap_phases(csi: np.ndarray) -> np.ndarray:
    """Per-antenna unwrapped phase, anchored within π of antenna 0.

    ``csi`` is a ``(packets, antennas, subcarriers)`` stack.  Unwrapping
    runs along the subcarrier axis; each antenna's whole curve is then
    shifted by a multiple of 2π so its first subcarrier lands within π
    of the first antenna's — the cross-antenna branch alignment
    SpotFi's reference implementation applies before the joint fit.
    """
    phases = np.unwrap(np.angle(csi), axis=-1)
    first = phases[:, :, :1]
    shift = np.round((first - first[:, :1]) / (2 * np.pi)) * 2 * np.pi
    return phases - shift


def fit_phase_slopes(csi: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint LS fit, per packet, of one common slope + per-antenna intercepts.

    ``csi`` is a ``(packets, antennas, subcarriers)`` stack; the model
    for packet ``p`` is ``phase[p, m, l] = slope[p]·indices[l] +
    intercept[p, m]``.  Returns ``(slopes, intercepts)`` of shapes
    ``(packets,)`` and ``(packets, antennas)``, in radians (per raw
    index, and absolute).
    """
    phases = _unwrap_phases(csi)
    n_packets, n_antennas, n_subcarriers = phases.shape
    centered_idx = indices - indices.mean()
    means = phases.mean(axis=2, keepdims=True)
    # With per-antenna intercepts free, the joint-LS slope decouples:
    # it is the pooled covariance over centered indices.
    deviations = (phases - means) * centered_idx
    covariance = deviations.reshape(n_packets, n_antennas * n_subcarriers).sum(axis=1)
    slopes = covariance / (n_antennas * np.sum(centered_idx**2))
    intercepts = means[:, :, 0] - slopes[:, None] * indices.mean()
    return slopes, intercepts


def fit_phase_slope(csi: np.ndarray, indices: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`fit_phase_slopes` for one ``(antennas, subcarriers)`` packet."""
    slopes, intercepts = fit_phase_slopes(csi[None], indices)
    return float(slopes[0]), intercepts[0]


@dataclass(frozen=True)
class StoRemoval:
    """SpotFi Algorithm 1: remove the common linear phase ramp.

    Attributes
    ----------
    indices:
        Raw subcarrier indices of each reported subcarrier (see
        :func:`subcarrier_indices`); ``None`` means a uniform grid,
        correct for synthetic traces and ``.npz`` fixtures.
    index_spacing_hz:
        Frequency step of one index unit — converts fitted slopes to
        delays for the report.  The uniform default matches the
        synthetic Intel layout (1.25 MHz between reported subcarriers);
        raw-index sets use :data:`RAW_SUBCARRIER_SPACING_HZ`.
    remove_intercept:
        Also subtract the per-packet common phase (CFO residue).  The
        subtraction is antenna-common either way, so AoA is unaffected.
    """

    indices: np.ndarray | None = None
    index_spacing_hz: float = 1.25e6
    remove_intercept: bool = True
    name: str = "sto-removal"

    @classmethod
    def for_bandwidth(cls, bandwidth_mhz: int, **kwargs) -> "StoRemoval":
        """The stage for a real Intel capture at 20 or 40 MHz."""
        return cls(
            indices=subcarrier_indices(bandwidth_mhz),
            index_spacing_hz=RAW_SUBCARRIER_SPACING_HZ,
            **kwargs,
        )

    def _indices_for(self, trace: CsiTrace) -> np.ndarray:
        if self.indices is None:
            return np.arange(trace.n_subcarriers, dtype=float)
        indices = np.asarray(self.indices, dtype=float)
        if indices.shape != (trace.n_subcarriers,):
            raise ConfigurationError(
                f"stage has {indices.size} subcarrier indices but the trace "
                f"has {trace.n_subcarriers} subcarriers"
            )
        return indices

    def apply(self, trace: CsiTrace) -> tuple[CsiTrace, StageReport]:
        indices = self._indices_for(trace)
        slopes, intercepts = fit_phase_slopes(trace.csi, indices)
        ramps = slopes[:, None] * indices
        if self.remove_intercept:
            ramps = ramps + intercepts.mean(axis=1, keepdims=True)
        delays_ns = -slopes / (2 * np.pi * self.index_spacing_hz) * 1e9
        report = StageReport(
            stage=self.name,
            changed=bool(np.any(ramps != 0.0)),
            metrics={
                "max_abs_slope_rad": float(np.max(np.abs(slopes), initial=0.0)),
                "mean_delay_ns": float(np.mean(delays_ns)) if slopes.size else 0.0,
                "delay_spread_ns": float(np.ptp(delays_ns)) if slopes.size else 0.0,
            },
            details={"slopes_rad": slopes, "delays_ns": delays_ns},
        )
        if not report.changed:
            return trace, report
        return replace(trace, csi=trace.csi * np.exp(-1j * ramps)[:, None, :]), report


@dataclass(frozen=True)
class PhaseOffsetCorrection:
    """Undo known per-antenna phase offsets (paper §III-D calibration)."""

    offsets_rad: tuple[float, ...]
    name: str = "phase-offset-correction"

    def apply(self, trace: CsiTrace) -> tuple[CsiTrace, StageReport]:
        from repro.core.calibration import apply_phase_calibration

        offsets = np.asarray(self.offsets_rad, dtype=float)
        report = StageReport(
            stage=self.name,
            changed=bool(np.any(offsets != 0.0)),
            metrics={"max_abs_offset_rad": float(np.max(np.abs(offsets), initial=0.0))},
            details={"offsets_rad": offsets.tolist()},
        )
        if not report.changed:
            return trace, report
        return replace(trace, csi=apply_phase_calibration(trace.csi, offsets)), report


@dataclass(frozen=True)
class QuarantineGate:
    """The PR-4 validation gate as a composable stage."""

    expected_shape: tuple[int, int] | None = None
    name: str = "quarantine-gate"

    def apply(self, trace: CsiTrace) -> tuple[CsiTrace, StageReport]:
        from repro.faults.validate import sanitize_trace

        cleaned, validation = sanitize_trace(trace, expected_shape=self.expected_shape)
        report = StageReport(
            stage=self.name,
            changed=cleaned is not trace,
            metrics={
                "n_quarantined": float(validation.n_quarantined),
                "n_defects": float(len(validation.defects)),
            },
            details=validation.to_dict(),
        )
        return cleaned, report


def run_stages(
    trace: CsiTrace,
    stages: Iterable[PreprocessingStage],
    *,
    tracer=NULL_TRACER,
) -> tuple[CsiTrace, list[StageReport]]:
    """Apply ``stages`` in order, spanning each one.

    Returns the final trace and one report per stage.  An empty stage
    list is the identity (the input object comes back untouched).
    """
    reports: list[StageReport] = []
    for stage in stages:
        with tracer.span("preprocess", stage=stage.name) as span:
            trace, report = stage.apply(trace)
            span.annotate(changed=report.changed, **report.metrics)
        reports.append(report)
    return trace, reports


def default_stages(source_format: str) -> list[PreprocessingStage]:
    """The recommended pipeline for a trace of the given provenance.

    Real captures get STO removal (raw-index grid for Intel logs,
    SpotFi's 20 MHz convention for ``.mat`` samples) followed by the
    quarantine gate; synthetic/unknown traces get the gate only, since
    the simulator's detection delay is itself part of what experiments
    study.
    """
    if source_format == "intel-dat":
        return [StoRemoval.for_bandwidth(40), QuarantineGate()]
    if source_format == "spotfi-mat":
        return [StoRemoval.for_bandwidth(20), QuarantineGate()]
    return [QuarantineGate()]
