"""Fit the simulator's impairment parameters from a capture.

The synthetic channel (:class:`repro.channel.impairments.ImpairmentModel`)
*assumes* numbers for the Intel 5300's hardware quirks — detection-delay
range, per-boot antenna phase offsets, CFO residue.  This module closes
the loop: given a real (or synthetic) trace it *estimates* those same
parameters, so the assumptions can be checked against hardware and the
simulator re-fit to a specific testbed.

The estimator is the same joint linear-phase model SpotFi's Algorithm 1
removes (:func:`repro.io.stages.fit_phase_slopes`): per packet, one
common slope plus per-antenna intercepts.

* The slope is ``−2π·Δf·(detection delay + direct ToA)``.  The static
  ToA part is common to every packet of a static link, so *relative*
  per-packet delays (minimum subtracted) estimate the detection-delay
  jitter — the absolute delay is unobservable on this hardware, which
  is exactly the paper's §V argument for not using raw ToA as range.
* Intercept differences between antennas estimate the per-boot phase
  offsets (antenna 0 as reference, matching
  ``ImpairmentModel.draw_phase_offsets``); their per-packet scatter
  bounds how well a static offset explains the data.
* The packet-to-packet scatter of the reference intercept estimates the
  residual CFO phase.

Everything lands in a :class:`CalibrationReport` that round-trips to
JSON and converts back into an :class:`ImpairmentModel` /
:class:`~repro.io.stages.PhaseOffsetCorrection`, with spans and metrics
via :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.trace import CsiTrace
from repro.exceptions import CalibrationError
from repro.io.stages import fit_phase_slopes
from repro.obs import NULL_TRACER


def _wrap_pi(angle: np.ndarray) -> np.ndarray:
    """Wrap radians into (−π, π]."""
    return np.angle(np.exp(1j * np.asarray(angle, dtype=float)))


@dataclass(frozen=True)
class CalibrationReport:
    """Estimated impairment parameters for one capture.

    Attributes
    ----------
    n_packets / n_antennas:
        Shape of the fitted trace.
    relative_delays_s:
        Per-packet detection delay relative to the luckiest packet
        (minimum subtracted; the absolute delay is unobservable).
    detection_delay_range_s:
        Spread of the relative delays — the direct counterpart of
        ``ImpairmentModel.detection_delay_range_s``.
    sfo_std_s:
        Standard deviation of the relative delays.
    phase_offsets_rad:
        Per-antenna phase offsets, antenna 0 = 0 (reference).
    phase_offset_stability_rad:
        Largest per-antenna circular std of the offset across packets;
        small means "static per-boot offset" is a good model.
    cfo_residual_rad:
        Half-range of the per-packet common phase about its mean.
    source / ap_id:
        Provenance, carried into the JSON report.
    """

    n_packets: int
    n_antennas: int
    relative_delays_s: tuple[float, ...]
    detection_delay_range_s: float
    sfo_std_s: float
    phase_offsets_rad: tuple[float, ...]
    phase_offset_stability_rad: float
    cfo_residual_rad: float
    source: str = ""
    ap_id: str = ""
    metrics: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "relative_delays_s": list(self.relative_delays_s),
            "phase_offsets_rad": list(self.phase_offsets_rad),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationReport":
        return cls(
            n_packets=int(payload["n_packets"]),
            n_antennas=int(payload["n_antennas"]),
            relative_delays_s=tuple(float(v) for v in payload["relative_delays_s"]),
            detection_delay_range_s=float(payload["detection_delay_range_s"]),
            sfo_std_s=float(payload["sfo_std_s"]),
            phase_offsets_rad=tuple(float(v) for v in payload["phase_offsets_rad"]),
            phase_offset_stability_rad=float(payload["phase_offset_stability_rad"]),
            cfo_residual_rad=float(payload["cfo_residual_rad"]),
            source=str(payload.get("source", "")),
            ap_id=str(payload.get("ap_id", "")),
            metrics={k: float(v) for k, v in payload.get("metrics", {}).items()},
        )

    def to_impairment_model(self, **overrides):
        """An :class:`ImpairmentModel` with the fitted parameters.

        The fitted detection-delay range, SFO jitter and CFO residue
        replace the simulator defaults; ``phase_offset_std_rad`` is set
        positive iff a nonzero offset was measured (the model draws
        offsets per boot rather than taking them verbatim — for the
        measured offsets themselves use :meth:`to_correction_stage`).
        """
        from repro.channel.impairments import ImpairmentModel

        fitted = {
            "detection_delay_range_s": self.detection_delay_range_s,
            "sfo_std_s": self.sfo_std_s,
            "cfo_residual_rad": self.cfo_residual_rad,
            "phase_offset_std_rad": (
                1.0 if any(abs(o) > 1e-9 for o in self.phase_offsets_rad) else 0.0
            ),
        }
        fitted.update(overrides)
        return ImpairmentModel(**fitted)

    def to_correction_stage(self):
        """A :class:`~repro.io.stages.PhaseOffsetCorrection` undoing the fit."""
        from repro.io.stages import PhaseOffsetCorrection

        return PhaseOffsetCorrection(offsets_rad=self.phase_offsets_rad)


def fit_calibration(
    trace: CsiTrace,
    *,
    indices: np.ndarray | None = None,
    index_spacing_hz: float = 1.25e6,
    tracer=NULL_TRACER,
    metrics=None,
) -> CalibrationReport:
    """Estimate impairment parameters from a trace.

    ``indices`` / ``index_spacing_hz`` follow the
    :class:`~repro.io.stages.StoRemoval` conventions (uniform synthetic
    grid by default; pass :func:`~repro.io.stages.subcarrier_indices`
    and the raw spacing for real Intel captures).
    """
    if trace.n_packets < 1:
        raise CalibrationError("cannot calibrate an empty trace")
    if trace.n_antennas < 2:
        raise CalibrationError(
            f"phase-offset calibration needs >= 2 antennas, got {trace.n_antennas}"
        )
    if indices is None:
        indices = np.arange(trace.n_subcarriers, dtype=float)
    indices = np.asarray(indices, dtype=float)

    with tracer.span("calibration_fit", n_packets=trace.n_packets) as span:
        slopes, intercepts = fit_phase_slopes(trace.csi, indices)

        delays = -slopes / (2 * np.pi * index_spacing_hz)
        relative = delays - delays.min()

        # Per-antenna offsets relative to antenna 0, averaged on the
        # circle so a packet near the ±π branch cut cannot bias the mean.
        offset_samples = _wrap_pi(intercepts - intercepts[:, :1])
        mean_vectors = np.mean(np.exp(1j * offset_samples), axis=0)
        offsets = np.angle(mean_vectors)
        # Circular std per antenna; 0 when every packet agrees exactly.
        resultants = np.minimum(np.abs(mean_vectors), 1.0)
        stability = float(np.max(np.sqrt(np.maximum(-2.0 * np.log(
            np.where(resultants > 0, resultants, np.finfo(float).tiny)
        ), 0.0))))

        common = _wrap_pi(intercepts[:, 0] - np.angle(np.mean(np.exp(1j * intercepts[:, 0]))))
        cfo = float(np.max(np.abs(common))) if trace.n_packets > 1 else 0.0

        report = CalibrationReport(
            n_packets=trace.n_packets,
            n_antennas=trace.n_antennas,
            relative_delays_s=tuple(float(v) for v in relative),
            detection_delay_range_s=float(np.ptp(relative)),
            sfo_std_s=float(np.std(relative)),
            phase_offsets_rad=tuple(float(v) for v in offsets),
            phase_offset_stability_rad=stability,
            cfo_residual_rad=cfo,
            source=trace.source_format,
            ap_id=trace.ap_id,
            metrics={
                "mean_relative_delay_ns": float(np.mean(relative) * 1e9),
                "max_abs_phase_offset_rad": float(np.max(np.abs(offsets))),
            },
        )
        span.annotate(
            detection_delay_range_ns=report.detection_delay_range_s * 1e9,
            cfo_residual_rad=report.cfo_residual_rad,
        )
    if metrics is not None:
        metrics.counter("io.calibration_fits").inc()
        metrics.gauge("io.calibration_delay_range_ns").set(
            report.detection_delay_range_s * 1e9
        )
    return report
