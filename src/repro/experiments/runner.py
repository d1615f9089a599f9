"""Per-figure experiment drivers.

Every figure in the paper's evaluation maps to one function here:

====================  ====================================================
paper Fig. 2          :func:`run_music_snr_experiment`
paper Fig. 3          :func:`run_iteration_progress_experiment`
paper Fig. 4          :func:`run_fusion_experiment`
paper Figs. 6 & 7     :func:`run_snr_band_experiment`
paper Fig. 8a         :func:`run_ap_density_experiment`
paper Fig. 8b         :func:`run_calibration_experiment`
paper Fig. 8c         :func:`run_polarization_experiment`
====================  ====================================================

All drivers are deterministic given their ``seed`` and share the same
synthetic classroom substrate; the three systems always see the *same*
traces ("All three methods share the same data", §IV-B).

The spot-sweep drivers (Figs. 6/7, 8a, 8c) accept a ``workers``
argument and fan their per-trace ``analyze`` calls out through
:class:`~repro.runtime.batch.BatchEvaluator`.  Trace synthesis stays on
the driver's single RNG stream (so the data is identical for any worker
count), and the analyses are pure functions of the traces, so every
result is byte-identical to the ``workers=0`` sequential path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.baselines.arraytrack import ArrayTrackEstimator
from repro.baselines.spotfi import SpotFiEstimator
from repro.channel.array import UniformLinearArray
from repro.channel.csi import CsiSynthesizer
from repro.channel.geometry import Scene
from repro.channel.impairments import ImpairmentModel
from repro.channel.ofdm import intel5300_layout
from repro.channel.trace import CsiTrace
from repro.core.calibration import apply_phase_calibration, calibrate_phase_offsets
from repro.core.config import RoArrayConfig
from repro.core.direct_path import ApAnalysis
from repro.core.grids import AngleGrid, DelayGrid
from repro.core.localization import ApObservation, localize_weighted_aoa
from repro.core.pipeline import RoArrayEstimator
from repro.exceptions import ConfigurationError
from repro.experiments.metrics import ErrorCdf
from repro.experiments.scenarios import SNR_BANDS, SnrBand, build_random_scene
from repro.obs import NULL_TRACER
from repro.spectral.spectrum import AngleSpectrum, JointSpectrum


class ApSystem(Protocol):
    """The interface every compared system implements."""

    name: str

    def analyze(self, trace: CsiTrace) -> ApAnalysis: ...


def evaluation_roarray_config() -> RoArrayConfig:
    """The ROArray working point used throughout the evaluation.

    Matches the paper's reported joint-grid size (§III-C: Nθ = 90,
    Nτ = 50) up to the inclusive endpoint; solver/peak tunables are the
    library defaults (see :class:`repro.core.config.RoArrayConfig`).
    """
    return RoArrayConfig(
        angle_grid=AngleGrid(n_points=91),
        delay_grid=DelayGrid(n_points=50),
    )


def default_systems() -> list[ApSystem]:
    """The paper's three-way comparison set on identical hardware models."""
    return [
        RoArrayEstimator(config=evaluation_roarray_config()),
        SpotFiEstimator(),
        ArrayTrackEstimator(),
    ]


# ---------------------------------------------------------------------------
# Figs. 6 & 7 — localization and AoA error across SNR bands
# ---------------------------------------------------------------------------


@dataclass
class LocalizationOutcome:
    """One system's result at one test location."""

    location_error_m: float
    direct_aoa_errors_deg: list[float]
    closest_aoa_errors_deg: list[float]

    def to_dict(self) -> dict:
        """JSON-ready view (round-trips through :meth:`from_dict`)."""
        return {
            "location_error_m": self.location_error_m,
            "direct_aoa_errors_deg": list(self.direct_aoa_errors_deg),
            "closest_aoa_errors_deg": list(self.closest_aoa_errors_deg),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LocalizationOutcome":
        return cls(
            location_error_m=float(payload["location_error_m"]),
            direct_aoa_errors_deg=[float(e) for e in payload["direct_aoa_errors_deg"]],
            closest_aoa_errors_deg=[float(e) for e in payload["closest_aoa_errors_deg"]],
        )


#: The error distributions one band result can produce, keyed by the
#: ``kind`` argument of :meth:`SnrBandResult.cdf`.
CDF_KINDS = ("localization", "aoa", "direct_aoa")


@dataclass
class SnrBandResult:
    """All systems' outcomes over one SNR band's test locations."""

    band: str
    outcomes: dict[str, list[LocalizationOutcome]] = field(default_factory=dict)

    def cdf(self, system: str, kind: str = "localization") -> ErrorCdf:
        """One system's error distribution.

        ``kind`` selects what the paper's figures plot:

        * ``"localization"`` — Fig. 6, location error (meters).
        * ``"aoa"`` — Fig. 7, closest-peak AoA error per AP (degrees).
        * ``"direct_aoa"`` — AoA error of the *chosen* direct path
          (stricter than Fig. 7).
        """
        outcomes = self.outcomes[system]
        if kind == "localization":
            return ErrorCdf(np.array([o.location_error_m for o in outcomes]))
        if kind == "aoa":
            return ErrorCdf(np.array([e for o in outcomes for e in o.closest_aoa_errors_deg]))
        if kind == "direct_aoa":
            return ErrorCdf(np.array([e for o in outcomes for e in o.direct_aoa_errors_deg]))
        raise ConfigurationError(f"kind must be one of {CDF_KINDS}, got {kind!r}")

    def to_dict(self) -> dict:
        """JSON-ready view (round-trips through :meth:`from_dict`)."""
        return {
            "band": self.band,
            "outcomes": {
                system: [o.to_dict() for o in outcomes]
                for system, outcomes in self.outcomes.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SnrBandResult":
        return cls(
            band=payload["band"],
            outcomes={
                system: [LocalizationOutcome.from_dict(o) for o in outcomes]
                for system, outcomes in payload["outcomes"].items()
            },
        )


def _scene_traces(
    scene: Scene,
    *,
    snr_db_per_ap: list[float],
    n_packets: int,
    impairments: ImpairmentModel,
    rng: np.random.Generator,
    boot_seed: int,
    blockage_db_per_ap: list[float] | None = None,
) -> list[CsiTrace]:
    """Synthesize one trace per AP for a scene (shared by all systems)."""
    array = UniformLinearArray()
    layout = intel5300_layout()
    traces = []
    for index in range(len(scene.access_points)):
        profile = scene.multipath_profile(index, layout.wavelength)
        if blockage_db_per_ap is not None:
            profile = profile.with_direct_attenuation(blockage_db_per_ap[index])
        synthesizer = CsiSynthesizer(array, layout, impairments, seed=boot_seed + index)
        traces.append(
            synthesizer.packets(
                profile, n_packets=n_packets, snr_db=snr_db_per_ap[index], rng=rng
            )
        )
    return traces


def _batch_analyses(
    system: ApSystem,
    traces: list[CsiTrace],
    *,
    workers: int,
    base_seed: int = 0,
    tracer=NULL_TRACER,
    checkpoint=None,
    report_sink: list | None = None,
) -> list[ApAnalysis]:
    """Analyze a flat trace list through the batch runtime.

    ``workers=0`` is in-process sequential; any failure is re-raised
    (matching the old inline-loop semantics, where a solver error
    propagated out of the driver).

    ``checkpoint`` is a :class:`repro.runtime.CheckpointPolicy`; with
    it, completed analyses are journaled as they finish and a rerun of
    the same driver resumes instead of recomputing (see
    :meth:`repro.runtime.BatchEvaluator.evaluate`).  ``report_sink``,
    when given, receives the batch's
    :class:`~repro.runtime.report.RuntimeReport` (replay counts
    included) so drivers can surface resume progress.
    """
    from repro.runtime.batch import BatchEvaluator

    evaluator = BatchEvaluator(system, workers=workers, base_seed=base_seed, tracer=tracer)
    result = evaluator.evaluate(traces, checkpoint=checkpoint)
    if report_sink is not None:
        report_sink.append(result.report)
    return result.strict_analyses()


def _journal_policy(checkpoint_dir, name: str, experiment: str, metrics=None):
    """A per-sweep :class:`~repro.runtime.CheckpointPolicy`, or ``None``."""
    if checkpoint_dir is None:
        return None
    from pathlib import Path

    from repro.runtime.checkpoint import CheckpointPolicy

    return CheckpointPolicy(
        path=Path(checkpoint_dir) / f"{name}.jsonl", experiment=experiment, metrics=metrics
    )


def _localize_from_analyses(
    scene: Scene,
    traces: list[CsiTrace],
    analyses: list[ApAnalysis],
    resolution_m: float,
    tracer=NULL_TRACER,
) -> LocalizationOutcome:
    with tracer.span("localization", n_aps=len(traces)) as span:
        observations = [
            ApObservation(
                access_point=scene.access_points[i],
                aoa_deg=analyses[i].direct.aoa_deg,
                rssi_dbm=traces[i].rssi_dbm,
            )
            for i in range(len(traces))
        ]
        located = localize_weighted_aoa(observations, scene.room, resolution_m=resolution_m)
        truths = [scene.ground_truth_aoa(i) for i in range(len(traces))]
        outcome = LocalizationOutcome(
            location_error_m=located.error_to(scene.client),
            direct_aoa_errors_deg=[abs(a.direct.aoa_deg - t) for a, t in zip(analyses, truths)],
            closest_aoa_errors_deg=[a.closest_aoa_error(t) for a, t in zip(analyses, truths)],
        )
        span.annotate(location_error_m=outcome.location_error_m)
    return outcome


def run_snr_band_experiment(
    band: SnrBand | str,
    *,
    n_locations: int = 20,
    n_packets: int = 15,
    n_aps: int = 6,
    seed: int = 0,
    systems: list[ApSystem] | None = None,
    impairments: ImpairmentModel | None = None,
    resolution_m: float = 0.1,
    workers: int = 0,
    tracer=NULL_TRACER,
    checkpoint_dir=None,
) -> SnrBandResult:
    """Paper Figs. 6 & 7: the three-system comparison in one SNR band.

    Every location gets a fresh random scene; all systems analyze the
    *same* traces (15 packets per AP by default, as in §IV-B).  With
    ``workers > 0`` the per-trace analyses fan out over that many
    processes; the result is identical for any worker count.

    ``checkpoint_dir`` makes the sweep durable: each system's batch
    journals its per-trace analyses to
    ``<checkpoint_dir>/snr_band_<band>_<system>.jsonl``, so a killed
    run resumes where it stopped and produces byte-identical results
    (trace synthesis is cheap and deterministic; only the analyses are
    journaled).
    """
    if isinstance(band, str):
        band = SNR_BANDS[band]
    if n_locations < 1:
        raise ConfigurationError(f"n_locations must be >= 1, got {n_locations}")
    systems = systems if systems is not None else default_systems()
    impairments = impairments or ImpairmentModel()
    rng = np.random.default_rng(seed)

    # Synthesis first, on the single driver RNG stream (order unchanged
    # from the fused loop this replaces), so batching cannot change the
    # data any system sees.
    with tracer.span(
        "experiment", name="snr_band", band=band.name, n_locations=n_locations
    ):
        scenes: list[Scene] = []
        traces_per_location: list[list[CsiTrace]] = []
        with tracer.span("synthesis", n_locations=n_locations, n_aps=n_aps):
            for location in range(n_locations):
                scene = build_random_scene(rng, n_aps=n_aps)
                snrs = [band.draw(rng) for _ in range(n_aps)]
                blockages = [band.draw_blockage(rng) for _ in range(n_aps)]
                scenes.append(scene)
                traces_per_location.append(
                    _scene_traces(
                        scene,
                        snr_db_per_ap=snrs,
                        n_packets=n_packets,
                        impairments=impairments,
                        rng=rng,
                        boot_seed=seed * 10_000 + location * 100,
                        blockage_db_per_ap=blockages,
                    )
                )

        flat_traces = [trace for traces in traces_per_location for trace in traces]
        result = SnrBandResult(band=band.name, outcomes={s.name: [] for s in systems})
        for system in systems:
            with tracer.span("system", name=system.name):
                flat_analyses = _batch_analyses(
                    system,
                    flat_traces,
                    workers=workers,
                    base_seed=seed,
                    tracer=tracer,
                    checkpoint=_journal_policy(
                        checkpoint_dir,
                        f"snr_band_{band.name}_{system.name}",
                        f"snr_band:{band.name}:{system.name}",
                    ),
                )
                for location in range(n_locations):
                    analyses = flat_analyses[location * n_aps : (location + 1) * n_aps]
                    result.outcomes[system.name].append(
                        _localize_from_analyses(
                            scenes[location],
                            traces_per_location[location],
                            analyses,
                            resolution_m,
                            tracer=tracer,
                        )
                    )
    return result


# ---------------------------------------------------------------------------
# Fig. 2 — MUSIC (SpotFi) spectra vs SNR
# ---------------------------------------------------------------------------


@dataclass
class SpectrumSnrPoint:
    """One Fig. 2 panel: a spectrum at one SNR and its quality metrics."""

    snr_db: float
    spectrum: AngleSpectrum
    closest_peak_error_deg: float
    sharpness: float

    def to_dict(self) -> dict:
        """JSON-ready view (round-trips through :meth:`from_dict`)."""
        return {
            "snr_db": self.snr_db,
            "spectrum": self.spectrum.to_dict(),
            "closest_peak_error_deg": self.closest_peak_error_deg,
            "sharpness": self.sharpness,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpectrumSnrPoint":
        return cls(
            snr_db=float(payload["snr_db"]),
            spectrum=AngleSpectrum.from_dict(payload["spectrum"]),
            closest_peak_error_deg=float(payload["closest_peak_error_deg"]),
            sharpness=float(payload["sharpness"]),
        )


def snr_coupled_blockage_db(snr_db: float) -> float:
    """Direct-path blockage implied by a link's SNR.

    Low SNR and NLoS obstruction co-occur physically (paper §V); this
    deterministic coupling — 0 dB blockage above 12 dB SNR, growing
    0.8 dB per dB below it, capped at 12 dB — is the single-link
    analogue of the per-band blockage draw in
    :data:`repro.experiments.scenarios.SNR_BANDS`.
    """
    return float(min(max(0.0, (12.0 - snr_db) * 0.8), 12.0))


def run_music_snr_experiment(
    *,
    snrs_db: tuple[float, ...] = (18.0, 7.0, 2.0, -2.0),
    true_aoa_deg: float = 150.0,
    n_packets: int = 15,
    seed: int = 0,
    system: ApSystem | None = None,
    tracer=NULL_TRACER,
) -> list[SpectrumSnrPoint]:
    """Paper Fig. 2: SpotFi's AoA spectrum degrading as SNR drops.

    The direct path is pinned at 150° (as in the paper); the same
    multipath profile is replayed at each SNR, with the SNR-coupled
    direct-path blockage of :func:`snr_coupled_blockage_db` applied so
    the low-SNR panels are low-SNR for the physical reason real links
    are.  Pass ``system`` to replay the experiment with a different
    estimator (e.g. ROArray, for the side-by-side robustness
    demonstration).
    """
    from repro.channel.paths import random_profile

    estimator = system or SpotFiEstimator()
    array = UniformLinearArray()
    layout = intel5300_layout()
    rng = np.random.default_rng(seed)
    profile = random_profile(rng, n_paths=5, direct_aoa_deg=true_aoa_deg)
    synthesizer = CsiSynthesizer(array, layout, seed=seed)

    points = []
    with tracer.span("experiment", name="music_snr", system=estimator.name):
        for snr_db in snrs_db:
            with tracer.span("aoa_spectrum", snr_db=snr_db):
                blocked = profile.with_direct_attenuation(snr_coupled_blockage_db(snr_db))
                trace = synthesizer.packets(blocked, n_packets=n_packets, snr_db=snr_db, rng=rng)
                spectrum = estimator.aoa_spectrum(trace).normalized()
            points.append(
                SpectrumSnrPoint(
                    snr_db=snr_db,
                    spectrum=spectrum,
                    closest_peak_error_deg=spectrum.closest_peak_error(
                        true_aoa_deg, max_peaks=5, min_relative_height=0.2
                    ),
                    sharpness=spectrum.sharpness(),
                )
            )
    return points


# ---------------------------------------------------------------------------
# Fig. 3 — spectrum vs solver iterations
# ---------------------------------------------------------------------------


@dataclass
class IterationProgressPoint:
    """One Fig. 3 panel: the sparse spectrum after a given iteration count."""

    iterations: int
    spectrum: AngleSpectrum
    closest_peak_error_deg: float
    sharpness: float

    def to_dict(self) -> dict:
        """JSON-ready view (round-trips through :meth:`from_dict`)."""
        return {
            "iterations": self.iterations,
            "spectrum": self.spectrum.to_dict(),
            "closest_peak_error_deg": self.closest_peak_error_deg,
            "sharpness": self.sharpness,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IterationProgressPoint":
        return cls(
            iterations=int(payload["iterations"]),
            spectrum=AngleSpectrum.from_dict(payload["spectrum"]),
            closest_peak_error_deg=float(payload["closest_peak_error_deg"]),
            sharpness=float(payload["sharpness"]),
        )


def run_iteration_progress_experiment(
    *,
    iteration_counts: tuple[int, ...] = (3, 6, 9, 14),
    true_aoa_deg: float = 150.0,
    snr_db: float = 10.0,
    seed: int = 0,
    tracer=NULL_TRACER,
) -> list[IterationProgressPoint]:
    """Paper Fig. 3: the AoA spectrum sharpening as the solver iterates.

    Replays Eq. 7/11 exactly as the figure depicts it: a *single*
    narrowband measurement vector (one subcarrier of one packet) of a
    two-path channel, solved with hard iteration caps.  The iterates are
    feasible throughout, so early caps give blunt-but-usable spectra —
    the property the paper highlights about convex iterative solvers.
    """
    from repro.channel.paths import random_profile
    from repro.core.aoa import estimate_aoa_spectrum

    array = UniformLinearArray()
    layout = intel5300_layout()
    rng = np.random.default_rng(seed)
    profile = random_profile(
        rng, n_paths=2, direct_aoa_deg=true_aoa_deg, reflection_power_db=-6.0
    )
    synthesizer = CsiSynthesizer(array, layout, seed=seed)
    trace = synthesizer.packets(profile, n_packets=1, snr_db=snr_db, rng=rng)
    snapshot = trace.csi[0][:, 0]  # one packet, one subcarrier (Eq. 7)
    grid = evaluation_roarray_config().angle_grid

    points = []
    for count in iteration_counts:
        raw, _ = estimate_aoa_spectrum(
            snapshot, array, grid, max_iterations=count, tracer=tracer
        )
        spectrum = raw.normalized()
        points.append(
            IterationProgressPoint(
                iterations=count,
                spectrum=spectrum,
                closest_peak_error_deg=spectrum.closest_peak_error(
                    true_aoa_deg, max_peaks=5, min_relative_height=0.2
                ),
                sharpness=spectrum.sharpness(),
            )
        )
    return points


# ---------------------------------------------------------------------------
# Fig. 4 — single-packet spectra vs multi-packet fusion
# ---------------------------------------------------------------------------


@dataclass
class FusionExperimentResult:
    """Fig. 4: per-packet joint spectra vs the fused spectrum."""

    single_spectra: list[JointSpectrum]
    single_direct_toas_s: list[float]
    single_direct_aoa_errors_deg: list[float]
    fused_spectrum: JointSpectrum
    fused_direct_aoa_error_deg: float
    single_sharpness: list[float]
    fused_sharpness: float

    def to_dict(self) -> dict:
        """JSON-ready view (round-trips through :meth:`from_dict`)."""
        return {
            "single_spectra": [s.to_dict() for s in self.single_spectra],
            "single_direct_toas_s": list(self.single_direct_toas_s),
            "single_direct_aoa_errors_deg": list(self.single_direct_aoa_errors_deg),
            "fused_spectrum": self.fused_spectrum.to_dict(),
            "fused_direct_aoa_error_deg": self.fused_direct_aoa_error_deg,
            "single_sharpness": list(self.single_sharpness),
            "fused_sharpness": self.fused_sharpness,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FusionExperimentResult":
        return cls(
            single_spectra=[JointSpectrum.from_dict(s) for s in payload["single_spectra"]],
            single_direct_toas_s=[float(t) for t in payload["single_direct_toas_s"]],
            single_direct_aoa_errors_deg=[
                float(e) for e in payload["single_direct_aoa_errors_deg"]
            ],
            fused_spectrum=JointSpectrum.from_dict(payload["fused_spectrum"]),
            fused_direct_aoa_error_deg=float(payload["fused_direct_aoa_error_deg"]),
            single_sharpness=[float(s) for s in payload["single_sharpness"]],
            fused_sharpness=float(payload["fused_sharpness"]),
        )


def run_fusion_experiment(
    *,
    n_packets: int = 30,
    n_single_examples: int = 2,
    true_aoa_deg: float = 150.0,
    snr_db: float = 8.0,
    seed: int = 0,
    tracer=NULL_TRACER,
    checkpoint_dir=None,
) -> FusionExperimentResult:
    """Paper Fig. 4: detection delay scatters single-packet ToA spectra;
    delay-aligned fusion over all packets sharpens the estimate.

    With ``checkpoint_dir`` every computed spectrum (each single-packet
    solve plus the fused solve) is journaled to
    ``<checkpoint_dir>/fusion.jsonl`` as it completes; a rerun replays
    the journaled spectra and recomputes only the missing ones.  The
    derived metrics are pure functions of the (exactly round-tripping)
    spectra, so a resumed result is byte-identical.
    """
    from repro.channel.paths import random_profile
    from repro.core.direct_path import identify_direct_path

    estimator = RoArrayEstimator(config=evaluation_roarray_config(), tracer=tracer)
    rng = np.random.default_rng(seed)
    profile = random_profile(rng, n_paths=4, direct_aoa_deg=true_aoa_deg)
    # A generous detection-delay range so the per-packet ToA scatter of
    # Fig. 4a/b is visible above the delay-grid quantization (~16 ns).
    impairments = ImpairmentModel(detection_delay_range_s=300e-9)
    synthesizer = CsiSynthesizer(estimator.array, estimator.layout, impairments, seed=seed)
    trace = synthesizer.packets(profile, n_packets=n_packets, snr_db=snr_db, rng=rng)

    n_singles = min(n_single_examples, n_packets)
    journal = None
    payloads: dict[str, dict] = {}
    keys: list[str] = []
    if checkpoint_dir is not None:
        from repro.runtime.checkpoint import (
            CheckpointJournal,
            config_digest,
            job_key,
            trace_fingerprint,
        )

        digest = config_digest(
            estimator.config, seed, n_packets, n_single_examples, true_aoa_deg, snr_db
        )
        fingerprint = trace_fingerprint(trace)
        # Job indices: 0..n_singles-1 are the single-packet solves,
        # index n_singles is the fused solve over all packets.
        keys = [job_key(digest, p, seed, fingerprint) for p in range(n_singles + 1)]
        journal = CheckpointJournal(
            _journal_policy(checkpoint_dir, "fusion", "fusion")
        )
        payloads = journal.open(config_digest=digest, n_jobs=n_singles + 1).payloads

    def _spectrum(index: int, packet: int | None) -> JointSpectrum:
        if journal is not None:
            record = payloads.get(keys[index])
            if record is not None:
                return JointSpectrum.from_dict(record["payload"]["spectrum"])
        spectrum = estimator.joint_spectrum(trace, packet=packet).normalized()
        if journal is not None:
            journal.append(
                keys[index], {"spectrum": spectrum.to_dict()}, index=index
            )
        return spectrum

    try:
        single_spectra, single_toas, single_errors, single_sharpness = [], [], [], []
        for p in range(n_singles):
            spectrum = _spectrum(p, p)
            direct = identify_direct_path(spectrum)
            single_spectra.append(spectrum)
            single_toas.append(direct.toa_s)
            single_errors.append(abs(direct.aoa_deg - true_aoa_deg))
            single_sharpness.append(spectrum.angle_marginal().sharpness())

        fused = _spectrum(n_singles, None)
        if journal is not None:
            journal.finalize()
    finally:
        if journal is not None:
            journal.close()
    fused_direct = identify_direct_path(fused)
    return FusionExperimentResult(
        single_spectra=single_spectra,
        single_direct_toas_s=single_toas,
        single_direct_aoa_errors_deg=single_errors,
        fused_spectrum=fused,
        fused_direct_aoa_error_deg=abs(fused_direct.aoa_deg - true_aoa_deg),
        single_sharpness=single_sharpness,
        fused_sharpness=fused.angle_marginal().sharpness(),
    )


# ---------------------------------------------------------------------------
# Fig. 8a — AP density
# ---------------------------------------------------------------------------


def run_ap_density_experiment(
    *,
    ap_counts: tuple[int, ...] = (5, 4, 3),
    n_locations: int = 15,
    n_packets: int = 15,
    seed: int = 0,
    band: SnrBand | str = "medium",
    resolution_m: float = 0.1,
    workers: int = 0,
    tracer=NULL_TRACER,
    checkpoint_dir=None,
) -> dict[int, ErrorCdf]:
    """Paper Fig. 8a: ROArray localization error vs number of APs.

    Paired design, as in the paper ("varying the number of APs that can
    hear the client"): each location's full AP set is analyzed once and
    the localizer then uses nested subsets, so the AP-count comparison
    is free of scene-to-scene variance.

    With ``checkpoint_dir`` the per-trace analyses are journaled to
    ``<checkpoint_dir>/ap_density.jsonl`` and a rerun resumes instead
    of recomputing (see :ref:`run_snr_band_experiment`).
    """
    if isinstance(band, str):
        band = SNR_BANDS[band]
    max_aps = max(ap_counts)
    estimator = RoArrayEstimator(config=evaluation_roarray_config())
    rng = np.random.default_rng(seed)

    scenes: list[Scene] = []
    traces_per_location: list[list[CsiTrace]] = []
    for location in range(n_locations):
        scenes.append(build_random_scene(rng, n_aps=max_aps))
        snrs = [band.draw(rng) for _ in range(max_aps)]
        blockages = [band.draw_blockage(rng) for _ in range(max_aps)]
        traces_per_location.append(
            _scene_traces(
                scenes[-1],
                snr_db_per_ap=snrs,
                n_packets=n_packets,
                impairments=ImpairmentModel(),
                rng=rng,
                boot_seed=seed * 3000 + location * 10,
                blockage_db_per_ap=blockages,
            )
        )

    flat_analyses = _batch_analyses(
        estimator,
        [trace for traces in traces_per_location for trace in traces],
        workers=workers,
        base_seed=seed,
        tracer=tracer,
        checkpoint=_journal_policy(checkpoint_dir, "ap_density", "ap_density"),
    )

    errors: dict[int, list[float]] = {count: [] for count in ap_counts}
    for location in range(n_locations):
        scene = scenes[location]
        traces = traces_per_location[location]
        analyses = flat_analyses[location * max_aps : (location + 1) * max_aps]
        for count in ap_counts:
            subset_scene = Scene(
                room=scene.room,
                access_points=scene.access_points[:count],
                client=scene.client,
                scatterers=scene.scatterers,
            )
            outcome = _localize_from_analyses(
                subset_scene, traces[:count], analyses[:count], resolution_m, tracer=tracer
            )
            errors[count].append(outcome.location_error_m)

    return {count: ErrorCdf(np.array(errors[count])) for count in ap_counts}


# ---------------------------------------------------------------------------
# Fig. 8b — phase-calibration schemes
# ---------------------------------------------------------------------------


def run_calibration_experiment(
    *,
    modes: tuple[str, ...] = ("roarray", "music", "none"),
    n_locations: int = 10,
    n_packets: int = 10,
    n_aps: int = 4,
    seed: int = 0,
    calibration_snr_db: float = 18.0,
    band: SnrBand | str = "medium",
    resolution_m: float = 0.1,
    tracer=NULL_TRACER,
) -> dict[str, ErrorCdf]:
    """Paper Fig. 8b: localization with ROArray-driven calibration,
    MUSIC (Phaser) calibration, and no calibration.

    Per-boot phase offsets are injected on every AP; a reference
    transmission from a surveyed location is used to autocalibrate, then
    ROArray localizes test clients with the per-mode corrected CSI.
    """
    if isinstance(band, str):
        band = SNR_BANDS[band]
    impairments = ImpairmentModel(phase_offset_std_rad=1.0)
    array = UniformLinearArray()
    layout = intel5300_layout()
    estimator = RoArrayEstimator(config=evaluation_roarray_config(), tracer=tracer)
    rng = np.random.default_rng(seed)

    room_scene = build_random_scene(rng, n_aps=n_aps)  # Reference geometry / AP layout.
    synthesizers = [
        CsiSynthesizer(array, layout, impairments, seed=seed * 1000 + i)
        for i in range(n_aps)
    ]

    # --- Calibration phase: a known reference transmitter per AP. -----------
    reference_scene = Scene(
        room=room_scene.room,
        access_points=room_scene.access_points,
        client=(room_scene.room.width / 2, room_scene.room.depth / 2),
    )
    offsets_by_mode: dict[str, list[np.ndarray]] = {mode: [] for mode in modes}
    for i in range(n_aps):
        profile = reference_scene.multipath_profile(i, layout.wavelength)
        calibration_trace = synthesizers[i].packets(
            profile, n_packets=5, snr_db=calibration_snr_db, rng=rng
        )
        known = reference_scene.ground_truth_aoa(i)
        for mode in modes:
            if mode == "none":
                offsets_by_mode[mode].append(np.zeros(array.n_antennas))
            else:
                offsets_by_mode[mode].append(
                    calibrate_phase_offsets(
                        calibration_trace.csi, array, estimator=mode, known_aoa_deg=known
                    )
                )

    # --- Test phase: localize with each mode's corrected CSI. ---------------
    errors: dict[str, list[float]] = {mode: [] for mode in modes}
    for location in range(n_locations):
        scene = Scene(
            room=room_scene.room,
            access_points=room_scene.access_points,
            client=build_random_scene(rng, n_aps=n_aps).client,
            scatterers=build_random_scene(rng, n_aps=n_aps).scatterers,
        )
        snrs = [band.draw(rng) for _ in range(n_aps)]
        traces = []
        for i in range(n_aps):
            profile = scene.multipath_profile(i, layout.wavelength)
            traces.append(
                synthesizers[i].packets(profile, n_packets=n_packets, snr_db=snrs[i], rng=rng)
            )
        for mode in modes:
            analyses = []
            for i, trace in enumerate(traces):
                corrected = CsiTrace(
                    csi=apply_phase_calibration(trace.csi, offsets_by_mode[mode][i]),
                    snr_db=trace.snr_db,
                    rssi_dbm=trace.rssi_dbm,
                )
                analyses.append(estimator.analyze(corrected))
            outcome = _localize_from_analyses(scene, traces, analyses, resolution_m, tracer=tracer)
            errors[mode].append(outcome.location_error_m)

    return {mode: ErrorCdf(np.array(errors[mode])) for mode in modes}


# ---------------------------------------------------------------------------
# Fig. 8c — antenna polarization deviation
# ---------------------------------------------------------------------------


def run_polarization_experiment(
    *,
    deviation_ranges_deg: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.0, 20.0), (20.0, 45.0)),
    n_locations: int = 12,
    n_packets: int = 10,
    n_aps: int = 5,
    seed: int = 0,
    band: SnrBand | str = "medium",
    resolution_m: float = 0.1,
    workers: int = 0,
    tracer=NULL_TRACER,
) -> dict[tuple[float, float], ErrorCdf]:
    """Paper Fig. 8c: ROArray accuracy vs client antenna polarization tilt.

    Each location draws a deviation angle uniformly from the range; the
    tilt both attenuates the links (lower effective SNR) and perturbs
    the per-antenna gains (manifold mismatch) — see
    :mod:`repro.channel.impairments`.
    """
    from repro.channel.impairments import polarization_loss

    if isinstance(band, str):
        band = SNR_BANDS[band]
    results: dict[tuple[float, float], ErrorCdf] = {}
    estimator = RoArrayEstimator(config=evaluation_roarray_config())
    for deviation_range in deviation_ranges_deg:
        rng = np.random.default_rng(seed)
        scenes: list[Scene] = []
        traces_per_location: list[list[CsiTrace]] = []
        for location in range(n_locations):
            deviation = float(rng.uniform(*deviation_range))
            impairments = ImpairmentModel(polarization_deviation_deg=deviation)
            scenes.append(build_random_scene(rng, n_aps=n_aps))
            base_snrs = [band.draw(rng) for _ in range(n_aps)]
            # Tilt reduces received power: shift the link SNR by the
            # polarization power loss (20·log10 of the amplitude factor).
            loss_db = -20.0 * np.log10(polarization_loss(deviation))
            snrs = [snr - loss_db for snr in base_snrs]
            traces_per_location.append(
                _scene_traces(
                    scenes[-1],
                    snr_db_per_ap=snrs,
                    n_packets=n_packets,
                    impairments=impairments,
                    rng=rng,
                    boot_seed=seed * 7000 + location * 10,
                )
            )
        flat_analyses = _batch_analyses(
            estimator,
            [trace for traces in traces_per_location for trace in traces],
            workers=workers,
            base_seed=seed,
            tracer=tracer,
        )
        errors = []
        for location in range(n_locations):
            analyses = flat_analyses[location * n_aps : (location + 1) * n_aps]
            outcome = _localize_from_analyses(
                scenes[location], traces_per_location[location], analyses, resolution_m,
                tracer=tracer,
            )
            errors.append(outcome.location_error_m)
        results[deviation_range] = ErrorCdf(np.array(errors))
    return results
