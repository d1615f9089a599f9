"""Evaluation harness reproducing the paper's figures.

* :mod:`~repro.experiments.metrics` — error CDFs, medians, percentiles.
* :mod:`~repro.experiments.scenarios` — the classroom testbed (18 m ×
  12 m room, wall-mounted APs, random client spots and scatterers) and
  the paper's three SNR bands.
* :mod:`~repro.experiments.runner` — per-figure experiment drivers;
  every benchmark in ``benchmarks/`` is a thin wrapper around one of
  these.
* :mod:`~repro.experiments.reporting` — rendering: the markdown
  evaluation report, plain-text tables/series mirroring what the
  paper's figures plot, and CLI output helpers.
"""

from repro.experiments.metrics import ErrorCdf, summarize_systems
from repro.experiments.nlos import (
    NlosSweepPoint,
    NlosSweepResult,
    format_sweep_table,
    run_nlos_sweep,
)
from repro.experiments.reporting import generate_report
from repro.experiments.runner import (
    LocalizationOutcome,
    SnrBandResult,
    run_ap_density_experiment,
    run_calibration_experiment,
    run_fusion_experiment,
    run_iteration_progress_experiment,
    run_music_snr_experiment,
    run_polarization_experiment,
    run_snr_band_experiment,
)
from repro.experiments.scenarios import (
    SNR_BANDS,
    SnrBand,
    build_random_scene,
    classroom_access_points,
    classroom_room,
)

__all__ = [
    "SNR_BANDS",
    "ErrorCdf",
    "LocalizationOutcome",
    "NlosSweepPoint",
    "NlosSweepResult",
    "SnrBand",
    "SnrBandResult",
    "build_random_scene",
    "classroom_access_points",
    "classroom_room",
    "format_sweep_table",
    "generate_report",
    "run_ap_density_experiment",
    "run_calibration_experiment",
    "run_fusion_experiment",
    "run_iteration_progress_experiment",
    "run_music_snr_experiment",
    "run_nlos_sweep",
    "run_polarization_experiment",
    "run_snr_band_experiment",
    "summarize_systems",
]
