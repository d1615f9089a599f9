"""Re-implementations of the systems the paper compares against.

* :mod:`repro.baselines.music` — the MUSIC subspace estimator
  (Schmidt [14]) plus forward–backward averaging, the covariance
  conditioning MUSIC-based WiFi systems rely on.
* :mod:`repro.baselines.spotfi` — SpotFi (Kotaru et al., SIGCOMM'15):
  CSI sanitization, smoothed-CSI joint (AoA, ToA) MUSIC, and
  cluster-likelihood direct-path identification.
* :mod:`repro.baselines.arraytrack` — ArrayTrack (Xiong & Jamieson,
  NSDI'13): per-packet spatial MUSIC with multi-packet spectra
  synthesis, restricted to the paper's 3-antenna setup for fairness
  (paper §IV-A).
"""

from repro.baselines.arraytrack import ArrayTrackEstimator
from repro.baselines.music import (
    forward_backward_average,
    music_angle_spectrum,
    sample_covariance,
)
from repro.baselines.spotfi import SpotFiEstimator, sanitize_csi_phase

__all__ = [
    "ArrayTrackEstimator",
    "SpotFiEstimator",
    "forward_backward_average",
    "music_angle_spectrum",
    "sample_covariance",
    "sanitize_csi_phase",
]
