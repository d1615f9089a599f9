"""ROArray — the paper's primary contribution.

The estimation chain, bottom-up:

1. :mod:`~repro.core.grids` / :mod:`~repro.core.steering` — the sparse
   sampling grids over angle and delay and the linearized steering
   dictionaries of paper Eq. 6 (AoA only) and Eq. 13/16 (joint
   AoA&ToA), with cached Lipschitz constants for fast re-solves.
2. :mod:`~repro.core.aoa` — sparse AoA estimation (Eq. 11).
3. :mod:`~repro.core.joint` — joint ToA&AoA sparse recovery (Eq. 18).
4. :mod:`~repro.core.fusion` — multi-packet SVD reduction + joint-sparse
   recovery (§III-D, after Malioutov et al. [25]).
5. :mod:`~repro.core.direct_path` — smallest-ToA direct-path rule.
6. :mod:`~repro.core.calibration` — Phaser-style phase autocalibration
   driven by ROArray's own spectra.
7. :mod:`~repro.core.localization` — RSSI-weighted multi-AP AoA
   triangulation over a 10 cm grid (Eq. 19).
8. :mod:`~repro.core.pipeline` — :class:`RoArrayEstimator`, the
   packaged end-to-end system.
"""

from repro.core.aoa import estimate_aoa_spectrum
from repro.core.calibration import calibrate_phase_offsets
from repro.core.config import RoArrayConfig
from repro.core.direct_path import DirectPathEstimate, identify_direct_path
from repro.core.fusion import fuse_packets, svd_reduce_snapshots
from repro.core.grids import AngleGrid, DelayGrid
from repro.core.joint import estimate_joint_spectrum
from repro.core.localization import (
    TRUST_THRESHOLD,
    ApEvidence,
    ApTrustScore,
    ConsensusResult,
    DegradedResult,
    DroppedAp,
    localize_consensus,
    localize_robust,
    localize_weighted_aoa,
    peak_dispersion,
    score_ap_trust,
)
from repro.core.pipeline import RoArrayEstimator
from repro.core.steering import SteeringCache, joint_steering_dictionary
from repro.core.tracking import KalmanTracker, TrackState

__all__ = [
    "TRUST_THRESHOLD",
    "AngleGrid",
    "ApEvidence",
    "ApTrustScore",
    "ConsensusResult",
    "DegradedResult",
    "DelayGrid",
    "DroppedAp",
    "DirectPathEstimate",
    "KalmanTracker",
    "RoArrayConfig",
    "TrackState",
    "RoArrayEstimator",
    "SteeringCache",
    "calibrate_phase_offsets",
    "estimate_aoa_spectrum",
    "estimate_joint_spectrum",
    "fuse_packets",
    "identify_direct_path",
    "joint_steering_dictionary",
    "localize_consensus",
    "localize_robust",
    "localize_weighted_aoa",
    "peak_dispersion",
    "score_ap_trust",
    "svd_reduce_snapshots",
]
