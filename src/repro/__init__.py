"""ROArray: robust indoor WiFi localization using sparse recovery.

This package is a from-scratch reproduction of

    Wei Gong and Jiangchuan Liu,
    "Robust Indoor Wireless Localization Using Sparse Recovery",
    IEEE ICDCS 2017.

It contains four layers, from bottom to top:

``repro.optim``
    Complex-valued sparse-recovery solvers (FISTA, a joint-sparse MMV
    FISTA and the greedy OMP baseline) used in place of the paper's
    MATLAB/CVX second-order cone programs.

``repro.channel``
    A synthetic WiFi CSI substrate: geometric multipath, uniform linear
    array phase model, Intel-5300-style OFDM subcarrier layout, and the
    hardware impairments (packet detection delay, per-boot phase offsets,
    polarization loss, AWGN) that the paper's testbed exhibits.

``repro.baselines``
    Faithful re-implementations of the systems the paper compares
    against: MUSIC, SpotFi and ArrayTrack.

``repro.core``
    ROArray itself: sparse AoA estimation, joint ToA&AoA estimation,
    multi-packet SVD fusion, smallest-ToA direct-path identification,
    phase calibration and RSSI-weighted multi-AP localization.

``repro.experiments``
    The evaluation harness reproducing every figure in the paper.
"""

from repro.version import __version__
from repro.exceptions import (
    CalibrationError,
    CheckpointError,
    ConfigurationError,
    DatasetError,
    FaultInjectionError,
    GeometryError,
    IngestError,
    JobTimeoutError,
    PoolCrashError,
    QuorumError,
    ReproError,
    ResumableInterrupt,
    SolverDivergenceError,
    SolverError,
    ValidationError,
)

__all__ = [
    "__version__",
    "CalibrationError",
    "CheckpointError",
    "ConfigurationError",
    "DatasetError",
    "FaultInjectionError",
    "GeometryError",
    "IngestError",
    "JobTimeoutError",
    "PoolCrashError",
    "QuorumError",
    "ReproError",
    "ResumableInterrupt",
    "SolverDivergenceError",
    "SolverError",
    "ValidationError",
]
