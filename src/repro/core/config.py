"""Configuration of the ROArray estimator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.grids import AngleGrid, DelayGrid
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class RoArrayConfig:
    """Tunables of the end-to-end ROArray pipeline.

    Attributes
    ----------
    angle_grid / delay_grid:
        The linearization grids (paper §III-A/B).  The joint grid
        defaults to the working point the paper reports timing for
        (Nθ = 91 ≈ 2°-spaced angles, Nτ = 50 delays over 800 ns).
    kappa_fraction:
        Sparsity weight as a fraction of ‖2Aᴴy‖_∞ (the smallest κ that
        zeroes the solution); see :func:`repro.optim.tuning.residual_kappa`.
        The default of 0.15 realizes the noise tolerance of paper
        Eq. 10 across the whole SNR range: large enough that noise
        ripple cannot spawn spurious early peaks (which would hijack the
        smallest-ToA direct-path rule), small enough to keep a
        blockage-attenuated LoS path alive.
    max_iterations:
        FISTA iteration cap for each solve.
    svd_rank:
        Maximum number of singular vectors kept by multi-packet fusion
        (§III-D); bounded by the expected path count.
    max_paths:
        Cap on peaks read from a spectrum (the sparsity assumption:
        ~5 dominant indoor paths).
    peak_floor:
        Minimum relative height for a spectrum peak to count as a path.

    Every sparse solve the estimator makes is checked for divergence
    (:func:`~repro.optim.result.check_divergence`) under any config.
    """

    angle_grid: AngleGrid = field(default_factory=lambda: AngleGrid(n_points=91))
    delay_grid: DelayGrid = field(default_factory=lambda: DelayGrid(n_points=50))
    kappa_fraction: float = 0.15
    max_iterations: int = 250
    svd_rank: int = 6
    max_paths: int = 6
    peak_floor: float = 0.3

    def __post_init__(self) -> None:
        if not 0 < self.kappa_fraction < 1:
            raise ConfigurationError(f"kappa_fraction must be in (0, 1), got {self.kappa_fraction}")
        if self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.svd_rank < 1:
            raise ConfigurationError(f"svd_rank must be >= 1, got {self.svd_rank}")
        if self.max_paths < 1:
            raise ConfigurationError(f"max_paths must be >= 1, got {self.max_paths}")
        if not 0 < self.peak_floor < 1:
            raise ConfigurationError(f"peak_floor must be in (0, 1), got {self.peak_floor}")
