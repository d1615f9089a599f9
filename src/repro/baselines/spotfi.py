"""SpotFi (Kotaru et al., SIGCOMM 2015) — re-implemented for comparison.

SpotFi is the strongest MUSIC-based comparison point in the paper
(40 cm median at high SNR).  Its per-AP chain:

1. **Sanitization** — remove the linear phase slope across subcarriers
   (packet detection delay / STO) by least squares, so ToA becomes
   comparable across packets.
2. **Smoothed CSI matrix** — rearrange one packet's 3×30 CSI into a
   30×32 matrix whose columns are shifted (antenna, subcarrier)
   subarray snapshots; this restores covariance rank under coherent
   multipath while *increasing* the effective aperture beyond 3
   antennas.
3. **Joint 2-D MUSIC** — noise-subspace spectrum over an (AoA, ToA)
   grid with the model order fixed at K = 5 (the sensitivity the paper
   §III-B calls out).
4. **Clustering + likelihood** — peaks from all packets are clustered
   in (AoA, ToA) space and each cluster is scored: big clusters with
   small ToA spread, early mean ToA and high power are likely the
   direct path.

The implementation keeps SpotFi's structure and parameters; only the
likelihood weights (unpublished, learned offline in the original) are
re-derived constants, documented on :class:`SpotFiConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.baselines.music import forward_backward_average, music_pseudospectrum, noise_subspace
from repro.channel.array import UniformLinearArray
from repro.channel.ofdm import SubcarrierLayout, intel5300_layout
from repro.channel.trace import CsiTrace
from repro.core.direct_path import ApAnalysis, DirectPathEstimate
from repro.core.grids import AngleGrid, DelayGrid
from repro.exceptions import ConfigurationError, SolverError
from repro.optim import KroneckerJointOperator
from repro.spectral.spectrum import AngleSpectrum, JointSpectrum, SpectrumPeak


def sanitize_csi_phase(csi_matrix: np.ndarray) -> np.ndarray:
    """Remove the common linear phase slope across subcarriers.

    Fits one slope shared by all antennas (the detection delay is common
    to the RF chains) to the unwrapped per-antenna phases and subtracts
    it.  This removes the packet detection delay *and* part of the true
    ToA — which is why SpotFi's ToAs are only useful relatively, and why
    its direct-path logic leans on clustering rather than raw delay.  A
    ``(packets, antennas, subcarriers)`` stack gets one slope per packet.
    """
    csi_matrix = np.asarray(csi_matrix, dtype=complex)
    if csi_matrix.ndim < 2:
        raise SolverError(f"csi must be 2-D (antennas × subcarriers), got {csi_matrix.shape}")
    n_subcarriers = csi_matrix.shape[-1]
    index = np.arange(n_subcarriers, dtype=float)

    phases = np.unwrap(np.angle(csi_matrix), axis=-1)
    # Least-squares common slope: average the per-antenna slopes.
    centered_index = index - index.mean()
    denom = float(np.sum(centered_index**2))
    slopes = (phases - phases.mean(axis=-1, keepdims=True)) @ centered_index / denom
    common_slope = slopes.mean(axis=-1)[..., None, None]
    return csi_matrix * np.exp(-1j * common_slope * index)


def smoothed_csi_matrix(
    csi_matrix: np.ndarray, *, antenna_window: int = 2, subcarrier_window: int = 15
) -> np.ndarray:
    """SpotFi's smoothed CSI matrix.

    Rows enumerate the (antenna, subcarrier) cells of one subarray
    window, antenna-major (subcarrier fastest); columns enumerate all
    window placements.  For the paper's 3×30 CSI with the default 2×15
    window this yields the classic 30 × 32 matrix; a stack of CSI
    matrices gives a stack of smoothed ones.
    """
    csi_matrix = np.asarray(csi_matrix, dtype=complex)
    m, length = csi_matrix.shape[-2:]
    if not 1 <= antenna_window <= m:
        raise ConfigurationError(f"antenna_window must be in [1, {m}], got {antenna_window}")
    if not 1 <= subcarrier_window <= length:
        raise ConfigurationError(
            f"subcarrier_window must be in [1, {length}], got {subcarrier_window}"
        )
    windows = sliding_window_view(csi_matrix, (antenna_window, subcarrier_window), axis=(-2, -1))
    # (..., antenna starts, subcarrier starts, window): one row per placement.
    placements = (m - antenna_window + 1) * (length - subcarrier_window + 1)
    columns = windows.reshape(*csi_matrix.shape[:-2], placements, antenna_window * subcarrier_window)
    return np.swapaxes(columns, -1, -2)


def subarray_joint_operator(
    array: UniformLinearArray,
    layout: SubcarrierLayout,
    angle_grid: AngleGrid,
    delay_grid: DelayGrid,
    *,
    antenna_window: int = 2,
    subcarrier_window: int = 15,
) -> KroneckerJointOperator:
    """Joint steering of one smoothing window, as a Kronecker operator.

    A path at (θ, τ) puts Λ^i·Γ^j on antenna i, subcarrier j of the
    window, so the dictionary is ``kron(temporal, spatial)`` of the
    ``(subcarrier_window, Nτ)`` delay ramps and the
    ``(antenna_window, Nθ)`` antenna phases, with delay-major columns
    (column ``j·Nθ + i`` ↔ angle ``i``, delay ``j``).  Its rows run
    antenna-fastest (row ``j·A' + i``), whereas :func:`smoothed_csi_matrix`
    rows are antenna-major (row ``i·L' + j``);
    :func:`subarray_row_order` maps one order onto the other.
    """
    spatial = array.phase_factor(angle_grid.angles_deg)[None, :] ** np.arange(antenna_window)[:, None]
    temporal = (
        layout.delay_phase_factor(delay_grid.toas_s)[None, :]
        ** np.arange(subcarrier_window)[:, None]
    )
    return KroneckerJointOperator(temporal, spatial)


def subarray_row_order(antenna_window: int = 2, subcarrier_window: int = 15) -> np.ndarray:
    """The :func:`smoothed_csi_matrix` row behind each operator row.

    ``rows[subarray_row_order()]`` reorders antenna-major rows (the
    smoothed matrix, or a basis of its covariance) into the
    antenna-fastest row order of :func:`subarray_joint_operator`.
    """
    antenna_major = np.arange(antenna_window * subcarrier_window)
    return antenna_major.reshape(antenna_window, subcarrier_window).T.reshape(-1)


@dataclass(frozen=True)
class SpotFiConfig:
    """SpotFi parameters.

    ``model_order`` is fixed at 5 as in the original (paper footnote 8).
    The clustering tolerances and likelihood weights stand in for the
    unpublished learned weights; they were tuned once on synthetic
    scenes and kept fixed across every experiment in this repository.
    """

    angle_grid: AngleGrid = field(default_factory=lambda: AngleGrid(n_points=91))
    delay_grid: DelayGrid = field(default_factory=lambda: DelayGrid(n_points=50))
    model_order: int = 5
    antenna_window: int = 2
    subcarrier_window: int = 15
    peaks_per_packet: int = 8
    peak_floor: float = 0.1
    cluster_aoa_tolerance_deg: float = 10.0
    cluster_toa_tolerance_s: float = 80e-9
    weight_size: float = 1.0
    weight_toa_mean: float = 1.0
    weight_toa_std: float = 0.5
    weight_power: float = 0.3


_CLUSTER_STATISTICS = ("mean_aoa_deg", "mean_toa_s", "std_toa_s", "mean_power")


@dataclass
class PathCluster:
    """A cluster of per-packet (AoA, ToA) peaks hypothesized as one path.

    Each statistic is computed on first read and kept until the next
    :meth:`add`, so the clustering loop's comparisons do not re-average
    the member lists.
    """

    aoas_deg: list[float] = field(default_factory=list)
    toas_s: list[float] = field(default_factory=list)
    powers: list[float] = field(default_factory=list)

    def add(self, peak: SpectrumPeak) -> None:
        self.aoas_deg.append(peak.aoa_deg)
        self.toas_s.append(peak.toa_s)
        self.powers.append(peak.power)
        for name in _CLUSTER_STATISTICS:
            self.__dict__.pop(name, None)

    @property
    def size(self) -> int:
        return len(self.aoas_deg)

    @cached_property
    def mean_aoa_deg(self) -> float:
        return float(np.mean(self.aoas_deg))

    @cached_property
    def mean_toa_s(self) -> float:
        return float(np.mean(self.toas_s))

    @cached_property
    def std_toa_s(self) -> float:
        return float(np.std(self.toas_s))

    @cached_property
    def mean_power(self) -> float:
        return float(np.mean(self.powers))


class SpotFiEstimator:
    """SpotFi's per-AP direct-path estimation chain."""

    name = "SpotFi"

    def __init__(
        self,
        array: UniformLinearArray | None = None,
        layout: SubcarrierLayout | None = None,
        config: SpotFiConfig | None = None,
    ) -> None:
        self.array = array or UniformLinearArray()
        self.layout = layout or intel5300_layout()
        self.config = config or SpotFiConfig()
        self._operator = subarray_joint_operator(
            self.array,
            self.layout,
            self.config.angle_grid,
            self.config.delay_grid,
            antenna_window=self.config.antenna_window,
            subcarrier_window=self.config.subcarrier_window,
        )
        self._operator_rows = subarray_row_order(
            self.config.antenna_window, self.config.subcarrier_window
        )

    # -- spectra -----------------------------------------------------------

    def packet_spectra(self, csi: np.ndarray) -> list[JointSpectrum]:
        """Sanitize → smooth → joint 2-D MUSIC for a whole trace at once.

        ``csi`` is a ``(packets, antennas, subcarriers)`` stack; each
        stage runs once over it (see :meth:`smoothed_spectra`), and the
        result holds one spectrum per packet.
        """
        smoothed = smoothed_csi_matrix(
            sanitize_csi_phase(csi),
            antenna_window=self.config.antenna_window,
            subcarrier_window=self.config.subcarrier_window,
        )
        return self.smoothed_spectra(smoothed)

    def packet_spectrum(self, csi_matrix: np.ndarray) -> JointSpectrum:
        """:meth:`packet_spectra` of one ``(antennas, subcarriers)`` packet."""
        csi_matrix = np.asarray(csi_matrix)
        if csi_matrix.ndim != 2:
            raise SolverError(f"csi must be 2-D (antennas × subcarriers), got {csi_matrix.shape}")
        return self.packet_spectra(csi_matrix[None])[0]

    def smoothed_spectra(self, smoothed: np.ndarray) -> list[JointSpectrum]:
        """Joint 2-D MUSIC of a stack of :func:`smoothed_csi_matrix` (``K = model_order``).

        The forward–backward averaged covariances go through one stacked
        ``eigh``, and one Gram pass of the operator scores every noise
        basis (:func:`~repro.baselines.music.music_pseudospectrum`, each
        packet with its own floor).  Averaging and eigendecomposition run
        in the smoothed matrices' antenna-major row order; only the noise
        bases are reordered into the operator's rows, which is exact.
        """
        covariance = smoothed @ np.swapaxes(smoothed.conj(), -1, -2)
        covariance /= smoothed.shape[-1]
        covariance = forward_backward_average(covariance)
        bases = noise_subspace(covariance, self.config.model_order)[:, self._operator_rows]
        del covariance  # freed, like the eigenvectors, before the Gram pass
        power = music_pseudospectrum(bases, self._operator)
        grids = power.reshape(-1, self.config.delay_grid.n_points, self.config.angle_grid.n_points)
        angles, toas = self.config.angle_grid.angles_deg, self.config.delay_grid.toas_s
        return [JointSpectrum(angles, toas, grid.T) for grid in grids]

    def smoothed_spectrum(self, smoothed: np.ndarray) -> JointSpectrum:
        """:meth:`smoothed_spectra` of one smoothed matrix."""
        return self.smoothed_spectra(np.asarray(smoothed)[None])[0]

    def aoa_spectrum(self, trace: CsiTrace) -> AngleSpectrum:
        """Average angle marginal across packets (paper Fig. 2 plots)."""
        accumulated = None
        for spectrum in self.packet_spectra(trace.csi):
            marginal = spectrum.angle_marginal().normalized()
            accumulated = marginal.power if accumulated is None else accumulated + marginal.power
        assert accumulated is not None
        return AngleSpectrum(self.config.angle_grid.angles_deg, accumulated / trace.n_packets)

    # -- clustering / direct path -------------------------------------------

    def collect_peaks(self, trace: CsiTrace) -> list[SpectrumPeak]:
        return [
            peak
            for spectrum in self.packet_spectra(trace.csi)
            for peak in spectrum.peaks(
                max_peaks=self.config.peaks_per_packet,
                min_relative_height=self.config.peak_floor,
            )
        ]

    def cluster_peaks(self, peaks: list[SpectrumPeak]) -> list[PathCluster]:
        """Greedy leader clustering in (AoA, ToA), strongest peaks first."""
        clusters: list[PathCluster] = []
        for peak in sorted(peaks, key=lambda p: p.power, reverse=True):
            for cluster in clusters:
                if (
                    abs(peak.aoa_deg - cluster.mean_aoa_deg) <= self.config.cluster_aoa_tolerance_deg
                    and abs(peak.toa_s - cluster.mean_toa_s) <= self.config.cluster_toa_tolerance_s
                ):
                    cluster.add(peak)
                    break
            else:
                fresh = PathCluster()
                fresh.add(peak)
                clusters.append(fresh)
        return clusters

    def cluster_likelihood(self, cluster: PathCluster, clusters: list[PathCluster]) -> float:
        """SpotFi's direct-path likelihood, higher = more likely LoS."""
        return self._likelihood(cluster, *_cluster_totals(clusters))

    def _likelihood(self, cluster: PathCluster, total_points: int, max_power: float) -> float:
        toa_scale = self.config.delay_grid.stop_s - self.config.delay_grid.start_s
        size_term = cluster.size / total_points
        toa_mean_term = (cluster.mean_toa_s - self.config.delay_grid.start_s) / toa_scale
        toa_std_term = cluster.std_toa_s / toa_scale
        power_term = cluster.mean_power / max_power if max_power > 0 else 0.0
        return (
            self.config.weight_size * size_term
            - self.config.weight_toa_mean * toa_mean_term
            - self.config.weight_toa_std * toa_std_term
            + self.config.weight_power * power_term
        )

    def analyze(self, trace: CsiTrace) -> ApAnalysis:
        """Peaks from every packet → clusters → max-likelihood cluster."""
        peaks = self.collect_peaks(trace)
        if not peaks:
            # Degenerate spectrum: fall back to the strongest cell of packet 0.
            spectrum = self.packet_spectrum(trace.packet(0))
            best = spectrum.direct_path_peak()
            direct = DirectPathEstimate(best.aoa_deg, best.toa_s, best.power, n_paths=1)
            return ApAnalysis(direct=direct, candidate_aoas_deg=(best.aoa_deg,))
        clusters = self.cluster_peaks(peaks)
        totals = _cluster_totals(clusters)
        best = max(clusters, key=lambda c: self._likelihood(c, *totals))
        direct = DirectPathEstimate(
            aoa_deg=best.mean_aoa_deg,
            toa_s=best.mean_toa_s,
            power=best.mean_power,
            n_paths=len(clusters),
        )
        return ApAnalysis(
            direct=direct,
            candidate_aoas_deg=tuple(cluster.mean_aoa_deg for cluster in clusters),
        )

    def estimate_direct_path(self, trace: CsiTrace) -> DirectPathEstimate:
        """Direct-path estimate only (see :meth:`analyze` for the full result)."""
        return self.analyze(trace).direct


def _cluster_totals(clusters: list[PathCluster]) -> tuple[int, float]:
    """The likelihood's normalizers: total peak count and strongest mean power."""
    return sum(c.size for c in clusters), max(c.mean_power for c in clusters)
