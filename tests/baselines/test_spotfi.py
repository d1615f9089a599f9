"""Tests for the SpotFi baseline."""

import numpy as np
import pytest

from repro.baselines.music import forward_backward_average, noise_subspace
from repro.baselines.spotfi import (
    PathCluster,
    SpotFiConfig,
    SpotFiEstimator,
    sanitize_csi_phase,
    smoothed_csi_matrix,
    subarray_joint_operator,
    subarray_row_order,
)
from repro.channel.array import UniformLinearArray
from repro.channel.csi import CsiSynthesizer, synthesize_csi_matrix
from repro.channel.impairments import ImpairmentModel
from repro.channel.ofdm import intel5300_layout
from repro.channel.paths import MultipathProfile, PropagationPath, random_profile
from repro.core.grids import AngleGrid, DelayGrid
from repro.exceptions import ConfigurationError, SolverError
from repro.spectral.spectrum import SpectrumPeak


class TestSanitize:
    def test_removes_common_slope(self, array):
        layout = intel5300_layout()
        profile = MultipathProfile(
            paths=[PropagationPath(70.0, 0.0, 1.0, is_direct=True)]
        )
        delayed = synthesize_csi_matrix(profile, array, layout, extra_delay_s=150e-9)
        sanitized = sanitize_csi_phase(delayed)
        # After sanitization the across-subcarrier phase ramp is ~flat.
        phases = np.unwrap(np.angle(sanitized[0]))
        slope = np.polyfit(np.arange(phases.size), phases, 1)[0]
        assert abs(slope) < 1e-6

    def test_preserves_amplitudes(self, array):
        layout = intel5300_layout()
        rng = np.random.default_rng(0)
        profile = random_profile(rng, n_paths=3)
        csi = synthesize_csi_matrix(profile, array, layout, extra_delay_s=80e-9)
        sanitized = sanitize_csi_phase(csi)
        np.testing.assert_allclose(np.abs(sanitized), np.abs(csi), rtol=1e-12)

    def test_preserves_antenna_phase_differences(self, array):
        """Sanitization must not disturb the spatial (AoA) information."""
        layout = intel5300_layout()
        profile = MultipathProfile(paths=[PropagationPath(55.0, 0.0, 1.0, is_direct=True)])
        csi = synthesize_csi_matrix(profile, array, layout, extra_delay_s=120e-9)
        sanitized = sanitize_csi_phase(csi)
        before = np.angle(csi[1] / csi[0])
        after = np.angle(sanitized[1] / sanitized[0])
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_rejects_1d(self):
        with pytest.raises(SolverError):
            sanitize_csi_phase(np.zeros(30))


class TestSmoothedMatrix:
    def test_paper_dimensions(self, rng):
        """3 antennas × 30 subcarriers with a 2×15 window → 30 × 32."""
        csi = rng.standard_normal((3, 30)) + 1j * rng.standard_normal((3, 30))
        smoothed = smoothed_csi_matrix(csi)
        assert smoothed.shape == (30, 32)

    def test_first_column_is_first_window(self, rng):
        csi = rng.standard_normal((3, 30)) + 1j * rng.standard_normal((3, 30))
        smoothed = smoothed_csi_matrix(csi)
        expected = csi[0:2, 0:15].reshape(-1)
        np.testing.assert_array_equal(smoothed[:, 0], expected)

    def test_last_column_is_last_window(self, rng):
        csi = rng.standard_normal((3, 30)) + 1j * rng.standard_normal((3, 30))
        smoothed = smoothed_csi_matrix(csi)
        expected = csi[1:3, 15:30].reshape(-1)
        np.testing.assert_array_equal(smoothed[:, -1], expected)

    def test_rejects_oversized_window(self, rng):
        csi = rng.standard_normal((3, 30))
        with pytest.raises(ConfigurationError):
            smoothed_csi_matrix(csi, antenna_window=4)
        with pytest.raises(ConfigurationError):
            smoothed_csi_matrix(csi, subcarrier_window=31)


def antenna_major_steering(operator):
    """The operator's dictionary with its rows in smoothed-matrix order."""
    steering = np.empty(operator.shape, dtype=complex)
    steering[subarray_row_order()] = operator.to_dense()
    return steering


class TestSubarraySteering:
    def test_column_structure_matches_smoothed_rows(self):
        """Dictionary column (θ, τ) must equal the clean smoothed response."""
        array = UniformLinearArray()
        layout = intel5300_layout()
        angle_grid = AngleGrid(n_points=7)
        delay_grid = DelayGrid(n_points=5)
        operator = subarray_joint_operator(array, layout, angle_grid, delay_grid)
        steering = antenna_major_steering(operator)
        assert steering.shape == (30, 35)

        # Build the clean CSI for the grid point (angle index 3, delay index 2)
        # and check the first smoothed window equals that steering column.
        theta = angle_grid.angles_deg[3]
        tau = delay_grid.toas_s[2]
        profile = MultipathProfile(paths=[PropagationPath(theta, tau, 1.0, is_direct=True)])
        csi = synthesize_csi_matrix(profile, array, layout)
        window = csi[0:2, 0:15].reshape(-1)
        column = steering[:, 2 * 7 + 3]  # delay-major ordering
        np.testing.assert_allclose(window, column, atol=1e-10)


class TestOperatorMusic:
    def test_spectrum_matches_dense_formula(self, rng):
        """‖E_nᴴ s‖² over the operator equals the dense formula per column."""
        array = UniformLinearArray()
        layout = intel5300_layout()
        config = SpotFiConfig(angle_grid=AngleGrid(n_points=31), delay_grid=DelayGrid(n_points=17))
        estimator = SpotFiEstimator(array, layout, config)
        steering = antenna_major_steering(
            subarray_joint_operator(array, layout, config.angle_grid, config.delay_grid)
        )
        for _ in range(3):
            csi = rng.standard_normal((3, 30)) + 1j * rng.standard_normal((3, 30))
            smoothed = smoothed_csi_matrix(csi)
            covariance = forward_backward_average(smoothed @ smoothed.conj().T / smoothed.shape[1])
            basis = noise_subspace(covariance, config.model_order)
            projections = basis.conj().T @ steering
            dense = 1.0 / np.sum(np.abs(projections) ** 2, axis=0)

            spectrum = estimator.smoothed_spectrum(smoothed)
            operator_power = spectrum.power.T.reshape(-1)  # back to delay-major
            np.testing.assert_allclose(operator_power, dense, rtol=1e-12, atol=0)


    def test_trace_spectra_match_dense_formula_per_packet(self, rng):
        """The trace path (one stacked eigh, one Gram pass) gives every
        packet the dense ``1/‖E_nᴴ s‖²`` of its own forward–backward
        averaged covariance, floored at 1e-12 of its own largest
        denominator: noisy packets through sanitize and smoothing, and a
        noiseless rank-5 smoothed matrix on grid columns, whose nulls the
        floor catches."""
        array = UniformLinearArray()
        layout = intel5300_layout()
        config = SpotFiConfig(angle_grid=AngleGrid(n_points=31), delay_grid=DelayGrid(n_points=17))
        estimator = SpotFiEstimator(array, layout, config)
        steering = antenna_major_steering(
            subarray_joint_operator(array, layout, config.angle_grid, config.delay_grid)
        )

        def dense_power(smoothed):
            covariance = forward_backward_average(smoothed @ smoothed.conj().T / smoothed.shape[1])
            basis = noise_subspace(covariance, config.model_order)
            denominator = np.sum(np.abs(basis.conj().T @ steering) ** 2, axis=0)
            floor = 1e-12 * denominator.max()
            return 1.0 / np.maximum(denominator, floor), np.count_nonzero(denominator < floor)

        def check(spectra, smoothed_stack):
            floored = 0
            for spectrum, smoothed in zip(spectra, smoothed_stack):
                dense, below = dense_power(smoothed)
                floored += below
                np.testing.assert_allclose(spectrum.power.T.reshape(-1), dense, rtol=1e-12, atol=0)
            return floored

        csi = rng.standard_normal((4, 3, 30)) + 1j * rng.standard_normal((4, 3, 30))
        smoothed = np.stack([smoothed_csi_matrix(sanitize_csi_phase(packet)) for packet in csi])
        check(estimator.packet_spectra(csi), smoothed)

        on_grid = steering[:, [40, 101, 230, 377, 500]]
        clean = on_grid @ (rng.standard_normal((5, 32)) + 1j * rng.standard_normal((5, 32)))
        stack = np.concatenate([smoothed[:2], clean[None], smoothed[2:]])
        assert check(estimator.smoothed_spectra(stack), stack) >= 5

    def test_packet_spectrum_is_the_trace_path_on_one_packet(self, rng):
        profile = random_profile(rng, n_paths=3, direct_aoa_deg=80.0)
        synthesizer = CsiSynthesizer(UniformLinearArray(), intel5300_layout(), ImpairmentModel(), seed=1)
        trace = synthesizer.packets(profile, n_packets=5, snr_db=10.0, rng=rng)
        estimator = SpotFiEstimator()
        spectra = estimator.packet_spectra(trace.csi)
        assert len(spectra) == trace.n_packets
        for index, spectrum in enumerate(spectra):
            packet = trace.packet(index)
            single = estimator.packet_spectrum(packet)
            np.testing.assert_array_equal(single.power, estimator.packet_spectra(packet[None])[0].power)
            np.testing.assert_allclose(single.power, spectrum.power, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(single.angles_deg, spectrum.angles_deg)
            np.testing.assert_array_equal(single.toas_s, spectrum.toas_s)
        with pytest.raises(SolverError):
            estimator.packet_spectrum(trace.csi)


class TestEstimator:
    def test_finds_direct_path_clean_scene(self, rng):
        array = UniformLinearArray()
        layout = intel5300_layout()
        profile = random_profile(rng, n_paths=3, direct_aoa_deg=150.0, direct_toa_s=30e-9)
        synthesizer = CsiSynthesizer(array, layout, ImpairmentModel(), seed=0)
        trace = synthesizer.packets(profile, n_packets=8, snr_db=20.0, rng=rng)
        estimate = SpotFiEstimator().estimate_direct_path(trace)
        assert estimate.aoa_deg == pytest.approx(150.0, abs=6.0)

    def test_aoa_spectrum_peaks_near_truth(self, rng):
        array = UniformLinearArray()
        layout = intel5300_layout()
        profile = random_profile(rng, n_paths=3, direct_aoa_deg=120.0)
        synthesizer = CsiSynthesizer(array, layout, ImpairmentModel(), seed=0)
        trace = synthesizer.packets(profile, n_packets=5, snr_db=20.0, rng=rng)
        spectrum = SpotFiEstimator().aoa_spectrum(trace)
        assert spectrum.closest_peak_error(120.0, max_peaks=4) < 6.0

    def test_analyze_reports_candidates(self, rng):
        array = UniformLinearArray()
        layout = intel5300_layout()
        profile = random_profile(rng, n_paths=3, direct_aoa_deg=100.0)
        synthesizer = CsiSynthesizer(array, layout, ImpairmentModel(), seed=0)
        trace = synthesizer.packets(profile, n_packets=4, snr_db=18.0, rng=rng)
        analysis = SpotFiEstimator().analyze(trace)
        assert len(analysis.candidate_aoas_deg) >= 1
        assert analysis.closest_aoa_error(100.0) <= abs(analysis.direct.aoa_deg - 100.0) + 1e-9


class TestClustering:
    def make_estimator(self):
        return SpotFiEstimator(config=SpotFiConfig())

    def peaks(self, entries):
        return [SpectrumPeak(aoa_deg=a, power=p, toa_s=t) for a, t, p in entries]

    def test_nearby_peaks_merge(self):
        estimator = self.make_estimator()
        clusters = estimator.cluster_peaks(
            self.peaks([(100.0, 100e-9, 1.0), (103.0, 110e-9, 0.9)])
        )
        assert len(clusters) == 1
        assert clusters[0].size == 2

    def test_distant_peaks_stay_separate(self):
        estimator = self.make_estimator()
        clusters = estimator.cluster_peaks(
            self.peaks([(100.0, 100e-9, 1.0), (140.0, 100e-9, 0.9)])
        )
        assert len(clusters) == 2

    def test_toa_gap_splits_cluster(self):
        estimator = self.make_estimator()
        clusters = estimator.cluster_peaks(
            self.peaks([(100.0, 100e-9, 1.0), (101.0, 500e-9, 0.9)])
        )
        assert len(clusters) == 2

    def test_likelihood_prefers_early_large_cluster(self):
        estimator = self.make_estimator()
        clusters = estimator.cluster_peaks(
            self.peaks(
                [(60.0, 50e-9, 0.8)] * 5          # early, consistent, seen 5×
                + [(150.0, 400e-9, 1.0)] * 2       # late, stronger, seen 2×
            )
        )
        best = max(clusters, key=lambda c: estimator.cluster_likelihood(c, clusters))
        assert best.mean_aoa_deg == pytest.approx(60.0)

    def test_likelihood_value(self):
        """Size, mean-ToA, ToA-spread and power terms with the documented weights."""
        estimator = self.make_estimator()
        config = estimator.config
        clusters = estimator.cluster_peaks(
            self.peaks([(60.0, 50e-9, 0.8)] * 5 + [(150.0, 400e-9, 1.0)] * 2)
        )
        early = next(c for c in clusters if c.size == 5)
        toa_scale = config.delay_grid.stop_s - config.delay_grid.start_s
        expected = (
            config.weight_size * 5 / 7
            - config.weight_toa_mean * (early.mean_toa_s - config.delay_grid.start_s) / toa_scale
            - config.weight_toa_std * early.std_toa_s / toa_scale
            + config.weight_power * 0.8 / 1.0
        )
        assert estimator.cluster_likelihood(early, clusters) == pytest.approx(expected, rel=1e-12)

    def test_statistics_follow_add(self):
        cluster = PathCluster()
        cluster.add(SpectrumPeak(aoa_deg=100.0, power=1.0, toa_s=100e-9))
        assert (cluster.mean_aoa_deg, cluster.mean_toa_s) == (100.0, 100e-9)
        assert (cluster.std_toa_s, cluster.mean_power) == (0.0, 1.0)
        cluster.add(SpectrumPeak(aoa_deg=104.0, power=0.5, toa_s=120e-9))
        assert cluster.mean_aoa_deg == float(np.mean([100.0, 104.0]))
        assert cluster.mean_toa_s == float(np.mean([100e-9, 120e-9]))
        assert cluster.std_toa_s == float(np.std([100e-9, 120e-9]))
        assert cluster.mean_power == 0.75

    def test_analyze_picks_the_same_cluster_as_cluster_likelihood(self, rng):
        estimator = self.make_estimator()
        profile = random_profile(rng, n_paths=4, direct_aoa_deg=70.0)
        synthesizer = CsiSynthesizer(UniformLinearArray(), intel5300_layout(), ImpairmentModel(), seed=3)
        trace = synthesizer.packets(profile, n_packets=6, snr_db=5.0, rng=rng)
        clusters = estimator.cluster_peaks(estimator.collect_peaks(trace))
        assert len(clusters) > 1
        best = max(clusters, key=lambda c: estimator.cluster_likelihood(c, clusters))
        direct = estimator.analyze(trace).direct
        assert (direct.aoa_deg, direct.toa_s, direct.power) == (
            best.mean_aoa_deg,
            best.mean_toa_s,
            best.mean_power,
        )
