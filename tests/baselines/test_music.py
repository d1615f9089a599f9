"""Tests for the MUSIC substrate."""

import numpy as np
import pytest

from repro.baselines.music import (
    forward_backward_average,
    music_angle_spectrum,
    music_pseudospectrum,
    noise_subspace,
    sample_covariance,
)
from repro.channel.array import UniformLinearArray
from repro.core.grids import AngleGrid
from repro.core.steering import angle_steering_dictionary
from repro.exceptions import SolverError


def uncorrelated_snapshots(array, aoas, rng, n_snapshots=400, snr=100.0):
    """Independent per-snapshot symbols → full-rank source covariance."""
    steering = array.steering_matrix(np.array(aoas))
    symbols = (rng.standard_normal((len(aoas), n_snapshots))
               + 1j * rng.standard_normal((len(aoas), n_snapshots)))
    clean = steering @ symbols
    noise_scale = np.sqrt(np.mean(np.abs(clean) ** 2) / snr / 2)
    noise = noise_scale * (rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape))
    return clean + noise


class TestSampleCovariance:
    def test_hermitian(self, rng):
        y = rng.standard_normal((4, 50)) + 1j * rng.standard_normal((4, 50))
        r = sample_covariance(y)
        np.testing.assert_allclose(r, r.conj().T)

    def test_positive_semidefinite(self, rng):
        y = rng.standard_normal((4, 50)) + 1j * rng.standard_normal((4, 50))
        eigenvalues = np.linalg.eigvalsh(sample_covariance(y))
        assert np.all(eigenvalues > -1e-12)

    def test_rejects_empty(self):
        with pytest.raises(SolverError):
            sample_covariance(np.zeros((3, 0)))

    def test_rejects_1d(self):
        with pytest.raises(SolverError):
            sample_covariance(np.zeros(3))


class TestForwardBackward:
    def test_preserves_hermitian(self, rng):
        y = rng.standard_normal((4, 50)) + 1j * rng.standard_normal((4, 50))
        r = forward_backward_average(sample_covariance(y))
        np.testing.assert_allclose(r, r.conj().T)

    def test_idempotent_on_persymmetric(self):
        """A persymmetric matrix is a fixed point of FB averaging."""
        r = np.eye(3, dtype=complex)
        np.testing.assert_allclose(forward_backward_average(r), r)

    def test_rejects_non_square(self):
        with pytest.raises(SolverError):
            forward_backward_average(np.zeros((3, 4)))


class TestNoiseSubspace:
    def test_dimensions(self, rng):
        y = rng.standard_normal((5, 100)) + 1j * rng.standard_normal((5, 100))
        basis = noise_subspace(sample_covariance(y), n_sources=2)
        assert basis.shape == (5, 3)

    def test_orthogonal_to_signal_steering(self, rng):
        array = UniformLinearArray(n_antennas=5, spacing=0.02, wavelength=0.056)
        snapshots = uncorrelated_snapshots(array, [60.0, 130.0], rng)
        basis = noise_subspace(sample_covariance(snapshots), n_sources=2)
        for aoa in (60.0, 130.0):
            projection = np.linalg.norm(basis.conj().T @ array.steering_vector(aoa))
            assert projection < 0.2  # nearly orthogonal

    def test_rejects_bad_model_order(self, rng):
        r = np.eye(3)
        for k in (0, 3, 5):
            with pytest.raises(SolverError):
                noise_subspace(r, n_sources=k)


class TestMusicSpectrum:
    def test_finds_well_separated_sources(self, rng):
        array = UniformLinearArray(n_antennas=5, spacing=0.02, wavelength=0.056)
        snapshots = uncorrelated_snapshots(array, [60.0, 130.0], rng)
        grid = AngleGrid(n_points=181)
        steering = array.steering_matrix(grid.angles_deg)
        spectrum = music_angle_spectrum(
            snapshots, steering, grid.angles_deg, n_sources=2
        )
        peak_aoas = sorted(p.aoa_deg for p in spectrum.peaks(max_peaks=2))
        assert peak_aoas[0] == pytest.approx(60.0, abs=2.0)
        assert peak_aoas[1] == pytest.approx(130.0, abs=2.0)

    def test_degrades_with_snr(self, rng):
        """The paper's §II motivation: resolvability drops as SNR drops."""
        array = UniformLinearArray(n_antennas=3)
        grid = AngleGrid(n_points=181)
        steering = array.steering_matrix(grid.angles_deg)

        def sharpness(snr):
            snapshots = uncorrelated_snapshots(
                array, [150.0], np.random.default_rng(0), n_snapshots=30, snr=snr
            )
            spectrum = music_angle_spectrum(snapshots, steering, grid.angles_deg, n_sources=1)
            return spectrum.normalized().sharpness()

        assert sharpness(1000.0) > sharpness(0.5)

    def test_pseudospectrum_peaks_at_orthogonality(self):
        basis = np.array([[1.0], [0.0]], dtype=complex)  # noise space = e1
        steering = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        power = music_pseudospectrum(basis, steering)
        assert power[1] > power[0] * 1e6
