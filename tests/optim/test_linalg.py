"""Unit and property tests for repro.optim.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import SolverError
from repro.optim.linalg import (
    estimate_lipschitz,
    row_soft_threshold,
    soft_threshold,
    validate_system,
)

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


class TestSoftThreshold:
    def test_zero_threshold_is_identity(self):
        x = np.array([1 + 1j, -2.0, 0.5j])
        np.testing.assert_allclose(soft_threshold(x, 0.0), x)

    def test_kills_small_entries(self):
        x = np.array([0.1 + 0.0j, 1.0 + 0.0j])
        result = soft_threshold(x, 0.5)
        assert result[0] == 0.0
        assert result[1] == pytest.approx(0.5)

    def test_preserves_phase(self):
        x = np.array([2.0 * np.exp(1j * 0.7)])
        result = soft_threshold(x, 0.5)
        assert np.angle(result[0]) == pytest.approx(0.7)
        assert abs(result[0]) == pytest.approx(1.5)

    def test_real_input_matches_textbook_formula(self):
        x = np.array([-3.0, -0.2, 0.0, 0.2, 3.0])
        expected = np.array([-2.5, 0.0, 0.0, 0.0, 2.5])
        np.testing.assert_allclose(soft_threshold(x, 0.5).real, expected, atol=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(SolverError):
            soft_threshold(np.array([1.0]), -0.1)

    @given(arrays(np.complex128, st.integers(1, 20), elements=finite_complex),
           st.floats(0, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_magnitude_shrinks_by_at_most_threshold(self, x, threshold):
        result = soft_threshold(x, threshold)
        # |result| = max(|x| - t, 0) exactly.
        np.testing.assert_allclose(
            np.abs(result), np.maximum(np.abs(x) - threshold, 0.0), rtol=1e-9, atol=1e-9
        )

    @given(arrays(np.complex128, st.integers(1, 20), elements=finite_complex),
           st.floats(0, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_nonexpansive(self, x, threshold):
        """Proximal operators are 1-Lipschitz; check vs the zero vector."""
        result = soft_threshold(x, threshold)
        assert np.linalg.norm(result) <= np.linalg.norm(x) + 1e-9


class TestRowSoftThreshold:
    def test_zeroes_weak_rows_entirely(self):
        x = np.array([[0.1, 0.1], [3.0, 4.0]], dtype=complex)
        result = row_soft_threshold(x, 1.0)
        assert np.all(result[0] == 0)
        assert np.linalg.norm(result[1]) == pytest.approx(4.0)  # 5 − 1

    def test_preserves_row_direction(self):
        x = np.array([[3.0, 4.0]], dtype=complex)
        result = row_soft_threshold(x, 1.0)
        np.testing.assert_allclose(result[0] / np.linalg.norm(result[0]), x[0] / 5.0)

    def test_requires_2d(self):
        with pytest.raises(SolverError):
            row_soft_threshold(np.array([1.0, 2.0]), 0.1)

    def test_negative_threshold_rejected(self):
        with pytest.raises(SolverError):
            row_soft_threshold(np.ones((2, 2)), -1.0)

    def test_per_row_thresholds_match_row_by_row(self):
        x = np.array([[3.0, 4.0], [0.6, 0.8], [1.0, 0.0]], dtype=complex)
        thresholds = np.array([1.0, 2.0, 0.0])
        result = row_soft_threshold(x, thresholds)
        for row, threshold in enumerate(thresholds):
            np.testing.assert_array_equal(
                result[row], row_soft_threshold(x[row : row + 1], threshold)[0]
            )
        with pytest.raises(SolverError):
            row_soft_threshold(x, np.array([1.0, -1.0, 0.0]))

    def test_single_column_matches_scalar_soft_threshold(self):
        x = np.array([[1.5 + 0j], [0.3 + 0j], [-2.0 + 0j]])
        grouped = row_soft_threshold(x, 0.5)[:, 0]
        scalar = soft_threshold(x[:, 0], 0.5)
        np.testing.assert_allclose(grouped, scalar)


class TestEstimateLipschitz:
    def test_matches_exact_norm_on_small_matrix(self, rng):
        a = rng.standard_normal((10, 25)) + 1j * rng.standard_normal((10, 25))
        exact = np.linalg.norm(a, 2) ** 2
        estimate = estimate_lipschitz(a, iterations=200)
        assert exact <= estimate <= 1.05 * exact

    def test_zero_matrix(self):
        assert estimate_lipschitz(np.zeros((4, 6))) == 0.0

    def test_rejects_non_matrix(self):
        with pytest.raises(SolverError):
            estimate_lipschitz(np.zeros(5))

    def test_deterministic_given_seed(self, rng):
        a = rng.standard_normal((8, 12))
        assert estimate_lipschitz(a, seed=3) == estimate_lipschitz(a, seed=3)


class TestValidateSystem:
    def test_accepts_consistent_system(self, rng):
        validate_system(rng.standard_normal((5, 9)), rng.standard_normal(5))

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(SolverError, match="incompatible"):
            validate_system(rng.standard_normal((5, 9)), rng.standard_normal(6))

    def test_rejects_nan_dictionary(self):
        bad = np.full((3, 4), np.nan)
        with pytest.raises(SolverError, match="non-finite"):
            validate_system(bad, np.zeros(3))

    def test_rejects_inf_measurement(self):
        with pytest.raises(SolverError, match="non-finite"):
            validate_system(np.ones((3, 4)), np.array([1.0, np.inf, 0.0]))

    def test_rejects_3d_rhs(self):
        with pytest.raises(SolverError):
            validate_system(np.ones((3, 4)), np.ones((3, 2, 2)))
