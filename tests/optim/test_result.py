"""Tests for the SolverResult container."""

import numpy as np

from repro.optim.result import SolverResult


class TestSupport:
    def test_vector_support(self):
        x = np.array([0.0, 1.0 + 1j, 0.0, -2.0])
        result = SolverResult(x=x, objective=0.0, iterations=1, converged=True)
        np.testing.assert_array_equal(result.support, [1, 3])

    def test_matrix_support_uses_row_norms(self):
        x = np.zeros((4, 2), dtype=complex)
        x[2] = [1.0, 1.0]
        result = SolverResult(x=x, objective=0.0, iterations=1, converged=True)
        np.testing.assert_array_equal(result.support, [2])

    def test_empty_support(self):
        result = SolverResult(x=np.zeros(5), objective=0.0, iterations=0, converged=True)
        assert result.support.size == 0


class TestSparsity:
    def test_counts_relative_to_peak(self):
        x = np.array([1.0, 0.5, 0.01, 0.0])
        result = SolverResult(x=x, objective=0.0, iterations=1, converged=True)
        assert result.sparsity(rtol=0.1) == 2
        assert result.sparsity(rtol=0.001) == 3

    def test_zero_vector_sparsity(self):
        result = SolverResult(x=np.zeros(3), objective=0.0, iterations=0, converged=True)
        assert result.sparsity() == 0

    def test_matrix_sparsity(self):
        x = np.zeros((3, 2))
        x[0] = [3.0, 4.0]
        x[1] = [0.01, 0.0]
        result = SolverResult(x=x, objective=0.0, iterations=1, converged=True)
        assert result.sparsity(rtol=0.1) == 1
