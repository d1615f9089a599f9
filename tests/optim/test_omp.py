"""Tests for orthogonal matching pursuit."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.optim.omp import solve_omp

from tests.optim.test_fista import make_sparse_system


class TestExactRecovery:
    def test_noiseless_exact_recovery(self, rng):
        a, y, x_true, support = make_sparse_system(rng, k=3)
        result = solve_omp(a, y, sparsity=3)
        assert set(result.support.tolist()) == support
        np.testing.assert_allclose(result.x, x_true, atol=1e-8)

    def test_residual_zero_after_exact_recovery(self, rng):
        a, y, *_ = make_sparse_system(rng, k=2)
        result = solve_omp(a, y, sparsity=2)
        assert result.objective < 1e-16

    def test_residual_tolerance_stops_early(self, rng):
        a, y, *_ = make_sparse_system(rng, k=2)
        result = solve_omp(a, y, sparsity=10, tolerance=1e-8)
        assert result.sparsity() <= 3

    def test_unknown_kwarg_still_plain_type_error(self, rng):
        a, y, *_ = make_sparse_system(rng, k=2)
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            solve_omp(a, y, sparsity=10, bogus=1)

    def test_zero_measurement_selects_nothing(self, rng):
        a, *_ = make_sparse_system(rng)
        result = solve_omp(a, np.zeros(a.shape[0], dtype=complex), sparsity=3)
        assert result.sparsity() == 0


class TestModelOrderSensitivity:
    """OMP *requires* the model order K — the weakness §III-A contrasts."""

    def test_underestimated_sparsity_misses_paths(self, rng):
        a, y, _, support = make_sparse_system(rng, k=4)
        result = solve_omp(a, y, sparsity=2)
        assert len(result.support) == 2
        assert set(result.support.tolist()) < support or not set(
            result.support.tolist()
        ).issuperset(support)

    def test_overestimated_sparsity_adds_spurious_atoms_under_noise(self, rng):
        a, y, _, support = make_sparse_system(rng, k=2, noise=0.3)
        result = solve_omp(a, y, sparsity=8)
        assert len(result.support) > len(support)


class TestValidation:
    def test_rejects_zero_sparsity(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError):
            solve_omp(a, y, sparsity=0)

    def test_rejects_matrix_rhs(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError):
            solve_omp(a, np.stack([y, y], axis=1), sparsity=2)

    def test_sparsity_capped_by_dimensions(self, rng):
        a, y, *_ = make_sparse_system(rng, m=10, n=20)
        result = solve_omp(a, y, sparsity=50)
        assert result.sparsity() <= 10

    def test_zero_columns_never_selected(self, rng):
        a, y, *_ = make_sparse_system(rng)
        a = a.copy()
        a[:, 0] = 0.0
        result = solve_omp(a, y, sparsity=5)
        assert 0 not in result.support
