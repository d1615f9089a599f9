"""Tests for the κ-selection heuristics."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.optim.fista import solve_lasso_fista
from repro.optim.tuning import residual_kappa

from tests.optim.test_fista import make_sparse_system


class TestResidualKappa:
    def test_fraction_one_would_zero_the_solution(self, rng):
        """κ at fraction→1 approaches the smallest κ with x = 0 optimal."""
        a, y, *_ = make_sparse_system(rng)
        boundary = residual_kappa(a, y, fraction=0.999)
        result = solve_lasso_fista(a, y, kappa=boundary * 1.1, max_iterations=300)
        assert np.all(np.abs(result.x) < 1e-6)

    def test_small_fraction_keeps_solution_nonzero(self, rng):
        a, y, *_ = make_sparse_system(rng)
        kappa = residual_kappa(a, y, fraction=0.05)
        result = solve_lasso_fista(a, y, kappa=kappa, max_iterations=300)
        assert result.sparsity() > 0

    def test_scales_linearly_with_measurement(self, rng):
        a, y, *_ = make_sparse_system(rng)
        assert residual_kappa(a, 3 * y) == pytest.approx(3 * residual_kappa(a, y))

    def test_rejects_bad_fraction(self, rng):
        a, y, *_ = make_sparse_system(rng)
        for fraction in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(SolverError):
                residual_kappa(a, y, fraction=fraction)

    def test_rejects_orthogonal_measurement(self, rng):
        a = np.eye(4)[:, :2]
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(SolverError, match="orthogonal"):
            residual_kappa(a, y)

