"""Solver telemetry hooks: recording, invariance, OMP residual monotonicity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import ConvergenceTrace
from repro.optim import (
    solve_lasso_fista,
    solve_mmv_fista,
    solve_omp,
)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    m, n = 24, 60
    matrix = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    x_true = np.zeros(n, dtype=complex)
    x_true[[4, 21, 50]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rhs = matrix @ x_true + 0.01 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return matrix, rhs


class TestRecording:
    def test_fista_records_every_iteration(self, problem):
        matrix, rhs = problem
        telemetry = ConvergenceTrace(solver="fista")
        result = solve_lasso_fista(matrix, rhs, 0.5, max_iterations=50, telemetry=telemetry)
        assert result.convergence is telemetry
        assert len(telemetry) == result.iterations
        assert all(norm >= 0 for norm in telemetry.residual_norms)
        assert telemetry.support_sizes[-1] > 0

    def test_callback_sees_iterates(self, problem):
        matrix, rhs = problem
        seen = []
        solve_lasso_fista(
            matrix, rhs, 0.5, max_iterations=20,
            callback=lambda i, x, obj: seen.append((i, x.shape, obj)),
        )
        iterations = [i for i, _, _ in seen]
        assert iterations == sorted(iterations)
        assert all(shape == (matrix.shape[1],) for _, shape, _ in seen)

    def test_callback_may_keep_its_iterates(self, problem):
        """The kernel updates its buffers in place; what a callback was
        handed must not change under it afterwards."""
        matrix, rhs = problem
        kept = []
        result = solve_lasso_fista(
            matrix, rhs, 0.5, max_iterations=20, tolerance=0.0,
            callback=lambda i, x, obj: kept.append(x),
        )
        assert len(kept) == 20
        np.testing.assert_array_equal(kept[-1], result.x)
        early = solve_lasso_fista(matrix, rhs, 0.5, max_iterations=5, tolerance=0.0)
        np.testing.assert_array_equal(kept[4], early.x)

    def test_no_telemetry_by_default(self, problem):
        matrix, rhs = problem
        assert solve_lasso_fista(matrix, rhs, 0.5, max_iterations=20).convergence is None

    @pytest.mark.parametrize("solver", ["mmv", "omp"])
    def test_every_solver_records(self, problem, solver):
        matrix, rhs = problem
        telemetry = ConvergenceTrace(solver=solver)
        if solver == "mmv":
            stacked = np.column_stack([rhs, rhs])
            result = solve_mmv_fista(matrix, stacked, 0.5, max_iterations=30, telemetry=telemetry)
        else:
            result = solve_omp(matrix, rhs, sparsity=3, telemetry=telemetry)
        assert result.convergence is telemetry
        assert len(telemetry) >= 1
        assert len(telemetry.objectives) == len(telemetry.residual_norms)
        assert len(telemetry.objectives) == len(telemetry.support_sizes)


class TestInvariance:
    """Telemetry observes — it must never change the solution."""

    def test_fista_solution_identical_with_telemetry(self, problem):
        matrix, rhs = problem
        plain = solve_lasso_fista(matrix, rhs, 0.5, max_iterations=60)
        traced = solve_lasso_fista(
            matrix, rhs, 0.5, max_iterations=60, telemetry=ConvergenceTrace()
        )
        np.testing.assert_array_equal(plain.x, traced.x)
        assert plain.iterations == traced.iterations

    def test_mmv_solution_identical_with_telemetry(self, problem):
        matrix, rhs = problem
        stacked = np.column_stack([rhs, 2 * rhs])
        plain = solve_mmv_fista(matrix, stacked, 0.5, max_iterations=40)
        traced = solve_mmv_fista(
            matrix, stacked, 0.5, max_iterations=40, telemetry=ConvergenceTrace()
        )
        np.testing.assert_array_equal(plain.x, traced.x)


class TestMonotonicity:
    def test_omp_residual_never_increases(self, problem):
        matrix, rhs = problem
        telemetry = ConvergenceTrace(solver="omp")
        solve_omp(matrix, rhs, sparsity=3, telemetry=telemetry)
        norms = telemetry.residual_norms
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
