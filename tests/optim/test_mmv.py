"""Tests for the joint-sparse (MMV) solver."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.obs import ConvergenceTrace
from repro.optim.mmv import mmv_objective, solve_mmv_fista

from tests.optim.test_fista import make_sparse_system


def make_mmv_system(rng, m=30, n=120, k=3, p=5, noise=0.0):
    """Random dictionary with a row-sparse coefficient matrix."""
    a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(m)
    support = rng.choice(n, size=k, replace=False)
    x_true = np.zeros((n, p), dtype=complex)
    x_true[support] = rng.standard_normal((k, p)) + 1j * rng.standard_normal((k, p)) + 1.5
    y = a @ x_true
    if noise > 0:
        y = y + noise * (rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p)))
    return a, y, x_true, set(support.tolist())


class TestJointRecovery:
    def test_recovers_shared_support(self, rng):
        a, y, _, support = make_mmv_system(rng)
        result = solve_mmv_fista(a, y, kappa=0.05, max_iterations=600)
        row_norms = np.linalg.norm(result.x, axis=1)
        top = set(np.argsort(row_norms)[-len(support):].tolist())
        assert top == support

    def test_more_snapshots_beat_single_snapshot_under_noise(self, rng):
        """The SNR-pooling benefit that motivates multi-packet fusion."""
        a, y, _, support = make_mmv_system(rng, p=8, noise=0.4)
        joint = solve_mmv_fista(a, y, kappa=0.4, max_iterations=600)
        single = solve_mmv_fista(a, y[:, :1], kappa=0.4, max_iterations=600)

        def support_hits(x):
            row_norms = np.linalg.norm(np.atleast_2d(x.T).T, axis=1)
            top = set(np.argsort(row_norms)[-len(support):].tolist())
            return len(top & support)

        assert support_hits(joint.x) >= support_hits(single.x)

    def test_single_column_matches_vector_lasso(self, rng):
        a, y, *_ = make_sparse_system(rng)
        from repro.optim.fista import solve_lasso_fista

        vector = solve_lasso_fista(a, y, kappa=0.1, max_iterations=2000, tolerance=1e-9)
        matrix = solve_mmv_fista(a, y[:, None], kappa=0.1, max_iterations=2000, tolerance=1e-9)
        # ℓ2,1 of a one-column matrix is the ℓ1 norm → identical problems.
        np.testing.assert_allclose(matrix.x[:, 0], vector.x, atol=1e-3)

    def test_large_kappa_zeroes_everything(self, rng):
        a, y, *_ = make_mmv_system(rng)
        huge = 10 * float(np.linalg.norm(2 * a.conj().T @ y, axis=1).max())
        result = solve_mmv_fista(a, y, kappa=huge, max_iterations=50)
        assert np.all(result.x == 0)


class TestObjective:
    def test_objective_formula(self, rng):
        a, y, x_true, _ = make_mmv_system(rng)
        residual = a @ x_true - y
        expected = np.vdot(residual, residual).real + 0.2 * np.linalg.norm(x_true, axis=1).sum()
        assert mmv_objective(a, y, x_true, 0.2) == pytest.approx(expected)

    def test_history_tracking(self, rng):
        a, y, *_ = make_mmv_system(rng)
        telemetry = ConvergenceTrace()
        solve_mmv_fista(a, y, kappa=0.1, max_iterations=40, tolerance=0.0,
                        telemetry=telemetry)
        assert len(telemetry.objectives) == 40
        assert telemetry.objectives[-1] <= telemetry.objectives[0]


class TestValidation:
    def test_rejects_vector_rhs(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError, match="2-D"):
            solve_mmv_fista(a, y, kappa=0.1)

    def test_rejects_zero_columns(self, rng):
        a, *_ = make_mmv_system(rng)
        with pytest.raises(SolverError):
            solve_mmv_fista(a, np.zeros((a.shape[0], 0)), kappa=0.1)

    def test_rejects_negative_kappa(self, rng):
        a, y, *_ = make_mmv_system(rng)
        for kappa in (-0.1, np.nan, np.inf):
            with pytest.raises(SolverError, match="kappa"):
                solve_mmv_fista(a, y, kappa=kappa)

    def test_rejects_bad_lipschitz_and_warm_start(self, rng):
        a, y, *_ = make_mmv_system(rng)
        for lipschitz in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(SolverError, match="lipschitz"):
                solve_mmv_fista(a, y, kappa=0.1, lipschitz=lipschitz)
        x0 = np.zeros((a.shape[1], y.shape[1]), dtype=complex)
        x0[3, 1] = np.nan
        with pytest.raises(SolverError, match="x0"):
            solve_mmv_fista(a, y, kappa=0.1, x0=x0)

    def test_zero_dictionary_returns_zero(self):
        result = solve_mmv_fista(np.zeros((4, 8)), np.zeros((4, 2)), kappa=0.1)
        assert np.all(result.x == 0)
        assert result.x.shape == (8, 2)
