"""Tests for the complex FISTA LASSO solver."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.obs import ConvergenceTrace
from repro.optim.fista import lasso_objective, solve_lasso_fista


def make_sparse_system(rng, m=40, n=160, k=3, noise=0.0):
    """A random Gaussian dictionary with a k-sparse complex ground truth."""
    a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(m)
    support = rng.choice(n, size=k, replace=False)
    x_true = np.zeros(n, dtype=complex)
    x_true[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k) + 2.0
    y = a @ x_true
    if noise > 0:
        y = y + noise * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return a, y, x_true, set(support.tolist())


class TestRecovery:
    def test_recovers_support_noiseless(self, rng):
        a, y, x_true, support = make_sparse_system(rng)
        result = solve_lasso_fista(a, y, kappa=0.02, max_iterations=800)
        top = set(np.argsort(np.abs(result.x))[-len(support):].tolist())
        assert top == support

    def test_recovers_support_noisy(self, rng):
        a, y, x_true, support = make_sparse_system(rng, noise=0.05)
        result = solve_lasso_fista(a, y, kappa=0.1, max_iterations=800)
        top = set(np.argsort(np.abs(result.x))[-len(support):].tolist())
        assert top == support

    def test_large_kappa_gives_zero_solution(self, rng):
        a, y, *_ = make_sparse_system(rng)
        huge = 10 * float(np.abs(2 * a.conj().T @ y).max())
        result = solve_lasso_fista(a, y, kappa=huge, max_iterations=50)
        assert np.allclose(result.x, 0)

    def test_kappa_zero_reduces_residual_to_noise_floor(self, rng):
        a, y, x_true, _ = make_sparse_system(rng)
        result = solve_lasso_fista(a, y, kappa=0.0, max_iterations=2000, tolerance=1e-10)
        residual = np.linalg.norm(a @ result.x - y)
        assert residual < 1e-3 * np.linalg.norm(y)


class TestConvergence:
    def test_objective_history_decreases_overall(self, rng):
        a, y, *_ = make_sparse_system(rng)
        telemetry = ConvergenceTrace()
        solve_lasso_fista(a, y, kappa=0.05, max_iterations=300, telemetry=telemetry)
        history = np.array(telemetry.objectives)
        assert history[-1] <= history[0]
        # FISTA is not strictly monotone, but the tail must be below the head.
        assert history[-1] <= history[len(history) // 2] + 1e-9

    def test_converged_flag_set_on_tight_problem(self, rng):
        a, y, *_ = make_sparse_system(rng)
        result = solve_lasso_fista(a, y, kappa=0.05, max_iterations=5000, tolerance=1e-8)
        assert result.converged

    def test_iteration_cap_respected(self, rng):
        a, y, *_ = make_sparse_system(rng)
        result = solve_lasso_fista(a, y, kappa=0.01, max_iterations=7, tolerance=0.0)
        assert result.iterations == 7
        assert not result.converged

    def test_warm_start_converges_faster(self, rng):
        a, y, *_ = make_sparse_system(rng)
        cold = solve_lasso_fista(a, y, kappa=0.05, max_iterations=2000, tolerance=1e-8)
        warm = solve_lasso_fista(
            a, y, kappa=0.05, max_iterations=2000, tolerance=1e-8, x0=cold.x
        )
        assert warm.iterations <= cold.iterations

    def test_precomputed_lipschitz_matches_auto(self, rng):
        a, y, *_ = make_sparse_system(rng)
        auto = solve_lasso_fista(a, y, kappa=0.05, max_iterations=400)
        manual = solve_lasso_fista(
            a, y, kappa=0.05, max_iterations=400, lipschitz=float(np.linalg.norm(a, 2) ** 2)
        )
        assert manual.objective == pytest.approx(auto.objective, rel=1e-3)


class TestObjective:
    def test_lasso_objective_formula(self, rng):
        a = rng.standard_normal((4, 6)) + 0j
        y = rng.standard_normal(4) + 0j
        x = rng.standard_normal(6) + 0j
        expected = np.linalg.norm(a @ x - y) ** 2 + 0.3 * np.abs(x).sum()
        assert lasso_objective(a, y, x, 0.3) == pytest.approx(expected)

    def test_result_objective_consistent_with_x(self, rng):
        a, y, *_ = make_sparse_system(rng)
        result = solve_lasso_fista(a, y, kappa=0.05, max_iterations=200)
        assert result.objective == pytest.approx(lasso_objective(a, y, result.x, 0.05))


class TestValidation:
    def test_rejects_negative_kappa(self, rng):
        a, y, *_ = make_sparse_system(rng)
        for kappa in (-1.0, np.nan, np.inf):
            with pytest.raises(SolverError, match="kappa"):
                solve_lasso_fista(a, y, kappa=kappa)

    def test_rejects_matrix_rhs(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError, match="1-D"):
            solve_lasso_fista(a, np.stack([y, y], axis=1), kappa=0.1)

    def test_rejects_bad_x0_shape(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError, match="x0"):
            solve_lasso_fista(a, y, kappa=0.1, x0=np.zeros(3))
        with pytest.raises(SolverError, match="x0"):
            solve_lasso_fista(a, y, kappa=0.1, x0=np.full(a.shape[1], np.nan))

    def test_rejects_bad_lipschitz(self, rng):
        """Only the operator's own zero bound takes the zero-dictionary
        shortcut; a supplied constant must be finite and positive."""
        a, y, *_ = make_sparse_system(rng)
        for lipschitz in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(SolverError, match="lipschitz"):
                solve_lasso_fista(a, y, kappa=0.1, lipschitz=lipschitz)

    def test_rejects_zero_iterations(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError):
            solve_lasso_fista(a, y, kappa=0.1, max_iterations=0)

    def test_zero_dictionary_returns_zero(self):
        result = solve_lasso_fista(np.zeros((4, 8)), np.zeros(4), kappa=0.1)
        assert np.all(result.x == 0)
        assert result.converged


class TestSolverResult:
    def test_support_property(self, rng):
        a, y, _, support = make_sparse_system(rng)
        result = solve_lasso_fista(a, y, kappa=0.1, max_iterations=800)
        assert support.issubset(set(result.support.tolist()))

    def test_sparsity_counts_significant_entries(self, rng):
        a, y, _, support = make_sparse_system(rng)
        result = solve_lasso_fista(a, y, kappa=0.1, max_iterations=800)
        assert result.sparsity(rtol=0.2) <= 2 * len(support)

    def test_sparsity_of_zero_vector(self, rng):
        a, y, *_ = make_sparse_system(rng)
        huge = 10 * float(np.abs(2 * a.conj().T @ y).max())
        result = solve_lasso_fista(a, y, kappa=huge, max_iterations=20)
        assert result.sparsity() == 0
