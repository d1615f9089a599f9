"""Tests for the ADMM LASSO solver and its cached factorization."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.obs import ConvergenceTrace
from repro.optim.admm import CachedAdmmFactors, solve_lasso_admm
from repro.optim.fista import solve_lasso_fista

from tests.optim.test_fista import make_sparse_system


class TestAgreementWithFista:
    """Both solvers minimize the same convex objective → same minimum."""

    def test_objectives_match_noiseless(self, rng):
        a, y, *_ = make_sparse_system(rng)
        fista = solve_lasso_fista(a, y, kappa=0.05, max_iterations=3000, tolerance=1e-9)
        admm = solve_lasso_admm(a, y, kappa=0.05, max_iterations=3000, tolerance=1e-9)
        assert admm.objective == pytest.approx(fista.objective, rel=1e-3)

    def test_solutions_match_on_support(self, rng):
        a, y, _, support = make_sparse_system(rng)
        fista = solve_lasso_fista(a, y, kappa=0.1, max_iterations=3000, tolerance=1e-9)
        admm = solve_lasso_admm(a, y, kappa=0.1, max_iterations=3000, tolerance=1e-9)
        for idx in support:
            assert abs(fista.x[idx] - admm.x[idx]) < 1e-2


class TestCachedFactors:
    def test_wide_matrix_uses_inversion_lemma(self, rng):
        a = rng.standard_normal((6, 30)) + 1j * rng.standard_normal((6, 30))
        factors = CachedAdmmFactors(a, rho=1.0)
        assert factors.wide
        q = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        direct = np.linalg.solve(a.conj().T @ a + np.eye(30), q)
        np.testing.assert_allclose(factors.solve(q), direct, rtol=1e-8, atol=1e-10)

    def test_tall_matrix_direct_factorization(self, rng):
        a = rng.standard_normal((30, 6))
        factors = CachedAdmmFactors(a, rho=2.0)
        assert not factors.wide
        q = rng.standard_normal(6)
        direct = np.linalg.solve(a.T @ a + 2.0 * np.eye(6), q)
        np.testing.assert_allclose(factors.solve(q), direct, rtol=1e-8)

    def test_reuse_across_rhs(self, rng):
        a, y, *_ = make_sparse_system(rng)
        factors = CachedAdmmFactors(a, rho=1.0)
        first = solve_lasso_admm(a, y, kappa=0.05, factors=factors)
        second = solve_lasso_admm(a, 2 * y, kappa=0.05, factors=factors)
        assert first.objective != second.objective  # genuinely different solves

    def test_mismatched_factors_rejected(self, rng):
        a, y, *_ = make_sparse_system(rng)
        other = CachedAdmmFactors(a, rho=3.0)
        with pytest.raises(SolverError, match="different"):
            solve_lasso_admm(a, y, kappa=0.05, rho=1.0, factors=other)

    def test_rejects_nonpositive_rho(self, rng):
        a, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError):
            CachedAdmmFactors(a, rho=0.0)

    def test_reuse_across_kappa(self, rng):
        """Regression (ISSUE 2): one factorization serves every κ.

        The factorization depends on (A, ρ) only; changing κ must not
        require (or silently trigger) a refactor.  A two-orders-of-
        magnitude κ spread through the *same* factors object must still
        land on each κ's own minimizer (cross-checked against FISTA).
        """
        a, y, *_ = make_sparse_system(rng)
        factors = CachedAdmmFactors(a, rho=1.0)
        for kappa in (0.05, 5.0):
            admm = solve_lasso_admm(
                a, y, kappa=kappa, factors=factors, max_iterations=3000, tolerance=1e-9
            )
            fista = solve_lasso_fista(a, y, kappa=kappa, max_iterations=3000, tolerance=1e-9)
            assert admm.objective == pytest.approx(fista.objective, rel=1e-3)

    def test_dense_operator_wrapper_shares_factors_with_its_array(self, rng):
        """solve_batch wraps the caller's matrix in a DenseOperator; the
        wrapper and the raw array must be interchangeable for reuse."""
        from repro.optim.operators import DenseOperator

        a, y, *_ = make_sparse_system(rng)
        factors = CachedAdmmFactors(a, rho=1.0)
        assert factors.matches(DenseOperator(a))
        result = solve_lasso_admm(DenseOperator(a), y, kappa=0.05, factors=factors)
        assert result.iterations >= 1

    def test_factors_accept_default_rho_solve(self, rng):
        """Factors built at the default ρ=1 work with an unspecified rho."""
        a, y, *_ = make_sparse_system(rng)
        factors = CachedAdmmFactors(a, rho=1.0)
        result = solve_lasso_admm(a, y, kappa=0.1, factors=factors)
        assert result.iterations >= 1


class TestValidation:
    def test_rejects_negative_kappa(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError):
            solve_lasso_admm(a, y, kappa=-0.5)

    def test_rejects_matrix_rhs(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError):
            solve_lasso_admm(a, np.stack([y, y], axis=1), kappa=0.1)

    def test_history_tracking(self, rng):
        a, y, *_ = make_sparse_system(rng)
        telemetry = ConvergenceTrace()
        solve_lasso_admm(a, y, kappa=0.1, max_iterations=50, tolerance=0.0,
                         telemetry=telemetry)
        assert len(telemetry.objectives) == 50
        assert telemetry.objectives[-1] <= telemetry.objectives[0]
