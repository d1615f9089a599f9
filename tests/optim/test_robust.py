"""Tests for outlier-augmented sparse recovery (repro.optim.robust)."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.optim import (
    FLOAT64_PARITY_TOLERANCE,
    DenseOperator,
    KroneckerJointOperator,
    OutlierAugmentedOperator,
    robust_lambda,
    robust_objective,
    robust_penalty_weights,
    solve_batch,
    solve_lasso_fista,
    solve_mmv_fista,
    solve_robust_lasso,
)


def make_corrupted_system(rng, m=60, n=120, k=4, n_outliers=6, noise=0.01, spike=3.0):
    """Gaussian dictionary, k-sparse truth, gross spikes on a few rows."""
    a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(m)
    support = rng.choice(n, size=k, replace=False)
    x_true = np.zeros(n, dtype=complex)
    x_true[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k) + 2.0
    y_clean = a @ x_true + noise * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    e_true = np.zeros(m, dtype=complex)
    bad = rng.choice(m, size=n_outliers, replace=False)
    e_true[bad] = spike * (rng.standard_normal(n_outliers) + 1j * rng.standard_normal(n_outliers))
    return a, y_clean, y_clean + e_true, x_true, e_true


class TestOutlierAugmentedOperator:
    def test_matches_dense_augmented_matrix(self, rng):
        a = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
        op = OutlierAugmentedOperator(DenseOperator(a))
        dense = np.concatenate([a, np.eye(12)], axis=1)
        z = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        r = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        np.testing.assert_allclose(op.matvec(z), dense @ z, rtol=1e-12)
        np.testing.assert_allclose(op.rmatvec(r), dense.conj().T @ r, rtol=1e-12)
        np.testing.assert_allclose(op.to_dense(), dense, rtol=1e-12)

    def test_matvec_accepts_2d_blocks(self, rng):
        a = rng.standard_normal((10, 15)) + 1j * rng.standard_normal((10, 15))
        op = OutlierAugmentedOperator(DenseOperator(a))
        dense = op.to_dense()
        z = rng.standard_normal((25, 3)) + 1j * rng.standard_normal((25, 3))
        np.testing.assert_allclose(op.matvec(z), dense @ z, rtol=1e-12)

    def test_lipschitz_is_exact(self, rng):
        a = rng.standard_normal((10, 18)) + 1j * rng.standard_normal((10, 18))
        op = OutlierAugmentedOperator(DenseOperator(a))
        dense = op.to_dense()
        exact = np.linalg.norm(dense.conj().T @ dense, ord=2)
        # base.lipschitz() is itself an estimate (power iteration) but the
        # augmentation adds exactly 1; allow the base estimate's slack.
        assert op.lipschitz() >= exact * (1 - 1e-6)
        assert op.lipschitz() <= exact * 1.10

    def test_kronecker_base_keeps_structure(self, rng):
        steering = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 11)))
        ramp = np.exp(1j * rng.uniform(0, 2 * np.pi, (8, 7)))
        base = KroneckerJointOperator(steering, ramp)
        op = OutlierAugmentedOperator(base)
        assert op.shape == (24, 77 + 24)
        z = rng.standard_normal(101) + 1j * rng.standard_normal(101)
        np.testing.assert_allclose(op.matvec(z), op.to_dense() @ z, rtol=1e-10)

    def test_columns_and_norms(self, rng):
        a = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        op = OutlierAugmentedOperator(DenseOperator(a))
        dense = op.to_dense()
        np.testing.assert_allclose(
            op.columns([0, 9, 14]), dense[:, [0, 9, 14]], rtol=1e-12
        )
        np.testing.assert_allclose(
            op.column_norms(), np.linalg.norm(dense, axis=0), rtol=1e-12
        )

    def test_split_rescales_error_block(self, rng):
        a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        op = OutlierAugmentedOperator(DenseOperator(a))
        z = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        x, e = op.split(z)
        np.testing.assert_allclose(x, z[:8])
        np.testing.assert_allclose(e, z[8:])


class TestPenaltyWeights:
    def test_weights_vector_layout(self):
        w = robust_penalty_weights(3, 2, kappa=0.5, lambda_outlier=1.5)
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0, 3.0, 3.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(SolverError):
            robust_penalty_weights(3, 2, kappa=0.0, lambda_outlier=1.0)
        with pytest.raises(SolverError):
            robust_penalty_weights(3, 2, kappa=1.0, lambda_outlier=-1.0)

    def test_weighted_fista_matches_scaled_problem(self, rng):
        # κ·Σ wⱼ|xⱼ| over A equals uniform κ over A·diag(1/w) after the
        # substitution x → diag(w)·x; minimizers map accordingly.
        a = rng.standard_normal((20, 30)) + 1j * rng.standard_normal((20, 30))
        y = a @ (rng.standard_normal(30) * (rng.random(30) < 0.2))
        w = rng.uniform(0.5, 2.0, 30)
        weighted = solve_lasso_fista(
            a, y, kappa=0.1, penalty_weights=w, max_iterations=3000, tolerance=1e-12
        )
        scaled = solve_lasso_fista(
            a / w[None, :], y, kappa=0.1, max_iterations=3000, tolerance=1e-12
        )
        np.testing.assert_allclose(weighted.x, scaled.x / w, atol=1e-5)

    def test_fista_rejects_bad_weights(self, rng):
        a = rng.standard_normal((6, 8))
        y = rng.standard_normal(6)
        with pytest.raises(SolverError):
            solve_lasso_fista(a, y, kappa=0.1, penalty_weights=np.ones(5))
        with pytest.raises(SolverError):
            solve_lasso_fista(a, y, kappa=0.1, penalty_weights=-np.ones(8))

    def test_mmv_weighted_prox_matches_unweighted_at_unit_weights(self, rng):
        a = rng.standard_normal((15, 25)) + 1j * rng.standard_normal((15, 25))
        y = rng.standard_normal((15, 3)) + 1j * rng.standard_normal((15, 3))
        plain = solve_mmv_fista(a, y, kappa=0.2, max_iterations=300)
        unit = solve_mmv_fista(
            a, y, kappa=0.2, penalty_weights=np.ones(25), max_iterations=300
        )
        np.testing.assert_allclose(plain.x, unit.x, atol=1e-10)


class TestRobustLasso:
    def test_absorbs_gross_corruption(self, rng):
        a, y_clean, y_corr, x_true, e_true = make_corrupted_system(rng)
        plain = solve_lasso_fista(a, y_corr, kappa=0.05, max_iterations=800)
        robust = solve_robust_lasso(a, y_corr, kappa=0.05, max_iterations=800)
        clean = solve_lasso_fista(a, y_clean, kappa=0.05, max_iterations=800)
        clean_err = np.linalg.norm(clean.x - x_true)
        assert np.linalg.norm(plain.x - x_true) > 10 * clean_err
        assert np.linalg.norm(robust.x - x_true) < 10 * clean_err
        # The recovered corruption tracks the injected spikes.
        assert np.linalg.norm(robust.e - e_true) < 0.2 * np.linalg.norm(e_true)

    def test_outlier_fraction_separates_clean_from_corrupted(self, rng):
        a, y_clean, y_corr, *_ = make_corrupted_system(rng)
        corrupted = solve_robust_lasso(a, y_corr, kappa=0.05, max_iterations=600)
        clean = solve_robust_lasso(a, y_clean, kappa=0.05, max_iterations=600)
        assert corrupted.outlier_fraction > 0.3
        assert clean.outlier_fraction < 0.01

    def test_huge_lambda_recovers_plain_lasso(self, rng):
        # Both runs must reach the (shared) minimizer: the augmented
        # operator has a larger Lipschitz constant, so finite-iteration
        # trajectories differ even though the minimizers coincide.
        a, _, y_corr, *_ = make_corrupted_system(rng)
        lam = robust_lambda(y_corr, fraction=1.0)
        robust = solve_robust_lasso(
            a, y_corr, kappa=0.05, lambda_outlier=lam,
            max_iterations=5000, tolerance=1e-10,
        )
        plain = solve_lasso_fista(
            a, y_corr, kappa=0.05, max_iterations=5000, tolerance=1e-10
        )
        assert np.all(robust.e == 0)
        # The overcomplete system leaves flat directions, so compare the
        # (unique) objective value plus a loose coefficient check.
        assert robust.objective == pytest.approx(plain.objective, rel=1e-6)
        np.testing.assert_allclose(robust.x, plain.x, atol=1e-2)

    def test_warm_start_reaches_same_solution_faster(self, rng):
        a, _, y_corr, *_ = make_corrupted_system(rng)
        cold = solve_robust_lasso(
            a, y_corr, kappa=0.05, max_iterations=2000, tolerance=1e-8
        )
        warm = solve_robust_lasso(
            a, y_corr, kappa=0.05, x0=cold.x, e0=cold.e,
            max_iterations=2000, tolerance=1e-8,
        )
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-4)

    def test_warm_start_blocks_checked_separately(self, rng):
        """x0 must be (n,) and e0 (m,) each: a 29 + 13 split of the 42
        augmented entries must not pass as the right total length."""
        a = rng.standard_normal((12, 30)) + 1j * rng.standard_normal((12, 30))
        y = a[:, 3] + a[:, 17]
        with pytest.raises(SolverError, match="x0 has shape"):
            solve_robust_lasso(a, y, 0.1, x0=np.zeros(29), e0=np.zeros(13))
        with pytest.raises(SolverError, match="e0 has shape"):
            solve_robust_lasso(a, y, 0.1, e0=np.zeros(13))

    def test_objective_matches_split_form(self, rng):
        a, _, y_corr, *_ = make_corrupted_system(rng)
        result = solve_robust_lasso(a, y_corr, kappa=0.05, max_iterations=300)
        expected = robust_objective(a, y_corr, result.x, result.e, 0.05, 0.1)
        assert result.objective == pytest.approx(expected, rel=1e-9)

    def test_rejects_nonpositive_kappa(self, rng):
        a, _, y_corr, *_ = make_corrupted_system(rng)
        with pytest.raises(SolverError):
            solve_robust_lasso(a, y_corr, kappa=0.0)
        with pytest.raises(SolverError):
            solve_robust_lasso(a, y_corr, kappa=0.05, lambda_outlier=-1.0)

    def test_robust_lambda_critical_value(self, rng):
        y = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert robust_lambda(y, fraction=1.0) == pytest.approx(2 * np.max(np.abs(y)))
        with pytest.raises(SolverError):
            robust_lambda(np.zeros(4))
        with pytest.raises(SolverError):
            robust_lambda(y, fraction=0.0)


class TestRobustMmv:
    def test_absorbs_row_corruption(self, rng):
        """The augmented ℓ2,1 program puts shared-row corruption into ``e``."""
        a, *_ = make_corrupted_system(rng)
        n = a.shape[1]
        support = rng.choice(n, size=4, replace=False)
        x_true = np.zeros((n, 3), dtype=complex)
        x_true[support, :] = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        y = a @ x_true + 0.01 * (rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3)))
        e_true = np.zeros((60, 3), dtype=complex)
        bad = rng.choice(60, size=6, replace=False)
        e_true[bad, :] = 3.0 * (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        augmented = OutlierAugmentedOperator(a)
        weights = robust_penalty_weights(n, 60, kappa=0.05, lambda_outlier=0.1)

        def robust(rhs):
            z = solve_mmv_fista(
                augmented, rhs, kappa=0.05, penalty_weights=weights, max_iterations=800
            ).x
            x, e = augmented.split(z)
            return x, float(np.sum(np.abs(e) ** 2) / np.sum(np.abs(rhs) ** 2))

        plain = solve_mmv_fista(a, y + e_true, kappa=0.05, max_iterations=800)
        x, outlier_fraction = robust(y + e_true)
        assert np.linalg.norm(x - x_true) < 0.2 * np.linalg.norm(plain.x - x_true)
        assert outlier_fraction > 0.3
        assert robust(y)[1] < 0.01


class TestBatchedRobust:
    def test_lockstep_batch_matches_sequential(self, rng):
        a, y_clean, y_corr, *_ = make_corrupted_system(rng)
        m, n = a.shape
        aug = OutlierAugmentedOperator(DenseOperator(a))
        weights = robust_penalty_weights(n, m, kappa=0.05, lambda_outlier=0.1)
        batch = solve_batch(
            aug,
            np.stack([y_corr, y_clean], axis=0),
            method="fista",
            kappa=0.05,
            penalty_weights=weights,
            max_iterations=400,
        )
        for row, y in zip(batch.x, (y_corr, y_clean)):
            sequential = solve_lasso_fista(
                aug, y, kappa=0.05, penalty_weights=weights, max_iterations=400
            )
            np.testing.assert_allclose(row, sequential.x, atol=1e-8)

    def test_batch_within_parity_budget_with_weights(self, rng):
        """Weighted lockstep columns stay within 1e-12 of their B = 1 solves."""
        a, y_clean, y_corr, *_ = make_corrupted_system(rng, m=30, n=50)
        aug = OutlierAugmentedOperator(DenseOperator(a))
        weights = robust_penalty_weights(50, 30, kappa=0.05, lambda_outlier=0.1)
        batch = solve_batch(
            aug,
            np.stack([y_corr, y_clean], axis=0),
            method="fista",
            kappa=0.05,
            penalty_weights=weights,
            max_iterations=200,
        )
        for row, y in zip(batch.x, (y_corr, y_clean)):
            single = solve_batch(
                aug, [y], method="fista", kappa=0.05,
                penalty_weights=weights, max_iterations=200,
            )
            scale = max(1.0, float(np.abs(single.x[0]).max()))
            assert float(np.abs(row - single.x[0]).max()) <= FLOAT64_PARITY_TOLERANCE * scale

    def test_mmv_batch_with_weights_matches_sequential(self, rng):
        a, *_ = make_corrupted_system(rng, m=30, n=50)
        aug = OutlierAugmentedOperator(DenseOperator(a))
        weights = robust_penalty_weights(50, 30, kappa=0.05, lambda_outlier=0.1)
        ys = rng.standard_normal((2, 30, 3)) + 1j * rng.standard_normal((2, 30, 3))
        batch = solve_batch(
            aug, ys, method="mmv", kappa=0.05,
            penalty_weights=weights, max_iterations=300,
        )
        for row, y in zip(batch.x, ys):
            sequential = solve_mmv_fista(
                aug, y, kappa=0.05, penalty_weights=weights, max_iterations=300
            )
            np.testing.assert_allclose(row, sequential.x, atol=1e-8)
