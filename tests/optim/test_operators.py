"""Operator/dense parity for the structured dictionary layer (ISSUE 2).

The whole point of :class:`KroneckerJointOperator` is to be *invisible*
numerically: every product it computes must match the materialized
``kron(G, S̃)`` to rounding, its Lipschitz constant must bound the dense
spectral norm, and only then is routing the hot solve paths through it
safe.  Instances are hypothesis-drawn seeds (the repo's idiom: the seed
fully determines the instance, so shrinking stays meaningful).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.optim import (
    DenseOperator,
    DictionaryOperator,
    KroneckerJointOperator,
    as_operator,
    solve_lasso_fista,
    solve_mmv_fista,
)
from repro.optim.linalg import estimate_lipschitz

from tests.optim.test_fista import make_sparse_system

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_kronecker(seed: int, n_subcarriers=5, n_delays=7, n_antennas=3, n_angles=11):
    rng = np.random.default_rng(seed)
    temporal = rng.normal(size=(n_subcarriers, n_delays)) + 1j * rng.normal(
        size=(n_subcarriers, n_delays)
    )
    spatial = rng.normal(size=(n_antennas, n_angles)) + 1j * rng.normal(
        size=(n_antennas, n_angles)
    )
    return KroneckerJointOperator(temporal, spatial), rng


class TestKroneckerParity:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_matvec_matches_dense(self, seed):
        operator, rng = random_kronecker(seed)
        dense = operator.to_dense()
        x = rng.normal(size=operator.shape[1]) + 1j * rng.normal(size=operator.shape[1])
        np.testing.assert_allclose(operator.matvec(x), dense @ x, atol=1e-10)
        np.testing.assert_allclose(operator @ x, dense @ x, atol=1e-10)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_rmatvec_matches_dense(self, seed):
        operator, rng = random_kronecker(seed)
        dense = operator.to_dense()
        r = rng.normal(size=operator.shape[0]) + 1j * rng.normal(size=operator.shape[0])
        np.testing.assert_allclose(operator.rmatvec(r), dense.conj().T @ r, atol=1e-10)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_snapshot_products_match_dense(self, seed):
        operator, rng = random_kronecker(seed)
        dense = operator.to_dense()
        p = 4
        x = rng.normal(size=(operator.shape[1], p)) + 1j * rng.normal(size=(operator.shape[1], p))
        r = rng.normal(size=(operator.shape[0], p)) + 1j * rng.normal(size=(operator.shape[0], p))
        np.testing.assert_allclose(operator.matvec(x), dense @ x, atol=1e-10)
        np.testing.assert_allclose(operator.rmatvec(r), dense.conj().T @ r, atol=1e-10)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_column_helpers_match_dense(self, seed):
        operator, rng = random_kronecker(seed)
        dense = operator.to_dense()
        np.testing.assert_allclose(
            operator.column_norms(), np.linalg.norm(dense, axis=0), atol=1e-10
        )
        indices = rng.choice(operator.shape[1], size=5, replace=False).tolist()
        np.testing.assert_allclose(operator.columns(indices), dense[:, indices], atol=1e-10)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_lipschitz_is_exact_spectral_norm(self, seed):
        operator, _ = random_kronecker(seed)
        dense = operator.to_dense()
        exact = float(np.linalg.norm(dense, ord=2) ** 2)
        assert operator.lipschitz() == pytest.approx(exact, rel=1e-9)
        # and therefore compatible with the (1%-inflated) power-iteration
        # estimate the dense path uses.
        assert exact <= estimate_lipschitz(dense) <= 1.05 * exact


class TestOperatorInterface:
    def test_as_operator_wraps_ndarray_and_passes_through(self, rng):
        matrix = rng.normal(size=(6, 9))
        wrapped = as_operator(matrix)
        assert isinstance(wrapped, DenseOperator)
        assert wrapped.to_dense() is matrix or np.shares_memory(wrapped.to_dense(), matrix)
        assert as_operator(wrapped) is wrapped
        assert isinstance(wrapped, DictionaryOperator)

    def test_estimate_lipschitz_identical_through_operator(self, rng):
        matrix = rng.normal(size=(10, 30)) + 1j * rng.normal(size=(10, 30))
        assert estimate_lipschitz(DenseOperator(matrix)) == estimate_lipschitz(matrix)

    def test_rejects_bad_operands(self):
        operator, _ = random_kronecker(0)
        with pytest.raises(SolverError):
            operator.matvec(np.zeros((2, 2, 2)))
        with pytest.raises(SolverError):
            operator.rmatvec(np.zeros((2, 2, 2)))
        with pytest.raises(SolverError):
            KroneckerJointOperator(np.array([1.0]), np.eye(2))
        with pytest.raises(SolverError):
            KroneckerJointOperator(np.full((2, 2), np.nan), np.eye(2))


class TestSolversThroughOperators:
    def test_fista_operator_matches_dense_solution(self, rng):
        a, y, *_ = make_sparse_system(rng)
        kappa = 0.05 * float(np.abs(2.0 * a.conj().T @ y).max())
        dense = solve_lasso_fista(a, y, kappa, max_iterations=2000, tolerance=1e-9)
        operated = solve_lasso_fista(
            DenseOperator(a), y, kappa, max_iterations=2000, tolerance=1e-9
        )
        np.testing.assert_allclose(operated.x, dense.x, atol=1e-10)

    def test_mmv_accepts_operator(self, rng):
        operator, _ = random_kronecker(3)
        y = rng.normal(size=(operator.shape[0], 3)) + 1j * rng.normal(size=(operator.shape[0], 3))
        kappa = 0.1 * float(2.0 * np.linalg.norm(operator.rmatvec(y), axis=1).max())
        # Same step size on both paths (the operator's default Lipschitz
        # is exact, the dense default is a 1%-inflated estimate; pinning
        # it makes the iterate sequences identical up to rounding).
        lipschitz = operator.lipschitz()
        from_operator = solve_mmv_fista(operator, y, kappa, max_iterations=500, lipschitz=lipschitz)
        from_dense = solve_mmv_fista(
            operator.to_dense(), y, kappa, max_iterations=500, lipschitz=lipschitz
        )
        np.testing.assert_allclose(from_operator.x, from_dense.x, atol=1e-8)


class TestBatchedProducts:
    @given(seeds, st.sampled_from([1, 7, 64]))
    @settings(max_examples=15, deadline=None)
    def test_matmul_batch_matches_dense(self, seed, batch_size):
        operator, rng = random_kronecker(seed)
        dense = operator.to_dense()
        stack = rng.normal(size=(batch_size, operator.shape[1])) + 1j * rng.normal(
            size=(batch_size, operator.shape[1])
        )
        np.testing.assert_allclose(
            operator.matmul_batch(stack), stack @ dense.T, atol=1e-10
        )
        residuals = rng.normal(size=(batch_size, operator.shape[0])) + 1j * rng.normal(
            size=(batch_size, operator.shape[0])
        )
        np.testing.assert_allclose(
            operator.rmatmul_batch(residuals), residuals @ dense.conj(), atol=1e-10
        )

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_matmul_batch_snapshot_stacks_match_dense(self, seed):
        operator, rng = random_kronecker(seed)
        dense = operator.to_dense()
        batch, p = 5, 3
        stack = rng.normal(size=(batch, operator.shape[1], p)) + 1j * rng.normal(
            size=(batch, operator.shape[1], p)
        )
        expected = np.stack([dense @ stack[b] for b in range(batch)], axis=0)
        np.testing.assert_allclose(operator.matmul_batch(stack), expected, atol=1e-10)

    def test_rejects_bad_ranks(self):
        operator, _ = random_kronecker(0)
        with pytest.raises(SolverError):
            operator.matmul_batch(np.zeros(operator.shape[1]))
        with pytest.raises(SolverError):
            operator.rmatmul_batch(np.zeros((2, 2, 2, 2)))


class TestWarmStart:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_warm_start_same_objective_fewer_iterations(self, seed):
        rng = np.random.default_rng(seed)
        a, y, *_ = make_sparse_system(rng, noise=0.01)
        kappa = 0.1 * float(np.abs(2.0 * a.conj().T @ y).max())
        cold = solve_lasso_fista(a, y, kappa, max_iterations=5000, tolerance=1e-8)
        assert cold.converged
        # Perturb the measurement slightly — the nearby-problem reuse the
        # sweep drivers rely on — and compare cold vs warm on it.
        y_next = y + 0.01 * (rng.normal(size=y.size) + 1j * rng.normal(size=y.size))
        cold_next = solve_lasso_fista(a, y_next, kappa, max_iterations=5000, tolerance=1e-8)
        warm_next = solve_lasso_fista(
            a, y_next, kappa, max_iterations=5000, tolerance=1e-8, x0=cold.x
        )
        assert warm_next.objective == pytest.approx(cold_next.objective, rel=1e-4)
        assert warm_next.iterations <= cold_next.iterations

    def test_warm_start_at_solution_converges_immediately(self, rng):
        a, y, *_ = make_sparse_system(rng)
        kappa = 0.1 * float(np.abs(2.0 * a.conj().T @ y).max())
        cold = solve_lasso_fista(a, y, kappa, max_iterations=5000, tolerance=1e-10)
        rewarmed = solve_lasso_fista(
            a, y, kappa, max_iterations=5000, tolerance=1e-6, x0=cold.x
        )
        assert rewarmed.converged
        assert rewarmed.iterations <= 5

    def test_x0_shape_is_validated(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError, match="x0"):
            solve_lasso_fista(a, y, 0.1, x0=np.zeros(3))
        with pytest.raises(SolverError, match="x0"):
            solve_mmv_fista(a, np.stack([y, y], axis=1), 0.1, x0=np.zeros((3, 1)))
