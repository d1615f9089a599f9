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

from repro.channel.array import UniformLinearArray
from repro.channel.ofdm import SubcarrierLayout
from repro.core.grids import AngleGrid, DelayGrid
from repro.core.steering import SteeringCache
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

    @pytest.mark.parametrize("p", [1, 2, 6])
    @pytest.mark.parametrize("layout", ["c_order", "row_stack", "sliced"])
    def test_snapshot_products_match_kron_in_every_layout(self, p, layout):
        """The 2-D products match dense ``kron`` for C-ordered, transposed
        row-stack and non-contiguous operands; a row-stack operand comes
        back as the ``.T`` of a C-ordered row stack (no copy either way)."""
        operator, rng = random_kronecker(p)
        dense = operator.to_dense()
        m, n = operator.shape

        def operand(rows):
            draw = rng.normal(size=(2 * rows, 2 * p)) + 1j * rng.normal(size=(2 * rows, 2 * p))
            if layout == "c_order":
                return np.ascontiguousarray(draw[:rows, :p])
            if layout == "row_stack":
                return np.ascontiguousarray(draw[:rows, :p].T).T
            return draw[::2, ::2]

        x, r = operand(n), operand(m)
        for product, reference in (
            (operator.matvec(x), dense @ x),
            (operator.rmatvec(r), dense.conj().T @ r),
        ):
            assert product.shape == reference.shape
            scale = np.abs(reference).max()
            np.testing.assert_allclose(product, reference, rtol=0, atol=1e-12 * scale)
            if layout == "row_stack":
                assert product.T.flags.c_contiguous

    @pytest.mark.parametrize("p", [1, 2, 6])
    def test_line_layout_products_match_kron_on_both_routes(self, p):
        """The MMV kernel's products read and return measurement rows in
        ``line_order``; on that layout they match dense ``kron``: the full
        pair of the dense route, and the restricted forward, the row
        energies and the picked adjoint of the screened route."""
        operator, rng = random_kronecker(p, n_delays=9)
        dense = operator.to_dense()
        m, n = operator.shape
        order = operator.line_order
        assert sorted(order) == list(range(m))
        # Line a·L + l is antenna a, subcarrier l: row l·M + a.
        assert order[operator.n_subcarriers] == 1

        def close(product, reference):
            scale = np.abs(reference).max()
            np.testing.assert_allclose(product, reference, rtol=0, atol=1e-12 * scale)

        x = rng.normal(size=(n, p)) + 1j * rng.normal(size=(n, p))
        r = rng.normal(size=(m, p)) + 1j * rng.normal(size=(m, p))
        adjoint = dense.conj().T @ r
        lines = np.ascontiguousarray(r[order].T).T  # the kernel's row-stack view
        close(operator.matvec_lines(x), (dense @ x)[order])
        close(operator.rmatvec_lines(lines), adjoint)
        # Rows on two of the nine delays, so the forward stays restricted.
        rows = np.flatnonzero(np.isin(np.arange(n) // operator.n_angles, (2, 6)))
        restricted = np.zeros_like(x)
        restricted[rows] = x[rows]
        close(operator.matvec_rows(rows, x[rows], 1), (dense @ restricted)[order])
        bounds, stage = operator.rmatvec_energies(lines, p)
        energies = np.sum(np.abs(adjoint) ** 2, axis=1)
        assert np.all(bounds[0] >= energies)
        close(operator.row_energies(lines, p)[0], energies)
        mask = np.zeros((1, n), dtype=bool)
        mask[0, rows[::3]] = True
        close(operator.rmatvec_rows(stage, mask), adjoint[rows[::3]].T)

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

    @pytest.mark.parametrize("p", [1, 2, 6])
    def test_adjoint_writes_into_a_row_stack_out(self, p):
        """``rmatvec(r, out=)`` fills the ``.T`` of a ``(p, n)`` row stack
        with exactly the product it would return, and refuses any other
        buffer."""
        operator, rng = random_kronecker(p)
        m, n = operator.shape
        r = rng.normal(size=(m, p)) + 1j * rng.normal(size=(m, p))
        out = np.empty((p, n), dtype=complex).T
        assert operator.rmatvec(r, out=out) is out
        np.testing.assert_array_equal(out, operator.rmatvec(r))
        for bad in (
            np.empty((n, p), dtype=np.complex64),
            np.empty((p, n + 1), dtype=complex).T,
            np.empty((p, 2 * n), dtype=complex)[:, ::2].T,
        ):
            with pytest.raises(SolverError, match="out"):
                operator.rmatvec(r, out=bad)

    @pytest.mark.parametrize("real_factor", ["temporal", "spatial"])
    def test_real_factors_match_dense(self, rng, real_factor):
        """The real 2×2-block GEMMs hold for a real factor too."""
        temporal = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        spatial = rng.normal(size=(3, 11)) + 1j * rng.normal(size=(3, 11))
        if real_factor == "temporal":
            temporal = temporal.real.copy()
        else:
            spatial = spatial.real.copy()
        operator = KroneckerJointOperator(temporal, spatial)
        dense = operator.to_dense()
        x = rng.normal(size=(77, 3)) + 1j * rng.normal(size=(77, 3))
        r = rng.normal(size=(15, 3)) + 1j * rng.normal(size=(15, 3))
        for product, reference in (
            (operator.matvec(x), dense @ x),
            (operator.rmatvec(r), dense.conj().T @ r),
        ):
            scale = np.abs(reference).max()
            np.testing.assert_allclose(product, reference, rtol=0, atol=1e-12 * scale)

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


def steering_operator(n_angles: int, n_delays: int) -> KroneckerJointOperator:
    """The pipeline's joint operator on an ``n_angles × n_delays`` grid."""
    return SteeringCache(
        UniformLinearArray(), SubcarrierLayout(), AngleGrid(n_points=n_angles),
        DelayGrid(n_points=n_delays),
    ).joint_operator


def residual_stack(rng, operator, columns):
    m = operator.shape[0]
    return (rng.normal(size=(columns, m)) + 1j * rng.normal(size=(columns, m))).T


class TestRowScreen:
    """The MMV kernel's screened products: Gram-form row energies, the
    adjoint on chosen rows and the forward on the support rows."""

    @pytest.mark.parametrize("grid", ((61, 21), (91, 50)))
    @pytest.mark.parametrize("n_problems", (1, 3))
    @pytest.mark.parametrize("n_snapshots", (1, 2, 6))
    def test_energies_match_the_explicit_adjoint(self, rng, grid, n_problems, n_snapshots):
        operator = steering_operator(*grid)
        r = residual_stack(rng, operator, n_problems * n_snapshots)
        bounds, _ = operator.rmatvec_energies(r, n_snapshots)
        explicit, _ = DictionaryOperator.rmatvec_energies(operator, r, n_snapshots)
        adjoint = operator.rmatvec_lines(r).T.reshape(n_problems, n_snapshots, -1)
        np.testing.assert_allclose(explicit, np.sum(np.abs(adjoint) ** 2, axis=1), rtol=1e-13)
        assert bounds.shape == (n_problems, operator.shape[1])
        assert np.max(np.abs(bounds - explicit)) <= 1e-12 * explicit.max()

    @pytest.mark.parametrize("n_problems", (1, 3, 15))
    @pytest.mark.parametrize("n_snapshots", (1, 2, 6, 25))
    def test_gram_energies_without_slack_match_the_explicit_adjoint(
        self, rng, n_problems, n_snapshots
    ):
        """``row_energies`` (MUSIC's denominators) is the Gram form with no
        slack: within a few rounding errors of each delay's scale
        ``T_d = tr(Q_d)·maxᵢ‖s̃ᵢ‖²``, where the screen's slack alone is
        ``2(M² + 3M + p + 3)·ε·T_d``."""
        operator = steering_operator(91, 50)
        r = residual_stack(rng, operator, n_problems * n_snapshots)
        energies = operator.row_energies(r, n_snapshots)
        explicit = DictionaryOperator.row_energies(operator, r, n_snapshots)
        adjoint = operator.rmatvec_lines(r).T.reshape(n_problems, n_snapshots, -1)
        np.testing.assert_allclose(explicit, np.sum(np.abs(adjoint) ** 2, axis=1), rtol=1e-13)
        stage = np.ascontiguousarray(r.T).reshape(
            n_problems, n_snapshots, operator.n_antennas, operator.n_subcarriers
        ) @ np.conj(operator.temporal)
        steering = np.max(np.sum(np.abs(operator.spatial) ** 2, axis=0))
        scale = np.repeat(np.sum(np.abs(stage) ** 2, axis=(1, 2)) * steering, operator.n_angles, axis=1)
        assert energies.shape == (n_problems, operator.shape[1])
        assert np.all(np.abs(energies - explicit) <= 8 * np.finfo(float).eps * scale)

    def test_slack_covers_rounding_of_rows_near_zero(self, rng):
        """Rows far below their delay's energy, where rounding dominates:
        the bound still sits at or above the explicit sum."""
        operator = steering_operator(91, 50)
        for _ in range(5):
            r = residual_stack(rng, operator, 6)
            bounds, _ = operator.rmatvec_energies(r, 6)
            explicit, _ = DictionaryOperator.rmatvec_energies(operator, r, 6)
            assert np.all(bounds >= explicit)

    @pytest.mark.parametrize("n_problems", (1, 3))
    def test_rows_and_forward_are_bit_equal_to_the_full_products(self, rng, n_problems):
        operator = steering_operator(91, 50)
        n, p = operator.shape[1], 6
        r = residual_stack(rng, operator, n_problems * p)
        _, stage = operator.rmatvec_energies(r, p)
        # A few delays per problem, so the forward stays on its restricted lines.
        mask = np.zeros((n_problems, operator.n_delays, operator.n_angles), dtype=bool)
        for b in range(n_problems):
            delays = rng.choice(operator.n_delays, size=4, replace=False)
            mask[b, delays] = rng.random((4, operator.n_angles)) < 0.3
        mask = mask.reshape(n_problems, n)
        rows = np.flatnonzero(mask)
        full = operator.rmatvec_lines(r).T.reshape(n_problems, p, n)
        expected = full.transpose(1, 0, 2).reshape(p, -1)[:, rows]
        np.testing.assert_array_equal(operator.rmatvec_rows(stage, mask), expected)
        base_stage = DictionaryOperator.rmatvec_energies(operator, r, p)[1]
        np.testing.assert_array_equal(
            DictionaryOperator.rmatvec_rows(operator, base_stage, mask), expected
        )
        x = np.zeros((n_problems, p, n), dtype=complex)
        problem, column = np.divmod(rows, n)
        x[problem, :, column] = rng.normal(size=(len(rows), p)) + 1j
        stack = x.reshape(-1, n).T
        values = x[problem, :, column]
        np.testing.assert_array_equal(
            operator.matvec_rows(rows, values, n_problems), operator.matvec_lines(stack)
        )
        np.testing.assert_array_equal(
            DictionaryOperator.matvec_rows(operator, rows, values, n_problems),
            operator.matvec_lines(stack),
        )
        zeros = np.zeros_like(stack)
        np.testing.assert_array_equal(
            operator.matvec_rows(rows[:0], values[:0], n_problems), operator.matvec_lines(zeros)
        )

    def test_features_are_built_lazily_per_snapshot_count(self, rng):
        operator = steering_operator(61, 21)
        assert operator._energy_features == {}
        operator.rmatvec_energies(residual_stack(rng, operator, 6), 6)
        assert sorted(operator._energy_features) == [6]

    def test_screen_rule(self):
        assert steering_operator(91, 50).screen_snapshots == 6
        assert steering_operator(61, 21).screen_snapshots == np.inf
        assert DenseOperator(np.eye(3)).screen_snapshots == np.inf
