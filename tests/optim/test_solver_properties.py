"""Hypothesis-driven solver properties (ISSUE 1 satellite).

Two cross-solver invariants that example-based tests cannot pin:

* FISTA and ADMM solve the *same* convex program, so on well-conditioned
  instances (unique minimizer) they must agree — solutions and objectives.
* OMP recovers exactly-sparse noiseless signals exactly.

Instances are built from hypothesis-drawn seeds rather than raw drawn
floats: the seed fully determines the instance, shrinking stays
meaningful, and conditioning is controlled by construction (orthonormal
basis × bounded singular values) so the properties hold by theory, not
by luck.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import solve_lasso_admm, solve_lasso_fista, solve_omp
from repro.optim.fista import lasso_objective

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def well_conditioned_system(seed: int, m: int = 24, n: int = 10, k: int = 3):
    """A LASSO instance with a unique minimizer.

    ``A = Q diag(s) V`` with orthonormal ``Q`` columns and singular
    values in [1, 2]: full column rank, condition number ≤ 2.  The
    measurement is a k-sparse complex signal plus small noise.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    singular_values = rng.uniform(1.0, 2.0, size=n)
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    matrix = q @ np.diag(singular_values) @ v

    x_true = np.zeros(n, dtype=complex)
    support = rng.choice(n, size=k, replace=False)
    x_true[support] = rng.normal(size=k) + 1j * rng.normal(size=k)
    noise = 0.01 * (rng.normal(size=m) + 1j * rng.normal(size=m))
    rhs = matrix @ x_true + noise
    return matrix, rhs


class TestFistaAdmmAgreement:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_same_minimizer_on_well_conditioned_lasso(self, seed):
        matrix, rhs = well_conditioned_system(seed)
        kappa = 0.1 * float(np.abs(2.0 * matrix.conj().T @ rhs).max())
        fista = solve_lasso_fista(
            matrix, rhs, kappa, max_iterations=4000, tolerance=1e-10
        )
        admm = solve_lasso_admm(matrix, rhs, kappa, max_iterations=4000, tolerance=1e-10)
        # Full column rank => strictly convex => unique minimizer.
        np.testing.assert_allclose(fista.x, admm.x, rtol=0, atol=2e-4)
        assert fista.objective == pytest.approx(admm.objective, rel=1e-6)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_neither_solver_beats_the_shared_optimum(self, seed):
        """Cross-check: each solver's point evaluated under the one true
        objective function — no solver may be meaningfully below the
        other (that would mean one of them didn't converge)."""
        matrix, rhs = well_conditioned_system(seed)
        kappa = 0.2 * float(np.abs(2.0 * matrix.conj().T @ rhs).max())
        fista = solve_lasso_fista(matrix, rhs, kappa, max_iterations=4000, tolerance=1e-10)
        admm = solve_lasso_admm(matrix, rhs, kappa, max_iterations=4000, tolerance=1e-10)
        f_at_fista = lasso_objective(matrix, rhs, fista.x, kappa)
        f_at_admm = lasso_objective(matrix, rhs, admm.x, kappa)
        assert abs(f_at_fista - f_at_admm) <= 1e-6 * max(1.0, f_at_fista)


class TestOmpExactRecovery:
    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_recovers_sparse_noiseless_signals(self, seed, k):
        """With orthonormal dictionary columns and no noise, OMP picks
        the true support in magnitude order and least-squares refit is
        exact — recovery is guaranteed, not probabilistic."""
        rng = np.random.default_rng(seed)
        m, n = 24, 12
        matrix, _ = np.linalg.qr(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
        x_true = np.zeros(n, dtype=complex)
        support = rng.choice(n, size=k, replace=False)
        x_true[support] = (rng.uniform(0.5, 2.0, size=k)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, size=k)
        )
        rhs = matrix @ x_true

        result = solve_omp(matrix, rhs, sparsity=k)
        np.testing.assert_allclose(result.x, x_true, atol=1e-10)
        assert set(result.support) == set(support.tolist())
        assert result.objective <= 1e-20

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_residual_tolerance_stops_early(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 24, 12
        matrix, _ = np.linalg.qr(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
        x_true = np.zeros(n, dtype=complex)
        x_true[rng.integers(n)] = 1.0
        rhs = matrix @ x_true
        # Allow up to 5 atoms, but a single atom already zeroes the
        # residual — OMP must stop there, not pad the support.
        result = solve_omp(matrix, rhs, sparsity=5, tolerance=1e-9)
        assert result.sparsity() == 1
