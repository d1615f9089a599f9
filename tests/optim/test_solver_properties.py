"""Hypothesis-driven solver properties (ISSUE 1 satellite).

An invariant that example-based tests cannot pin: OMP recovers
exactly-sparse noiseless signals exactly.  (FISTA and MMV are certified
against Eq. 11/18 directly by the KKT oracle in ``test_optimality.py``.)

Instances are built from hypothesis-drawn seeds rather than raw drawn
floats: the seed fully determines the instance, shrinking stays
meaningful, and the dictionaries are orthonormal by construction, so
the properties hold by theory, not by luck.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import solve_omp

seeds = st.integers(min_value=0, max_value=2**32 - 1)


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
