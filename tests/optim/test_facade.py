"""Tests for the unified ``repro.optim.solve`` facade (ISSUE 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.optim import (
    residual_kappa,
    solve,
    solve_lasso_admm,
    solve_lasso_fista,
    solve_mmv_fista,
    solve_omp,
    solve_reweighted_lasso,
    solve_sbl,
)

from tests.optim.test_fista import make_sparse_system


class TestDispatch:
    def test_default_method_is_fista(self, rng):
        a, y, *_ = make_sparse_system(rng)
        kappa = residual_kappa(a, y, fraction=0.1)
        via_facade = solve(a, y, kappa=kappa, max_iterations=500)
        direct = solve_lasso_fista(a, y, kappa, max_iterations=500)
        np.testing.assert_array_equal(via_facade.x, direct.x)
        assert via_facade.iterations == direct.iterations

    def test_admm_dispatch(self, rng):
        a, y, *_ = make_sparse_system(rng)
        kappa = residual_kappa(a, y, fraction=0.1)
        via_facade = solve(a, y, "admm", kappa=kappa, max_iterations=500)
        direct = solve_lasso_admm(a, y, kappa, max_iterations=500)
        np.testing.assert_array_equal(via_facade.x, direct.x)

    def test_mmv_dispatch(self, rng):
        a, y, *_ = make_sparse_system(rng)
        snapshots = np.stack([y, 1.1 * y], axis=1)
        via_facade = solve(a, snapshots, "mmv", kappa=0.5, max_iterations=300)
        direct = solve_mmv_fista(a, snapshots, 0.5, max_iterations=300)
        np.testing.assert_array_equal(via_facade.x, direct.x)

    def test_omp_dispatch(self, rng):
        a, y, *_ = make_sparse_system(rng)
        via_facade = solve(a, y, "omp", sparsity=3)
        direct = solve_omp(a, y, sparsity=3)
        np.testing.assert_array_equal(via_facade.x, direct.x)

    def test_reweighted_dispatch(self, rng):
        a, y, *_ = make_sparse_system(rng)
        via_facade = solve(a, y, "reweighted", kappa=0.5, max_iterations=300)
        direct = solve_reweighted_lasso(a, y, 0.5, max_iterations=300)
        np.testing.assert_array_equal(via_facade.x, direct.x)

    def test_sbl_dispatch(self, rng):
        a, y, *_ = make_sparse_system(rng)
        via_facade = solve(a, y, "sbl", max_iterations=30)
        direct = solve_sbl(a, y, max_iterations=30)
        np.testing.assert_array_equal(via_facade.x, direct.x)

    def test_unknown_method_rejected(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError, match="unknown method"):
            solve(a, y, "cvx")


class TestKappaHandling:
    def test_kappa_derived_when_omitted(self, rng):
        a, y, *_ = make_sparse_system(rng)
        implicit = solve(a, y, kappa_fraction=0.1, max_iterations=500)
        explicit = solve_lasso_fista(
            a, y, residual_kappa(a, y, fraction=0.1), max_iterations=500
        )
        np.testing.assert_array_equal(implicit.x, explicit.x)

    def test_mmv_kappa_derived_from_row_gradient(self, rng):
        a, y, *_ = make_sparse_system(rng)
        snapshots = np.stack([y, 1.1 * y], axis=1)
        result = solve(a, snapshots, "mmv", kappa_fraction=0.1, max_iterations=300)
        assert result.x.shape == (a.shape[1], 2)

    @pytest.mark.parametrize("method", ["omp", "sbl"])
    def test_kappa_rejected_by_kappa_free_methods(self, rng, method):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError, match="does not take a kappa"):
            solve(a, y, method, kappa=0.5)
