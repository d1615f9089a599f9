"""solve_batch: lockstep batching must be invisible per problem.

The contract under test (see ``repro/optim/batch.py``):

* a singleton batch is **byte-identical** to the sequential solver;
* any larger batch matches the per-problem sequential loop within the
  parity budget (1e-12 relative), for every method, at batch sizes that
  cross the internal column-block boundary;
* κ derivation, warm starts, and the parity gate behave exactly like
  their sequential counterparts;
* malformed batches fail loudly, never silently truncate;
* the fused in-place prox/momentum kernels equal their plain
  definitions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.optim import (
    BatchSolverResult,
    solve_batch,
    solve_lasso_admm,
    solve_lasso_fista,
    solve_mmv_fista,
    solve_omp,
)
from repro.optim.admm import CachedAdmmFactors
from repro.optim.batch import _momentum_combine, _prox_gradient_step
from repro.optim.linalg import soft_threshold
from repro.optim.tuning import mmv_residual_kappa, residual_kappa

from tests.optim.test_fista import make_sparse_system

# 7 exercises a single partial block; 33 crosses the 16-column block
# boundary twice, catching any per-block bookkeeping slip.
BATCH_SIZES = (7, 33)


def make_batch(rng, n_problems, m=40, n=160, noise=0.05):
    a, _, x_true, _ = make_sparse_system(rng, m=m, n=n, noise=noise)
    ys = []
    for _ in range(n_problems):
        jitter = noise * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        ys.append(a @ x_true + jitter)
    return a, ys


class TestSingletonByteIdentity:
    """B == 1 delegates to the sequential solver outright."""

    def test_fista(self, rng):
        a, ys = make_batch(rng, 1)
        solo = solve_lasso_fista(a, ys[0], 0.1, max_iterations=300)
        batch = solve_batch(a, ys, method="fista", kappa=0.1, max_iterations=300)
        np.testing.assert_array_equal(batch.to_numpy()[0], solo.x)
        assert batch.objectives[0] == solo.objective
        assert batch.iterations[0] == solo.iterations

    def test_admm(self, rng):
        a, ys = make_batch(rng, 1)
        solo = solve_lasso_admm(a, ys[0], 0.1, max_iterations=300)
        batch = solve_batch(a, ys, method="admm", kappa=0.1, max_iterations=300)
        np.testing.assert_array_equal(batch.to_numpy()[0], solo.x)

    def test_omp(self, rng):
        a, ys = make_batch(rng, 1, noise=0.0)
        solo = solve_omp(a, ys[0], sparsity=3)
        batch = solve_batch(a, ys, method="omp", sparsity=3)
        np.testing.assert_array_equal(batch.to_numpy()[0], solo.x)

    def test_mmv(self, rng):
        a, ys = make_batch(rng, 1)
        snapshots = np.stack([ys[0], 1.1 * ys[0]], axis=1)
        solo = solve_mmv_fista(a, snapshots, 0.1, max_iterations=300)
        batch = solve_batch(a, [snapshots], method="mmv", kappa=0.1, max_iterations=300)
        np.testing.assert_array_equal(batch.to_numpy()[0], solo.x)


class TestBatchedMatchesSequentialLoop:
    @pytest.mark.parametrize("n_problems", BATCH_SIZES)
    def test_fista(self, rng, n_problems):
        a, ys = make_batch(rng, n_problems)
        batch = solve_batch(a, ys, method="fista", kappa=0.1, max_iterations=300)
        for index, y in enumerate(ys):
            solo = solve_lasso_fista(a, y, 0.1, max_iterations=300)
            scale = max(1.0, float(np.abs(solo.x).max()))
            assert float(np.abs(batch.to_numpy()[index] - solo.x).max()) <= 1e-12 * scale
            assert batch.iterations[index] == solo.iterations
            assert batch.converged[index] == solo.converged

    @pytest.mark.parametrize("n_problems", BATCH_SIZES)
    def test_admm(self, rng, n_problems):
        a, ys = make_batch(rng, n_problems)
        batch = solve_batch(a, ys, method="admm", kappa=0.1, max_iterations=300)
        for index, y in enumerate(ys):
            solo = solve_lasso_admm(a, y, 0.1, max_iterations=300)
            scale = max(1.0, float(np.abs(solo.x).max()))
            assert float(np.abs(batch.to_numpy()[index] - solo.x).max()) <= 1e-12 * scale

    @pytest.mark.parametrize("n_problems", BATCH_SIZES)
    def test_omp(self, rng, n_problems):
        a, ys = make_batch(rng, n_problems, noise=0.0)
        batch = solve_batch(a, ys, method="omp", sparsity=3)
        for index, y in enumerate(ys):
            solo = solve_omp(a, y, sparsity=3)
            scale = max(1.0, float(np.abs(solo.x).max()))
            assert float(np.abs(batch.to_numpy()[index] - solo.x).max()) <= 1e-12 * scale

    def test_mmv(self, rng):
        a, ys = make_batch(rng, 7)
        stacks = [np.stack([y, 0.9 * y], axis=1) for y in ys]
        batch = solve_batch(a, stacks, method="mmv", kappa=0.1, max_iterations=300)
        for index, snapshots in enumerate(stacks):
            solo = solve_mmv_fista(a, snapshots, 0.1, max_iterations=300)
            scale = max(1.0, float(np.abs(solo.x).max()))
            assert float(np.abs(batch.to_numpy()[index] - solo.x).max()) <= 1e-12 * scale

    def test_per_problem_kappa_sequence(self, rng):
        a, ys = make_batch(rng, 7)
        kappas = [0.05 * (1 + index) for index in range(7)]
        batch = solve_batch(a, ys, method="fista", kappa=kappas, max_iterations=300)
        for index, (y, kappa) in enumerate(zip(ys, kappas)):
            solo = solve_lasso_fista(a, y, kappa, max_iterations=300)
            scale = max(1.0, float(np.abs(solo.x).max()))
            assert float(np.abs(batch.to_numpy()[index] - solo.x).max()) <= 1e-12 * scale

    def test_derived_kappas_match_sequential_derivation(self, rng):
        a, ys = make_batch(rng, 5)
        batch = solve_batch(a, ys, method="fista", kappa_fraction=0.07, max_iterations=50)
        expected = tuple(residual_kappa(a, y, fraction=0.07) for y in ys)
        assert batch.kappas == pytest.approx(expected, rel=0, abs=0)

    def test_derived_mmv_kappas(self, rng):
        a, ys = make_batch(rng, 3)
        stacks = [np.stack([y, y], axis=1) for y in ys]
        batch = solve_batch(a, stacks, method="mmv", max_iterations=50)
        expected = tuple(mmv_residual_kappa(a, s, fraction=0.05) for s in stacks)
        assert batch.kappas == pytest.approx(expected, rel=0, abs=0)

    def test_shared_admm_factors_across_blocks(self, rng):
        """One caller-provided factorization serves the whole batch."""
        a, ys = make_batch(rng, 33)
        factors = CachedAdmmFactors(a, rho=1.0)
        batch = solve_batch(
            a, ys, method="admm", kappa=0.1, factors=factors, max_iterations=200
        )
        plain = solve_batch(a, ys, method="admm", kappa=0.1, max_iterations=200)
        np.testing.assert_array_equal(batch.to_numpy(), plain.to_numpy())


class TestWarmStart:
    def test_warm_start_matches_sequential_warm_loop(self, rng):
        a, ys = make_batch(rng, 7)
        first = solve_batch(a, ys, method="fista", kappa=0.1, max_iterations=300)
        nudged = [
            y + 0.01 * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
            for y in ys
        ]
        warm = solve_batch(
            a, nudged, method="fista", kappa=0.1, max_iterations=300, x0=first
        )
        for index, y in enumerate(nudged):
            solo = solve_lasso_fista(
                a, y, 0.1, max_iterations=300, x0=first.to_numpy()[index]
            )
            scale = max(1.0, float(np.abs(solo.x).max()))
            assert float(np.abs(warm.to_numpy()[index] - solo.x).max()) <= 1e-12 * scale

    def test_warm_start_accepts_plain_array(self, rng):
        a, ys = make_batch(rng, 3)
        x0 = np.zeros((3, a.shape[1]), dtype=complex)
        cold = solve_batch(a, ys, method="fista", kappa=0.1, max_iterations=100)
        warmed = solve_batch(a, ys, method="fista", kappa=0.1, max_iterations=100, x0=x0)
        np.testing.assert_array_equal(cold.to_numpy(), warmed.to_numpy())

    def test_warm_start_shape_is_validated(self, rng):
        a, ys = make_batch(rng, 3)
        with pytest.raises(SolverError, match="x0 has shape"):
            solve_batch(a, ys, method="fista", kappa=0.1, x0=np.zeros((2, a.shape[1])))

    def test_warm_start_rejected_for_greedy_methods(self, rng):
        a, ys = make_batch(rng, 3)
        with pytest.raises(SolverError, match="warm start"):
            solve_batch(a, ys, method="omp", sparsity=2, x0=np.zeros((3, a.shape[1])))


class TestParityGate:
    def test_gate_passes_and_attaches_report(self, rng):
        a, ys = make_batch(rng, 7)
        batch = solve_batch(
            a, ys, method="fista", kappa=0.1, max_iterations=200, parity_gate=True
        )
        assert batch.parity["passed"]
        assert batch.parity["precision"] == "double"
        assert batch.parity["n_problems"] == 7
        assert batch.parity["max_relative_deviation"] <= batch.parity["tolerance"]

    def test_gate_raises_on_forced_violation(self, rng):
        # tolerance 0 cannot absorb the batched-GEMM rounding difference,
        # so the gate must trip — proving it actually compares solutions.
        a, ys = make_batch(rng, 7)
        with pytest.raises(SolverError, match="parity gate failed"):
            solve_batch(
                a, ys, method="fista", kappa=0.1, max_iterations=200,
                parity_gate=True, parity_tolerance=0.0,
            )


class TestValidation:
    def test_empty_batch(self, rng):
        a, _ = make_batch(rng, 1)
        with pytest.raises(SolverError, match="empty batch"):
            solve_batch(a, [], method="fista", kappa=0.1)

    def test_ragged_batch(self, rng):
        a, ys = make_batch(rng, 2)
        with pytest.raises(SolverError, match="ragged"):
            solve_batch(a, [ys[0], ys[1][:-1]], method="fista", kappa=0.1)

    def test_unknown_method(self, rng):
        a, ys = make_batch(rng, 2)
        with pytest.raises(SolverError, match="does not support method"):
            solve_batch(a, ys, method="sbl")

    def test_unknown_option(self, rng):
        a, ys = make_batch(rng, 2)
        with pytest.raises(SolverError, match="does not accept options"):
            solve_batch(a, ys, method="fista", kappa=0.1, sparsity=3)

    def test_kappa_length_mismatch(self, rng):
        a, ys = make_batch(rng, 3)
        with pytest.raises(SolverError, match="kappa sequence has length"):
            solve_batch(a, ys, method="fista", kappa=[0.1, 0.2])

    def test_omp_rejects_kappa(self, rng):
        a, ys = make_batch(rng, 2)
        with pytest.raises(SolverError, match="kappa"):
            solve_batch(a, ys, method="omp", sparsity=2, kappa=0.1)

    def test_dimension_mismatch(self, rng):
        a, ys = make_batch(rng, 2)
        with pytest.raises(SolverError, match="incompatible"):
            solve_batch(a, [y[:-1] for y in ys], method="fista", kappa=0.1)

    def test_wrong_rank_for_method(self, rng):
        a, ys = make_batch(rng, 2)
        with pytest.raises(SolverError, match="2-D"):
            solve_batch(a, ys, method="mmv", kappa=0.1)

    def test_removed_backend_options_raise_type_error(self, rng):
        """Callers still passing the retired backend/precision options
        fail loudly instead of having them silently ignored."""
        from repro.serve.service import ServeConfig

        a, ys = make_batch(rng, 2)
        with pytest.raises(TypeError, match="backend"):
            solve_batch(a, ys, method="fista", kappa=0.1, backend="numpy")
        with pytest.raises(TypeError, match="dtype"):
            ServeConfig(dtype="complex64")

    def test_non_finite_measurements(self, rng):
        a, ys = make_batch(rng, 2)
        ys[1][0] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            solve_batch(a, ys, method="fista", kappa=0.1, max_iterations=10)


class TestResultApi:
    def test_result_shape_and_problem_slices(self, rng):
        a, ys = make_batch(rng, 4)
        batch = solve_batch(a, ys, method="fista", kappa=0.1, max_iterations=100)
        assert isinstance(batch, BatchSolverResult)
        assert batch.n_problems == 4
        assert batch.to_numpy().shape == (4, a.shape[1])
        assert batch.to_numpy().dtype == np.complex128
        one = batch.problem(2)
        assert one.solver == "fista"
        np.testing.assert_array_equal(one.x, batch.to_numpy()[2])
        assert one.objective == batch.objectives[2]


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestFusedKernels:
    """The lockstep engine's in-place kernels against their definitions."""

    def test_soft_threshold_matches_reference(self, rng):
        x = _complex(rng, 6, 4)
        thresholds = np.abs(rng.standard_normal((1, 4)))
        magnitude = np.abs(x)
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = np.where(
                magnitude > 0,
                x * np.maximum(magnitude - thresholds, 0.0)
                / np.where(magnitude > 0, magnitude, 1.0),
                0.0,
            )
        np.testing.assert_allclose(soft_threshold(x, thresholds), expected, atol=1e-13)

    def test_fused_kernels_match_their_generic_definitions(self, rng):
        """The in-place kernels must equal the plain compositions — and
        must honor the clobber contract (momentum untouched)."""
        momentum = _complex(rng, 6, 4)
        gradient = _complex(rng, 6, 4)
        thresholds = np.abs(rng.standard_normal((1, 4))) * 0.3
        step2 = 0.125
        expected = soft_threshold(momentum - step2 * gradient, thresholds)
        # The kernel may clobber the gradient buffer — hand it a copy so
        # the reference operands stay pristine for the momentum check.
        passed_momentum = momentum.copy()
        produced = _prox_gradient_step(passed_momentum, gradient.copy(), step2, thresholds)
        np.testing.assert_allclose(produced, expected, atol=1e-13)
        np.testing.assert_allclose(passed_momentum, momentum, atol=0)

        candidate = _complex(rng, 6, 4)
        previous = _complex(rng, 6, 4)
        expected_momentum = candidate + 0.75 * (candidate - previous)
        combined = _momentum_combine(candidate, previous.copy(), 0.75)
        np.testing.assert_allclose(combined, expected_momentum, atol=1e-13)

    def test_prox_gradient_step_with_zero_thresholds(self, rng):
        """κ = 0 columns take the non-shrinking path; result is the bare
        gradient step (the fast path must not divide by |z|)."""
        momentum = _complex(rng, 5, 3)
        gradient = _complex(rng, 5, 3)
        expected = momentum - 0.25 * gradient
        produced = _prox_gradient_step(momentum, gradient.copy(), 0.25, np.zeros((1, 3)))
        np.testing.assert_allclose(produced, expected, atol=1e-13)
