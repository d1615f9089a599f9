"""solve_batch: lockstep batching must be invisible per problem.

The contract under test (see ``repro/optim/batch.py``):

* the sequential solvers are ``B = 1`` calls of the lockstep kernels,
  so a singleton batch is **byte-identical** to the sequential solver;
* any larger batch matches the per-problem ``B = 1`` solves within the
  parity budget (1e-12 relative), for every method, at batch sizes that
  cross the internal column-block boundary;
* κ derivation and warm starts behave exactly like their sequential
  counterparts;
* malformed batches (and iteration caps below 1) fail loudly, never
  silently truncate;
* the fused in-place prox kernel equals its plain definition, the
  FISTA kernel matches the plain sequential reference loop of
  ``repro/optim/reference.py``, and the MMV kernel matches a plain
  ℓ2,1 loop built on ``row_soft_threshold``.
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
from repro.optim.fista import _prox_gradient_step
from repro.optim.linalg import row_soft_threshold, soft_threshold
from repro.optim.operators import as_operator
from repro.optim.reference import reference_lasso_fista
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
    """B == 1 through solve_batch and the front door run one kernel."""

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
        # 1e-6 runs every problem to the cap; under 1e-3 the stop rule
        # fires mid-batch at a different iteration per problem.
        for tolerance in (1e-6, 1e-3):
            batch = solve_batch(
                a, stacks, method="mmv", kappa=0.1, max_iterations=300, tolerance=tolerance
            )
            if tolerance > 1e-6:
                assert max(batch.iterations) < 300
                assert len(set(batch.iterations)) > 1
            for index, snapshots in enumerate(stacks):
                solo = solve_mmv_fista(
                    a, snapshots, 0.1, max_iterations=300, tolerance=tolerance
                )
                scale = max(1.0, float(np.abs(solo.x).max()))
                assert float(np.abs(batch.to_numpy()[index] - solo.x).max()) <= 1e-12 * scale
                assert batch.iterations[index] == solo.iterations
                assert batch.converged[index] == solo.converged

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

    @pytest.mark.parametrize("n_problems", (1, 2))
    @pytest.mark.parametrize("method", ("fista", "admm", "mmv", "omp"))
    def test_iteration_cap_below_one_rejected(self, rng, method, n_problems):
        """A zero cap must raise, never return an unconverged zero
        iterate — through solve_batch and through the front doors."""
        a, ys = make_batch(rng, n_problems)
        if method == "mmv":
            ys = [np.stack([y, y], axis=1) for y in ys]
        cap = {"sparsity": 0} if method == "omp" else {"max_iterations": 0}
        kappa = {} if method == "omp" else {"kappa": 0.1}
        with pytest.raises(SolverError, match=">= 1"):
            solve_batch(a, ys, method=method, **kappa, **cap)
        solo = {
            "fista": solve_lasso_fista,
            "admm": solve_lasso_admm,
            "mmv": solve_mmv_fista,
            "omp": solve_omp,
        }[method]
        with pytest.raises(SolverError, match=">= 1"):
            solo(a, ys[0], **kappa, **cap)

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


def plain_mmv_fista(a, snapshots, kappa, *, max_iterations, x0, penalty_weights=None):
    """Textbook ℓ2,1 FISTA: unfused and out of place, one problem at a time.

    Same program, step, stop rule (default tolerance) and warm start as
    :func:`solve_mmv_fista`; the prox is :func:`row_soft_threshold`.
    """
    operator = as_operator(a)
    step = 1.0 / (2.0 * operator.lipschitz())
    threshold = kappa * step
    if penalty_weights is not None:
        threshold = threshold * penalty_weights
    x = x0.copy()
    momentum_point = x.copy()
    t = 1.0
    for _ in range(max_iterations):
        gradient = 2.0 * operator.rmatvec(operator.matvec(momentum_point) - snapshots)
        x_next = row_soft_threshold(momentum_point - step * gradient, threshold)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum_point = x_next + ((t - 1.0) / t_next) * (x_next - x)
        delta = np.linalg.norm(x_next - x)
        scale = max(1.0, np.linalg.norm(x))
        x, t = x_next, t_next
        if delta <= 1e-6 * scale:
            break
    return x


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

    @pytest.mark.parametrize("weighted", (False, True))
    def test_fista_kernel_matches_the_plain_reference_loop(self, rng, weighted):
        """The fused lockstep FISTA, at B = 1 and inside a batch, follows
        the textbook unfused iteration to the parity budget."""
        a, ys = make_batch(rng, 5)
        weights = 0.5 + rng.random(a.shape[1]) if weighted else None
        batch = solve_batch(
            a, ys, method="fista", kappa=0.1, max_iterations=300, penalty_weights=weights
        )
        for index, y in enumerate(ys):
            reference = reference_lasso_fista(
                a, y, 0.1, max_iterations=300, penalty_weights=weights
            )
            solo = solve_lasso_fista(
                a, y, 0.1, max_iterations=300, penalty_weights=weights
            )
            scale = max(1.0, float(np.abs(reference).max()))
            assert float(np.abs(solo.x - reference).max()) <= 1e-12 * scale
            assert float(np.abs(batch.to_numpy()[index] - reference).max()) <= 1e-12 * scale

    @pytest.mark.parametrize("weighted", (False, True))
    def test_mmv_kernel_matches_the_plain_reference_loop(self, rng, weighted):
        """The lockstep ℓ2,1 kernel — at B = 1 and in a warm-started B = 5
        batch with one κ = 0 problem — follows the textbook loop.  Atom 0
        is a zero column; weighted, its weight is 0 too, so the cold solve
        meets a zero row under a zero threshold (0/0 in the shrink factor)."""
        a, ys = make_batch(rng, 5)
        a[:, 0] = 0.0
        n = a.shape[1]
        stacks = [np.stack([y, 0.9 * y + 0.1j * ys[0]], axis=1) for y in ys]
        weights = None
        if weighted:
            weights = 0.5 + rng.random(n)
            weights[::7] = 0.0
        kappas = [0.1, 0.2, 0.0, 0.05, 0.15]
        warm = 0.05 * _complex(rng, 5, n, 2)

        def check(x, reference):
            assert np.all(np.isfinite(x))
            scale = max(1.0, float(np.abs(reference).max()))
            assert float(np.abs(x - reference).max()) <= 1e-12 * scale

        solo = solve_mmv_fista(
            a, stacks[0], kappas[0], max_iterations=300, penalty_weights=weights
        )
        check(solo.x, plain_mmv_fista(
            a, stacks[0], kappas[0], max_iterations=300,
            x0=np.zeros((n, 2), dtype=complex), penalty_weights=weights,
        ))
        batch = solve_batch(
            a, stacks, method="mmv", kappa=kappas, max_iterations=300,
            x0=warm, penalty_weights=weights,
        )
        for index, (snapshots, kappa) in enumerate(zip(stacks, kappas)):
            check(batch.to_numpy()[index], plain_mmv_fista(
                a, snapshots, kappa, max_iterations=300,
                x0=warm[index], penalty_weights=weights,
            ))

    def test_prox_gradient_step_with_zero_thresholds(self, rng):
        """κ = 0 columns take the non-shrinking path; result is the bare
        gradient step (the fast path must not divide by |z|)."""
        momentum = _complex(rng, 5, 3)
        gradient = _complex(rng, 5, 3)
        expected = momentum - 0.25 * gradient
        produced = _prox_gradient_step(momentum, gradient.copy(), 0.25, np.zeros((1, 3)))
        np.testing.assert_allclose(produced, expected, atol=1e-13)
