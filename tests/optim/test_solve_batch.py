"""solve_batch: lockstep batching must be invisible per problem.

The contract under test (see ``repro/optim/batch.py``):

* the sequential solvers are ``B = 1`` calls of the lockstep kernels,
  so a singleton batch is **byte-identical** to the sequential solver;
* any larger batch matches the per-problem ``B = 1`` solves within the
  parity budget (1e-12 relative), for both methods, at batch sizes that
  cross the internal column-block boundary;
* κ derivation and warm starts behave exactly like their sequential
  counterparts;
* malformed batches, non-finite κ / Lipschitz / warm-start inputs and
  iteration caps below 1 fail loudly, never silently truncate;
* the ℓ1 LASSO is the one-column ℓ2,1 program, solved bit for bit by
  the same kernel; that kernel matches the plain sequential reference
  loop of ``repro/optim/reference.py`` on ℓ1 problems, and a plain loop
  built on ``soft_threshold`` (one column) or ``row_soft_threshold``
  (two columns) on ℓ2,1 problems.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.optim import (
    BatchSolverResult,
    WarmStartState,
    solve_batch,
    solve_lasso_fista,
    solve_mmv_fista,
)
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

    def test_mmv(self, rng):
        a, ys = make_batch(rng, 1)
        snapshots = np.stack([ys[0], 1.1 * ys[0]], axis=1)
        solo = solve_mmv_fista(a, snapshots, 0.1, max_iterations=300)
        batch = solve_batch(a, [snapshots], method="mmv", kappa=0.1, max_iterations=300)
        np.testing.assert_array_equal(batch.to_numpy()[0], solo.x)

    @pytest.mark.parametrize("n_problems", (1, 7))
    def test_lasso_is_the_one_column_mmv_solve(self, rng, n_problems):
        """Front doors and solve_batch (κ derived too): an ℓ1 solve of y
        equals, bit for bit, the ℓ2,1 solve of the column y[:, None]."""
        a, ys = make_batch(rng, n_problems)
        for y in ys:
            lasso = solve_lasso_fista(a, y, 0.1, max_iterations=300)
            column = solve_mmv_fista(a, y[:, None], 0.1, max_iterations=300)
            np.testing.assert_array_equal(lasso.x, column.x[:, 0])
            assert lasso.objective == column.objective
            assert residual_kappa(a, y) == mmv_residual_kappa(a, y[:, None])
        lasso = solve_batch(a, ys, method="fista", max_iterations=300)
        column = solve_batch(a, [y[:, None] for y in ys], method="mmv", max_iterations=300)
        np.testing.assert_array_equal(lasso.to_numpy(), column.to_numpy()[..., 0])
        assert lasso.kappas == column.kappas
        assert lasso.method == "fista"


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


class TestWarmStart:
    def test_warm_start_matches_sequential_warm_loop(self, rng):
        a, ys = make_batch(rng, 7)
        state = WarmStartState()
        keys = [f"p{index}" for index in range(len(ys))]
        first = solve_batch(
            a, ys, method="fista", kappa=0.1, max_iterations=300,
            warm_state=state, warm_keys=keys,
        )
        nudged = [
            y + 0.01 * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
            for y in ys
        ]
        warm = solve_batch(
            a, nudged, method="fista", kappa=0.1, max_iterations=300,
            warm_state=state, warm_keys=keys,
        )
        assert state.hits == len(ys)
        for index, y in enumerate(nudged):
            solo = solve_lasso_fista(
                a, y, 0.1, max_iterations=300, x0=first.to_numpy()[index]
            )
            scale = max(1.0, float(np.abs(solo.x).max()))
            assert float(np.abs(warm.to_numpy()[index] - solo.x).max()) <= 1e-12 * scale


class TestValidation:
    def test_empty_batch(self, rng):
        a, _ = make_batch(rng, 1)
        with pytest.raises(SolverError, match="empty batch"):
            solve_batch(a, [], method="fista", kappa=0.1)

    def test_ragged_batch(self, rng):
        a, ys = make_batch(rng, 2)
        with pytest.raises(SolverError, match="ragged"):
            solve_batch(a, [ys[0], ys[1][:-1]], method="fista", kappa=0.1)

    @pytest.mark.parametrize("method", ("admm", "omp", "sbl"))
    def test_unknown_method(self, rng, method):
        a, ys = make_batch(rng, 2)
        with pytest.raises(SolverError, match="does not support method"):
            solve_batch(a, ys, method=method)

    def test_unknown_option(self, rng):
        """Both methods take one option set; anything else is a stray
        keyword, as for any Python call."""
        a, ys = make_batch(rng, 2)
        with pytest.raises(TypeError, match="unexpected keyword argument 'sparsity'"):
            solve_batch(a, ys, method="fista", kappa=0.1, sparsity=3)

    def test_kappa_length_mismatch(self, rng):
        a, ys = make_batch(rng, 3)
        with pytest.raises(SolverError, match="kappa sequence has length"):
            solve_batch(a, ys, method="fista", kappa=[0.1, 0.2])

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
    @pytest.mark.parametrize("method", ("fista", "mmv"))
    def test_iteration_cap_below_one_rejected(self, rng, method, n_problems):
        """A zero cap must raise, never return an unconverged zero
        iterate — through solve_batch and through the front doors."""
        a, ys = make_batch(rng, n_problems)
        if method == "mmv":
            ys = [np.stack([y, y], axis=1) for y in ys]
        with pytest.raises(SolverError, match=">= 1"):
            solve_batch(a, ys, method=method, kappa=0.1, max_iterations=0)
        solo = solve_mmv_fista if method == "mmv" else solve_lasso_fista
        with pytest.raises(SolverError, match=">= 1"):
            solo(a, ys[0], kappa=0.1, max_iterations=0)

    def test_non_finite_measurements(self, rng):
        a, ys = make_batch(rng, 2)
        ys[1][0] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            solve_batch(a, ys, method="fista", kappa=0.1, max_iterations=10)

    @pytest.mark.parametrize("method", ("fista", "mmv"))
    def test_bad_kernel_inputs_rejected(self, rng, method):
        """NaN/inf κ, a non-positive or non-finite Lipschitz constant and a
        non-finite warm start raise instead of returning "converged"."""
        a, ys = make_batch(rng, 2)
        if method == "mmv":
            ys = [np.stack([y, y], axis=1) for y in ys]
        bad_start = np.zeros((a.shape[1], *np.shape(ys[0])[1:]), dtype=complex)
        bad_start[0] = np.inf
        bad_state = WarmStartState()
        bad_state.put("b", bad_start)
        cases = [({"kappa": k}, "kappa") for k in (np.nan, np.inf, [0.1, np.nan])]
        cases += [({"lipschitz": v}, "lipschitz") for v in (-1.0, 0.0, np.nan, np.inf)]
        cases += [({"warm_state": bad_state, "warm_keys": ["a", "b"]}, "x0")]
        for bad, match in cases:
            inputs = {"kappa": 0.1, "max_iterations": 10, **bad}
            with pytest.raises(SolverError, match=match):
                solve_batch(a, ys, method=method, **inputs)


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
    :func:`solve_mmv_fista`.  The prox is :func:`row_soft_threshold`, or
    for one column (the ℓ1 LASSO) the elementwise :func:`soft_threshold`.
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
        point = momentum_point - step * gradient
        if snapshots.shape[1] == 1:
            x_next = soft_threshold(point, np.reshape(threshold, (-1, 1)))
        else:
            x_next = row_soft_threshold(point, threshold)
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

    @pytest.mark.parametrize("n_snapshots", (1, 2))
    @pytest.mark.parametrize("weighted", (False, True))
    def test_mmv_kernel_matches_the_plain_reference_loop(self, rng, weighted, n_snapshots):
        """The lockstep ℓ2,1 kernel — at B = 1 and in a warm-started B = 5
        batch with one κ = 0 problem — follows the textbook loop; with one
        column its row shrink is the ℓ1 ``soft_threshold``.  Atom 0 is a
        zero column; weighted, its weight is 0 too, so the cold solve
        meets a zero row under a zero threshold (0/0 in the shrink factor).
        At κ = 0 one iteration is the bare gradient step."""
        a, ys = make_batch(rng, 5)
        a[:, 0] = 0.0
        n = a.shape[1]
        stacks = [np.stack([y, 0.9 * y + 0.1j * ys[0]], axis=1) for y in ys]
        stacks = [stack[:, :n_snapshots] for stack in stacks]
        weights = None
        if weighted:
            weights = 0.5 + rng.random(n)
            weights[::7] = 0.0
        kappas = [0.1, 0.2, 0.0, 0.05, 0.15]
        warm = 0.05 * _complex(rng, 5, n, n_snapshots)

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
        keys = [str(index) for index in range(5)]
        batch = solve_batch(
            a, stacks, method="mmv", kappa=kappas, max_iterations=300,
            penalty_weights=weights,
            warm_state=WarmStartState(dict(zip(keys, warm))), warm_keys=keys,
        )
        for index, (snapshots, kappa) in enumerate(zip(stacks, kappas)):
            check(batch.to_numpy()[index], plain_mmv_fista(
                a, snapshots, kappa, max_iterations=300,
                x0=warm[index], penalty_weights=weights,
            ))

        step = 1.0 / (2.0 * as_operator(a).lipschitz())
        one = solve_batch(
            a, stacks[2:3], method="mmv", kappa=0.0, max_iterations=1,
            warm_state=WarmStartState({"2": warm[2]}), warm_keys=["2"],
        )
        gradient = 2.0 * a.conj().T @ (a @ warm[2] - stacks[2])
        np.testing.assert_allclose(one.to_numpy()[0], warm[2] - step * gradient, atol=1e-13)
