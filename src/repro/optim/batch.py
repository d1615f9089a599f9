"""Batched sparse recovery: many problems, one stack of factor GEMMs.

The evaluation harness solves the *same* joint dictionary against many
measurements — one per (packet × client) — and the per-problem Python
loop, not the arithmetic, dominates at scale.  :func:`solve_batch`
stacks ``B`` problems into one ``(n, B)`` iterate and runs the existing
FISTA/ADMM/OMP/MMV updates in lockstep: every dictionary product is a
single batched matmul (two factor GEMMs for the Kronecker operator),
the elementwise proximal steps broadcast one threshold per problem
column, and per-problem convergence is tracked with freeze masks so a
column that has converged stops moving while its neighbours iterate on.

Correctness contract:

* ``B == 1`` delegates to the sequential solver outright — a singleton
  batch is **byte-identical** to the solo solve (the golden-spectra
  suite pins this).
* ``B > 1`` runs the same per-column iteration, but BLAS accumulates
  batched GEMM columns in a different order than per-vector GEMV, so
  results agree with the sequential loop to rounding, not bits.  The
  budget is :data:`FLOAT64_PARITY_TOLERANCE` (1e-12 relative).  Passing
  ``parity_gate=True`` verifies the batch against a sequential reference
  solve and raises on violation.
* Warm starts carry across consecutive batches: pass the previous
  :class:`BatchSolverResult` (or a ``(B, n)`` array) as ``x0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.optim.admm import CachedAdmmFactors, solve_lasso_admm
from repro.optim.fista import solve_lasso_fista
from repro.optim.mmv import solve_mmv_fista
from repro.optim.omp import solve_omp
from repro.optim.linalg import soft_threshold, validate_penalty_weights
from repro.optim.operators import as_operator
from repro.optim.result import SolverResult
from repro.optim.tuning import mmv_residual_kappa, residual_kappa

#: Parity budget: batched results must match the sequential solvers to
#: this relative tolerance.
FLOAT64_PARITY_TOLERANCE = 1e-12

#: Methods solve_batch can run, with the options each accepts.
_BATCH_METHODS = {
    "fista": {"max_iterations", "tolerance", "lipschitz", "penalty_weights"},
    "admm": {"rho", "max_iterations", "tolerance", "factors"},
    "omp": {"sparsity", "tolerance"},
    "mmv": {"max_iterations", "tolerance", "lipschitz", "penalty_weights"},
}

#: Columns per lockstep block.  Problems are independent columns, so a
#: big batch is solved block-by-block with identical per-problem
#: results; the block keeps the (n × block) iterate and its temporaries
#: L2-resident on CPU, which measures ~1.5× faster than one monolithic
#: (n × B) sweep at B = 64 on the evaluation grid.
_BLOCK_COLUMNS = 16


# -- fused lockstep kernels ---------------------------------------------
# The batched engine's hot inner steps, done in place: the lockstep
# iterate (n × B) no longer fits in cache, so every avoided pass over it
# is a measurable win.


def _prox_gradient_step(momentum, gradient, step2, thresholds):
    """``soft_threshold(momentum − step2·gradient, thresholds)``.

    ``gradient`` is ``Aᴴ(Ax − y)`` *without* the factor 2 — ``step2``
    carries it (``2·step``; exact, a power-of-two scale).  ``gradient``
    is clobbered (the caller owns and discards it); ``momentum`` is left
    untouched.
    """
    point = np.multiply(gradient, -step2, out=gradient)
    point += momentum
    magnitude = np.abs(point)
    thresholds = np.asarray(thresholds)
    if np.all(thresholds > 0):
        # max(1 − t/|z|, 0)·z: same shrinkage as the reference
        # formula to rounding, one fewer real-array pass and no
        # boolean mask; |z| = 0 gives −inf → clamped to 0.
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = thresholds / magnitude
            np.subtract(1.0, scale, out=scale)
            np.maximum(scale, 0.0, out=scale)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            shrunk = np.maximum(magnitude - thresholds, 0.0)
            scale = np.where(
                magnitude > 0, shrunk / np.where(magnitude > 0, magnitude, 1.0), 0.0
            )
    point *= scale
    return point


def _momentum_combine(candidate, previous, coefficient):
    """``candidate + coefficient·(candidate − previous)``, clobbering ``previous``.

    The engine only calls this once the previous iterate is dead.
    """
    combined = np.subtract(candidate, previous, out=previous)
    combined *= coefficient
    combined += candidate
    return combined


@dataclass
class BatchSolverResult:
    """Solutions of a whole batch.

    ``x`` has shape ``(B, n)`` (``(B, n, p)`` for MMV);
    :meth:`problem` slices one problem out as a standard
    :class:`~repro.optim.result.SolverResult` (handy for feeding the
    next batch's warm start or the spectrum pipeline).
    """

    x: np.ndarray
    objectives: tuple[float, ...]
    iterations: tuple[int, ...]
    converged: tuple[bool, ...]
    method: str
    kappas: tuple[float, ...] | None = None
    parity: dict | None = None

    @property
    def n_problems(self) -> int:
        return len(self.objectives)

    def to_numpy(self) -> np.ndarray:
        return np.asarray(self.x)

    def problem(self, index: int) -> SolverResult:
        return SolverResult(
            x=self.to_numpy()[index],
            objective=self.objectives[index],
            iterations=self.iterations[index],
            converged=self.converged[index],
            solver=self.method,
        )


def solve_batch(
    matrix,
    ys: Sequence,
    method: str = "fista",
    *,
    kappa=None,
    kappa_fraction: float = 0.05,
    x0=None,
    warm_state=None,
    warm_keys: Sequence[str] | None = None,
    parity_gate: bool = False,
    parity_tolerance: float | None = None,
    **options,
) -> BatchSolverResult:
    """Solve ``B`` sparse-recovery problems against one dictionary.

    Parameters
    ----------
    matrix:
        Dictionary ``A`` — ndarray or
        :class:`~repro.optim.operators.DictionaryOperator`.
    ys:
        Sequence of ``B`` measurements: 1-D vectors of length ``m``
        (``method`` in ``fista``/``admm``/``omp``) or 2-D ``(m, p)``
        snapshot matrices (``method="mmv"``).  All problems must share
        one shape — a ragged batch is an error, as is an empty one.
    kappa:
        Scalar (shared), a length-``B`` sequence (per problem), or
        ``None`` to derive each problem's κ via
        :func:`~repro.optim.tuning.residual_kappa` exactly as the
        sequential loop would.  Rejected for ``method="omp"``.
    x0:
        Warm start carried over from a previous batch: a
        :class:`BatchSolverResult` or an array of shape ``(B, n)``
        (``(B, n, p)`` for MMV).  Supported for ``fista`` and ``mmv``.
    warm_state / warm_keys:
        Keyed cross-batch carry-over: a
        :class:`~repro.optim.warm.WarmStartState` plus one key per
        problem.  Each problem warms from its key's stored solution
        (zeros — a cold start — where the key is missing or the shape
        changed) and writes its solution back after the solve, so
        consecutive batches over an evolving problem population (the
        streaming service's micro-batches) chain warm starts without
        the caller stacking arrays.  Mutually exclusive with ``x0``;
        same method restriction.
    parity_gate:
        Re-solve the batch with the sequential solvers and raise
        :class:`~repro.exceptions.SolverError` if any problem's relative
        ℓ∞ deviation exceeds ``parity_tolerance`` (default
        :data:`FLOAT64_PARITY_TOLERANCE`).  The report is attached as
        ``result.parity`` either way.
    **options:
        Per-method solver options (``max_iterations``, ``tolerance``,
        ``lipschitz``; ``rho``/``factors`` for ADMM; ``sparsity`` for
        OMP).
    """
    if method not in _BATCH_METHODS:
        raise SolverError(
            f"solve_batch does not support method {method!r}; "
            f"batchable methods: {sorted(_BATCH_METHODS)}"
        )
    stray = sorted(set(options) - set().union(*_BATCH_METHODS.values()))
    if stray:
        raise TypeError(f"solve_batch() got an unexpected keyword argument {stray[0]!r}")
    unknown = set(options) - _BATCH_METHODS[method]
    if unknown:
        raise SolverError(
            f"method {method!r} does not accept options {sorted(unknown)}; "
            f"allowed: {sorted(_BATCH_METHODS[method])}"
        )

    ys = list(ys)
    n_problems = len(ys)
    if n_problems == 0:
        raise SolverError("solve_batch received an empty batch")
    expected_ndim = 2 if method == "mmv" else 1
    shapes = {np.shape(y) for y in ys}
    if len(shapes) > 1:
        raise SolverError(
            f"solve_batch received a ragged batch: problem shapes {sorted(shapes)}"
        )
    (problem_shape,) = shapes
    if len(problem_shape) != expected_ndim:
        raise SolverError(
            f"method {method!r} expects {expected_ndim}-D measurements, "
            f"got shape {problem_shape}"
        )

    operator = as_operator(matrix)
    if problem_shape[0] != operator.shape[0]:
        raise SolverError(
            f"dictionary and batch are incompatible: A is {operator.shape}, "
            f"measurements have leading dimension {problem_shape[0]}"
        )

    kappas = _resolve_kappas(operator, ys, method, kappa, kappa_fraction, n_problems)
    if warm_state is not None:
        x0 = _warm_starts_from_state(
            warm_state, warm_keys, x0, method, n_problems, operator.shape[1], problem_shape
        )
    elif warm_keys is not None:
        raise SolverError("warm_keys requires warm_state")
    warm = _resolve_warm_start(x0, method, n_problems, operator.shape[1], problem_shape)

    if n_problems == 1:
        result = _solve_single(operator, ys[0], method, kappas, warm, options)
    else:
        if method == "admm" and options.get("factors") is None:
            # One factorization serves every block (and every κ).
            options = dict(options)
            options["factors"] = CachedAdmmFactors(
                operator, options.get("rho") or 1.0
            )
        blocks = []
        for start in range(0, n_problems, _BLOCK_COLUMNS):
            stop = min(start + _BLOCK_COLUMNS, n_problems)
            blocks.append(
                _solve_stacked(
                    operator,
                    ys[start:stop],
                    method,
                    kappas[start:stop] if kappas is not None else None,
                    warm[start:stop] if warm is not None else None,
                    options,
                )
            )
        result = blocks[0] if len(blocks) == 1 else _merge_blocks(blocks, kappas)

    if warm_state is not None:
        solutions = result.to_numpy()
        for index, key in enumerate(warm_keys):
            warm_state.put(key, solutions[index])

    if parity_gate:
        result.parity = _run_parity_gate(
            operator, ys, method, kappas, options, result, parity_tolerance
        )
    return result


def _merge_blocks(blocks, kappas):
    return BatchSolverResult(
        x=np.concatenate([block.x for block in blocks], axis=0),
        objectives=tuple(v for block in blocks for v in block.objectives),
        iterations=tuple(v for block in blocks for v in block.iterations),
        converged=tuple(v for block in blocks for v in block.converged),
        method=blocks[0].method,
        kappas=kappas,
    )


def _resolve_kappas(operator, ys, method, kappa, kappa_fraction, n_problems):
    if method == "omp":
        if kappa is not None:
            raise SolverError("method 'omp' does not take a kappa weight")
        return None
    if kappa is None:
        derive = mmv_residual_kappa if method == "mmv" else residual_kappa
        return tuple(derive(operator, np.asarray(y), fraction=kappa_fraction) for y in ys)
    if np.ndim(kappa) == 0:
        return (float(kappa),) * n_problems
    kappas = tuple(float(k) for k in kappa)
    if len(kappas) != n_problems:
        raise SolverError(
            f"kappa sequence has length {len(kappas)}, expected {n_problems}"
        )
    return kappas


def _warm_starts_from_state(warm_state, warm_keys, x0, method, n_problems, n, problem_shape):
    """Stack per-key warm starts out of a WarmStartState into an x0 array.

    Missing keys (and shape-mismatched slots — e.g. a client's snapshot
    window grew since the last batch) contribute a zero column, which is
    exactly the solvers' cold-start iterate, so warm and cold problems
    mix freely inside one batch.
    """
    if x0 is not None:
        raise SolverError("pass either x0 or warm_state, not both")
    if method not in ("fista", "mmv"):
        raise SolverError(f"method {method!r} does not accept a warm start (warm_state)")
    if warm_keys is None or len(warm_keys) != n_problems:
        n_keys = 0 if warm_keys is None else len(warm_keys)
        raise SolverError(
            f"warm_state requires one warm key per problem: got {n_keys} keys "
            f"for {n_problems} problems"
        )
    shape = (n, problem_shape[1]) if method == "mmv" else (n,)
    starts = np.zeros((n_problems, *shape), dtype=complex)
    for index, key in enumerate(warm_keys):
        stored = warm_state.get(str(key), shape)
        if stored is not None:
            starts[index] = stored
    return starts


def _resolve_warm_start(x0, method, n_problems, n, problem_shape):
    if x0 is None:
        return None
    if method not in ("fista", "mmv"):
        raise SolverError(f"method {method!r} does not accept a warm start (x0)")
    if isinstance(x0, BatchSolverResult):
        x0 = x0.x
    expected = (
        (n_problems, n, problem_shape[1]) if method == "mmv" else (n_problems, n)
    )
    x0 = np.asarray(x0)
    if x0.shape != expected:
        raise SolverError(f"x0 has shape {x0.shape}, expected {expected}")
    return x0


def _solve_single(operator, y, method, kappas, warm, options):
    """B == 1: run the sequential solver — byte-identical."""
    opts = dict(options)
    if warm is not None:
        opts["x0"] = warm[0]
    y = np.asarray(y)
    if method == "omp":
        result = solve_omp(operator, y, **opts)
    elif method == "fista":
        result = solve_lasso_fista(operator, y, kappas[0], **opts)
    elif method == "admm":
        result = solve_lasso_admm(operator, y, kappas[0], **opts)
    else:
        result = solve_mmv_fista(operator, y, kappas[0], **opts)
    return BatchSolverResult(
        x=np.stack([result.x], axis=0),
        objectives=(result.objective,),
        iterations=(result.iterations,),
        converged=(result.converged,),
        method=method,
        kappas=kappas,
    )


def _solve_stacked(operator, ys, method, kappas, warm, options):
    stacked = np.stack(
        [np.asarray(y, dtype=complex) for y in ys], axis=0 if method == "mmv" else 1
    )
    if not np.all(np.isfinite(stacked)):
        raise SolverError("batch contains non-finite measurements")
    if method == "fista":
        return _batched_fista(operator, stacked, kappas, warm, **options)
    if method == "admm":
        return _batched_admm(operator, stacked, kappas, **options)
    if method == "omp":
        return _batched_omp(operator, stacked, **options)
    return _batched_mmv(operator, stacked, kappas, warm, **options)


def _result(X_cols, objectives, iterations, converged, method, kappas):
    """Assemble a BatchSolverResult from the internal (n, B) column layout."""
    return BatchSolverResult(
        x=np.moveaxis(X_cols, 0, 1),
        objectives=tuple(float(v) for v in objectives),
        iterations=tuple(int(v) for v in iterations),
        converged=tuple(bool(v) for v in converged),
        method=method,
        kappas=kappas,
    )


def _batched_fista(
    operator,
    Y,
    kappas,
    warm,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    lipschitz: float | None = None,
    penalty_weights=None,
):
    n = operator.shape[1]
    n_problems = Y.shape[1]
    kap = np.asarray(kappas, dtype=np.float64)
    if np.any(kap < 0):
        raise SolverError(f"kappa must be non-negative, got {kappas}")
    if max_iterations < 1:
        raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")
    weights = validate_penalty_weights(penalty_weights, n)

    lipschitz = 2.0 * (operator.lipschitz() if lipschitz is None else float(lipschitz))
    if lipschitz <= 0:
        X = np.zeros((n, n_problems), dtype=complex)
        objectives, _ = _lasso_batch_objectives(operator, X, Y, kap, weights)
        return _result(X, objectives, [0] * n_problems, [True] * n_problems, "fista", kappas)
    step = 1.0 / lipschitz
    thresholds = (kap * step).reshape(1, n_problems)
    if weights is not None:
        # Per-coefficient weighted ℓ1: one threshold per (row, problem).
        thresholds = weights.reshape(n, 1) * thresholds

    X = (
        np.zeros((n, n_problems), dtype=complex)
        if warm is None
        else np.moveaxis(np.asarray(warm, dtype=complex), 0, 1).copy()
    )
    momentum = X.copy()
    t = 1.0

    active = np.ones(n_problems, dtype=bool)
    iterations = np.full(n_problems, max_iterations, dtype=int)
    converged = np.zeros(n_problems, dtype=bool)
    check = tolerance > 0
    for it in range(1, max_iterations + 1):
        raw_gradient = operator.rmatvec(operator.matvec(momentum) - Y)
        candidate = _prox_gradient_step(momentum, raw_gradient, 2.0 * step, thresholds)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        coefficient = (t - 1.0) / t_next

        if check:
            delta = np.linalg.norm(candidate - X, axis=0)
            scale = np.maximum(1.0, np.linalg.norm(X, axis=0))

        if active.all():
            momentum = _momentum_combine(candidate, X, coefficient)
            X = candidate
        else:
            # Freeze converged columns: their iterate (and momentum) stop
            # moving, preserving per-problem equivalence with solo solves.
            momentum_next = candidate + coefficient * (candidate - X)
            mask = active.reshape(1, n_problems)
            X = np.where(mask, candidate, X)
            momentum = np.where(mask, momentum_next, momentum)
        t = t_next

        if check:
            newly = active & (delta <= tolerance * scale)
            if newly.any():
                iterations[newly] = it
                converged[newly] = True
                active &= ~newly
                if not active.any():
                    break

    objectives, _ = _lasso_batch_objectives(operator, X, Y, kap, weights)
    return _result(X, objectives, iterations, converged, "fista", kappas)


def _batched_admm(
    operator,
    Y,
    kappas,
    *,
    rho: float | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-6,
    factors: CachedAdmmFactors | None = None,
):
    kap = np.asarray(kappas, dtype=np.float64)
    if np.any(kap < 0):
        raise SolverError(f"kappa must be non-negative, got {kappas}")

    if rho is None:
        rho = factors.rho if factors is not None else 1.0
    if factors is None:
        factors = CachedAdmmFactors(operator, rho)
    elif not factors.matches(operator) or factors.rho != rho:
        raise SolverError(
            "provided CachedAdmmFactors were built for a different (matrix, rho)"
        )
    dense = factors.matrix
    n = dense.shape[1]
    n_problems = Y.shape[1]

    scale_row = np.where(kap > 0, kap, 1.0).reshape(1, n_problems)
    thresholds = np.where(kap > 0, 0.5 / rho, 0.0).reshape(1, n_problems)
    scaled_Y = Y / scale_row
    atb = dense.conj().T @ scaled_Y

    X = np.zeros((n, n_problems), dtype=complex)
    Z = np.zeros((n, n_problems), dtype=complex)
    U = np.zeros((n, n_problems), dtype=complex)

    active = np.ones(n_problems, dtype=bool)
    iterations = np.full(n_problems, max_iterations, dtype=int)
    converged = np.zeros(n_problems, dtype=bool)
    check = tolerance > 0
    for it in range(1, max_iterations + 1):
        X_next = factors.solve(atb + rho * (Z - U))
        Z_prev = Z
        Z_next = soft_threshold(X_next + U, thresholds)
        U_next = U + X_next - Z_next

        if check:
            primal = np.linalg.norm(X_next - Z_next, axis=0)
            dual = rho * np.linalg.norm(Z_next - Z_prev, axis=0)
            scale = np.maximum(1.0, np.linalg.norm(Z_next, axis=0))

        if active.all():
            X, Z, U = X_next, Z_next, U_next
        else:
            mask = active.reshape(1, n_problems)
            X = np.where(mask, X_next, X)
            Z = np.where(mask, Z_next, Z)
            U = np.where(mask, U_next, U)

        if check:
            newly = active & (primal <= tolerance * scale) & (dual <= tolerance * scale)
            if newly.any():
                iterations[newly] = it
                converged[newly] = True
                active &= ~newly
                if not active.any():
                    break

    X_out = scale_row * Z
    objectives, _ = _lasso_batch_objectives(operator, X_out, Y, kap)
    return _result(X_out, objectives, iterations, converged, "admm", kappas)


def _batched_omp(operator, Y, *, sparsity: int, tolerance: float = 0.0):
    m, n = operator.shape
    n_problems = Y.shape[1]
    if sparsity < 1:
        raise SolverError(f"sparsity must be >= 1, got {sparsity}")
    sparsity = min(sparsity, m, n)

    column_norms = operator.column_norms()
    norms_col = column_norms.reshape(-1, 1)
    usable_col = norms_col > 0

    residuals = Y.copy()
    supports: list[list[int]] = [[] for _ in range(n_problems)]
    coefficients: list = [np.zeros(0, dtype=complex) for _ in range(n_problems)]
    active = np.ones(n_problems, dtype=bool)
    iterations = np.zeros(n_problems, dtype=int)

    for step_index in range(1, sparsity + 1):
        # One batched adjoint GEMM scores every problem's atoms at once;
        # the greedy selection + least-squares refit stay per-problem.
        correlations = np.abs(operator.rmatvec(residuals))
        with np.errstate(invalid="ignore", divide="ignore"):
            correlations = np.where(
                usable_col,
                correlations / np.where(usable_col, norms_col, 1.0),
                -1.0,
            )
        for b in np.nonzero(active)[0]:
            column = correlations[:, b]
            column[supports[b]] = -1.0
            best = int(np.argmax(column))
            iterations[b] = step_index
            if float(column[best]) <= 0:
                active[b] = False
                continue
            supports[b].append(best)
            submatrix = operator.columns(supports[b])
            coefficients[b] = np.linalg.lstsq(submatrix, Y[:, b], rcond=None)[0]
            residuals[:, b] = Y[:, b] - submatrix @ coefficients[b]
            if float(np.linalg.norm(residuals[:, b])) <= tolerance:
                active[b] = False
        if not active.any():
            break

    X = np.zeros((n, n_problems), dtype=complex)
    for b in range(n_problems):
        X[supports[b], b] = coefficients[b]
    objectives = [float(np.linalg.norm(residuals[:, b])) ** 2 for b in range(n_problems)]
    return _result(X, objectives, iterations, [True] * n_problems, "omp", None)


def _batched_mmv(
    operator,
    Ys,
    kappas,
    warm,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    lipschitz: float | None = None,
    penalty_weights=None,
):
    n = operator.shape[1]
    n_problems, _, n_snapshots = Ys.shape
    if n_snapshots == 0:
        raise SolverError("snapshot matrices have zero columns")
    kap = np.asarray(kappas, dtype=np.float64)
    if np.any(kap < 0):
        raise SolverError(f"kappa must be non-negative, got {kappas}")
    weights = validate_penalty_weights(penalty_weights, n)

    lipschitz = 2.0 * (operator.lipschitz() if lipschitz is None else float(lipschitz))
    if lipschitz <= 0:
        X = np.zeros((n_problems, n, n_snapshots), dtype=complex)
        objectives = _mmv_batch_objectives(operator, X, Ys, kap, weights)
        return BatchSolverResult(
            x=X, objectives=tuple(objectives), iterations=(0,) * n_problems,
            converged=(True,) * n_problems, method="mmv", kappas=kappas,
        )
    step = 1.0 / lipschitz
    thresholds = (kap * step).reshape(n_problems, 1, 1)
    if weights is not None:
        # Per-row weighted ℓ2,1: one threshold per (problem, row).
        thresholds = thresholds * weights.reshape(1, n, 1)

    X = (
        np.zeros((n_problems, n, n_snapshots), dtype=complex)
        if warm is None
        else np.asarray(warm, dtype=complex).copy()
    )
    momentum = X.copy()
    t = 1.0

    active = np.ones(n_problems, dtype=bool)
    iterations = np.full(n_problems, max_iterations, dtype=int)
    converged = np.zeros(n_problems, dtype=bool)
    check = tolerance > 0
    for it in range(1, max_iterations + 1):
        gradient = 2.0 * operator.rmatmul_batch(operator.matmul_batch(momentum) - Ys)
        point = momentum - step * gradient
        row_norms = np.linalg.norm(point, axis=2, keepdims=True)
        shrunk = np.maximum(row_norms - thresholds, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            factors = np.where(
                row_norms > 0, shrunk / np.where(row_norms > 0, row_norms, 1.0), 0.0
            )
        candidate = point * factors
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum_next = candidate + ((t - 1.0) / t_next) * (candidate - X)

        if check:
            delta = np.linalg.norm(candidate - X, axis=(1, 2))
            scale = np.maximum(1.0, np.linalg.norm(X, axis=(1, 2)))

        if active.all():
            X, momentum = candidate, momentum_next
        else:
            mask = active.reshape(n_problems, 1, 1)
            X = np.where(mask, candidate, X)
            momentum = np.where(mask, momentum_next, momentum)
        t = t_next

        if check:
            newly = active & (delta <= tolerance * scale)
            if newly.any():
                iterations[newly] = it
                converged[newly] = True
                active &= ~newly
                if not active.any():
                    break

    objectives = _mmv_batch_objectives(operator, X, Ys, kap, weights)
    return BatchSolverResult(
        x=X,
        objectives=tuple(float(v) for v in objectives),
        iterations=tuple(int(v) for v in iterations),
        converged=tuple(bool(v) for v in converged),
        method="mmv",
        kappas=kappas,
    )


def _lasso_batch_objectives(operator, X_cols, Y, kap, penalty_weights=None):
    residual = operator.matvec(X_cols) - Y
    data = np.linalg.norm(residual, axis=0) ** 2
    magnitudes = np.abs(X_cols)
    if penalty_weights is not None:
        magnitudes = penalty_weights.reshape(X_cols.shape[0], 1) * magnitudes
    l1 = magnitudes.sum(axis=0)
    objectives = data + kap * l1
    return objectives, data


def _mmv_batch_objectives(operator, X, Ys, kap, penalty_weights=None):
    residual = operator.matmul_batch(X) - Ys
    data = np.linalg.norm(residual, axis=(1, 2)) ** 2
    row_norms = np.linalg.norm(X, axis=2)
    if penalty_weights is not None:
        row_norms = penalty_weights.reshape(1, X.shape[1]) * row_norms
    row_sums = row_norms.sum(axis=1)
    return data + kap * row_sums


def _run_parity_gate(operator, ys, method, kappas, options, result, tolerance):
    """Verify the batch against the sequential solvers, problem by problem."""
    if tolerance is None:
        tolerance = FLOAT64_PARITY_TOLERANCE
    # The reference rebuilds its own ADMM factors: it shares no state
    # with the batch it checks.
    opts = {key: value for key, value in options.items() if key != "factors"}
    batch = result.to_numpy()
    worst = 0.0
    for index, y in enumerate(ys):
        y = np.asarray(y)
        if method == "omp":
            ref = solve_omp(operator, y, **opts)
        elif method == "fista":
            ref = solve_lasso_fista(operator, y, kappas[index], **opts)
        elif method == "admm":
            ref = solve_lasso_admm(operator, y, kappas[index], **opts)
        else:
            ref = solve_mmv_fista(operator, y, kappas[index], **opts)
        deviation = float(np.abs(batch[index] - ref.x).max())
        scale = max(1.0, float(np.abs(ref.x).max()))
        worst = max(worst, deviation / scale)

    report = {
        "max_relative_deviation": worst,
        "tolerance": float(tolerance),
        "reference": "numpy/complex128 sequential",
        "n_problems": len(ys),
        "precision": "double",
        "passed": worst <= tolerance,
    }
    if worst > tolerance:
        raise SolverError(
            f"solve_batch parity gate failed: max relative deviation {worst:.3e} "
            f"exceeds tolerance {tolerance:.1e} against the sequential reference"
        )
    return report
