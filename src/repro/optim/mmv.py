"""Joint-sparse (MMV) recovery for multi-packet fusion.

The multi-packet model of the paper's §III-D stacks one measurement
vector per packet into a matrix ``Y = [y₁ … y_P]`` and requires the
coefficient *rows* to share a common support across packets — every
packet sees the same physical paths.  Following Malioutov et al. [25]
this is the ℓ2,1 program

    min_X  ‖A X − Y‖_F² + κ Σ_i ‖X_{i,:}‖₂,

solved here by FISTA with the row-wise group soft-threshold.  The SVD
reduction that keeps the snapshot dimension small lives in
:mod:`repro.core.fusion`; this module is the pure solver.
:func:`mmv_lockstep` is its one iteration loop, over ``B`` stacked
problems, and the package's one FISTA loop: the LASSO of
:mod:`repro.optim.fista` is this program with one snapshot column.
:func:`solve_mmv_fista` is the ``B = 1`` front door.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable

import numpy as np

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace
from repro.optim.linalg import (
    squared_norms,
    validate_kernel_inputs,
    validate_penalty_weights,
    validate_system,
)
from repro.optim.operators import as_operator
from repro.optim.result import (
    BatchSolverResult,
    LockstepProgress,
    Observer,
    SolverResult,
    observation_hook,
)


def mmv_objective(
    matrix, rhs: np.ndarray, x: np.ndarray, kappa: float, *, penalty_weights=None
) -> float:
    """``‖AX − Y‖_F² + κ·Σᵢ‖Xᵢ,:‖₂`` (``κ·Σᵢ wᵢ‖Xᵢ,:‖₂`` when weighted)."""
    residual = as_operator(matrix).matvec(x) - np.asarray(rhs)
    data_term = float(np.vdot(residual, residual).real)
    row_norms = np.sqrt(squared_norms(x, axis=1))
    if penalty_weights is not None:
        row_norms = np.asarray(penalty_weights, dtype=float) * row_norms
    return data_term + kappa * float(row_norms.sum())


def solve_mmv_fista(
    matrix,
    rhs: np.ndarray,
    kappa: float,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    x0: np.ndarray | None = None,
    lipschitz: float | None = None,
    penalty_weights: np.ndarray | None = None,
    telemetry: ConvergenceTrace | None = None,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> SolverResult:
    """Solve the ℓ2,1 joint-sparse program by FISTA.

    Parameters
    ----------
    matrix:
        Dictionary ``A`` of shape ``(m, n)`` — a dense ndarray or any
        :class:`~repro.optim.operators.DictionaryOperator`.
    rhs:
        Snapshot matrix ``Y`` of shape ``(m, p)`` — one column per packet
        (or per retained singular vector after SVD reduction).
    kappa:
        Row-sparsity weight.
    max_iterations / tolerance:
        As in :func:`~repro.optim.fista.solve_lasso_fista`.
    x0:
        Optional ``(n, p)`` warm start; a previous solution of a nearby
        problem reaches the shared minimizer in fewer iterations.
    lipschitz:
        Optional precomputed ``‖AᴴA‖₂``; operator dictionaries default
        to ``matrix.lipschitz()``.
    penalty_weights:
        Optional per-row ℓ2,1 weights ``w ≥ 0`` of shape ``(n,)``: the
        penalty becomes ``κ·Σᵢ wᵢ‖Xᵢ,:‖₂`` (the outlier-augmented
        program of :mod:`repro.optim.robust` prices its identity rows
        this way).
    telemetry / callback:
        Per-iteration hooks as in
        :func:`~repro.optim.fista.solve_lasso_fista` — objective,
        Frobenius residual norm and active-row count per iteration,
        recorded only when requested (one extra dictionary multiply per
        iteration when enabled, nothing otherwise).

    Returns
    -------
    SolverResult
        ``result.x`` has shape ``(n, p)``; the row ℓ2 norms form the
        fused spectrum.
    """
    validate_system(matrix, rhs)
    if rhs.ndim != 2:
        raise SolverError("solve_mmv_fista expects a 2-D snapshot matrix; use solve_lasso_fista for vectors")
    operator = as_operator(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    n = operator.shape[1]
    p = rhs.shape[1]
    warm = None
    if x0 is not None:
        warm = np.asarray(x0, dtype=complex)
        if warm.shape != (n, p):
            raise SolverError(f"x0 has shape {warm.shape}, expected ({n}, {p})")
        warm = warm[None]
    weights = validate_penalty_weights(penalty_weights, n)

    def penalty(x):
        row_norms = np.sqrt(squared_norms(x, axis=1))
        if weights is not None:
            row_norms = weights * row_norms
        return kappa * float(row_norms.sum())

    return mmv_lockstep(
        operator,
        rhs[None],
        (kappa,),
        warm,
        max_iterations=max_iterations,
        tolerance=tolerance,
        lipschitz=lipschitz,
        penalty_weights=weights,
        observe=observation_hook(operator, rhs, penalty, telemetry, callback),
    ).single(telemetry)


#: Stacked iterate size ``B·p·n`` from which :func:`mmv_lockstep` runs
#: its tail on the gathered support rows.  Below it the tail's index
#: bookkeeping (about twenty more numpy calls per iteration) costs more
#: than the dense passes it saves: on the 61×21 serve grid the dense
#: tail is faster at B·p·n = 5,124 and 7,686, the gathered one from
#: 8,967 (one BLAS thread, 2-vCPU host).
GATHER_MIN_SIZE = 8192


def mmv_lockstep(
    operator,
    Ys: np.ndarray,
    kappas,
    warm: np.ndarray | None = None,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    lipschitz: float | None = None,
    penalty_weights=None,
    observe: Observer | None = None,
) -> BatchSolverResult:
    """ℓ2,1 FISTA on ``B`` problems at once: the one FISTA iteration loop.

    ``Ys`` stacks the snapshot matrices, ``(B, m, p)``; ``kappas`` holds
    one weight per problem and ``warm`` an optional ``(B, n, p)`` start.
    The iterate and the momentum live in buffers reused across
    iterations, each one ``(B, p, n)`` array with the grid axis
    innermost.  Their ``(B·p, n)`` row stacks go to the operator as
    transposed ``(n, B·p)`` views, so one pair of factor GEMMs covers
    the whole stack with no copy, and at ``B = 1`` the products are
    exactly those of a lone ``(n, p)`` solve.

    The iterate is row-sparse, so from a stacked size ``B·p·n`` of
    :data:`GATHER_MIN_SIZE` the tail — the shrunk candidate, the change,
    the per-problem stop norms and the next momentum — runs on the
    gathered rows of the candidate's and the iterate's supports (flat
    ``take``/``put``); the iterate and the momentum are zero off those
    rows, and the old momentum rows are cleared before the new ones are
    scattered.  Below that size the tail runs on the whole stack and
    rotates the buffers instead.

    The gradient point comes one of two ways.  By default the full
    adjoint lands in a ``(B, p, n)`` point buffer (``rmatvec``'s
    ``out=`` where the operator takes one) and the row norms span the
    grid.  Where the operator says its row energies are the cheaper
    product (``p ≥ operator.screen_snapshots``, and only in the gathered
    tail), no step touches a full-grid ``(B, p, n)`` array: the forward
    product runs on the momentum's rows (``matvec_rows``);
    ``rmatvec_energies`` bounds every row's adjoint energy; the rows
    whose bound reaches the squared threshold (lowered by the rounding
    of the prox's square root and division), plus the momentum's rows,
    are the candidates; and ``rmatvec_rows`` evaluates the adjoint
    exactly on them.  A row the prox keeps is always a candidate, and
    every value it sees is the one the full products give, so all three
    combinations give the same nonzero entries.

    Converged problems are frozen while the rest iterate on: their rows
    leave the gather and the screen (or the dense tail masks them), so
    their iterate no longer moves.  ``observe`` receives a copy of the
    iterate, which it may keep.
    """
    m, n = operator.shape
    n_problems, _, n_snapshots = Ys.shape
    progress = LockstepProgress(n_problems, max_iterations)
    if n_snapshots == 0:
        raise SolverError("snapshot matrices have zero columns")
    kap = validate_kernel_inputs(kappas, lipschitz, warm)
    weights = validate_penalty_weights(penalty_weights, n)

    lipschitz = 2.0 * (operator.lipschitz() if lipschitz is None else float(lipschitz))
    if lipschitz <= 0:
        X = np.zeros((n_problems, n, n_snapshots), dtype=complex)
        progress.settle(0, np.ones(n_problems, dtype=bool))
        objectives = mmv_batch_objectives(operator, X, Ys, kap, weights)
        return progress.result(X, objectives, "mmv", kappas)
    step = 1.0 / lipschitz
    # One threshold per problem, or per (problem, row) when weighted.
    thresholds = (kap * step).reshape(n_problems, 1)
    if weights is not None:
        thresholds = thresholds * weights.reshape(1, n)

    folded = n_problems * n_snapshots
    Y = np.ascontiguousarray(Ys.transpose(0, 2, 1)).reshape(folded, m)
    X = (
        np.zeros((n_problems, n_snapshots, n), dtype=complex)
        if warm is None
        else np.asarray(warm, dtype=complex).transpose(0, 2, 1).copy()
    )
    momentum = X.copy()

    gather = X.size >= GATHER_MIN_SIZE
    screen = gather and n_snapshots >= operator.screen_snapshots
    if gather:
        x_flat, momentum_flat = X.reshape(-1), momentum.reshape(-1)
        # Grid row r = b·n + j of the (B, n) row grid is the flat elements
        # b·p·n + k·n + j, k < p, of a (B, p, n) buffer.
        column_offsets = np.arange(n_snapshots) * n
        problem_starts = np.arange(1, n_problems) * n

        def elements(rows):
            if n_snapshots == 1:
                return rows.reshape(-1, 1)
            if n_problems > 1:
                rows = rows + rows // n * ((n_snapshots - 1) * n)
            return rows[:, None] + column_offsets

        # The momentum's rows, its values there, and which of them the
        # iterate's support holds.
        rows = np.flatnonzero(np.any(X != 0, axis=1))
        momentum_index = elements(rows)
        momentum_values = x_flat.take(momentum_index)
        supported = np.ones(len(rows), dtype=bool)
    if screen:
        # One threshold for every row, or one per flat grid row.
        threshold_rows = (
            thresholds.reshape(1)
            if thresholds.size == 1
            else np.broadcast_to(thresholds, (n_problems, n)).reshape(-1)
        )
        # A kept row has fl(√energy) > threshold, so its rounded energy
        # exceeds threshold²·(1 − 2u); the limit sits below that after
        # its own two roundings (u = ε/2).
        limits = np.square(thresholds) * (1.0 - 4.0 * np.finfo(float).eps)
        screened = np.empty((n_problems, n), dtype=bool)
    else:
        point = np.empty_like(X)
        squares = np.empty(X.shape)
        imag_squares = np.empty(X.shape)
        # Row norms, then shrink factors, per (problem, grid row); with one
        # column the squares already are the row norms.
        factors = squares[:, 0, :] if n_snapshots == 1 else np.empty((n_problems, n))
        takes_out = "out" in inspect.signature(operator.rmatvec).parameters
        if gather:
            point_flat = point.reshape(-1)
            gathered = np.empty((n_problems, n), dtype=bool)
        else:
            change = np.empty_like(X)
            edges = range(n_problems + 1)
    t = 1.0

    active = progress.active
    check = tolerance > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        for it in range(1, max_iterations + 1):
            stack = momentum.reshape(folded, n).T
            if screen:
                residual = operator.matvec_rows(stack, rows, n_snapshots).T
            else:
                residual = operator.matvec(stack).T
            residual -= Y
            # point = momentum − step·2Aᴴr: the factor −2·step scales the
            # short residual rows before the adjoint, not the gradient.
            residual *= -2.0 * step
            if screen:
                if not progress.all_active:
                    live = active.take(rows // n)
                    rows, supported = rows[live], supported[live]
                    momentum_values = momentum_values[live]
                # Only rows whose adjoint energy can clear the threshold,
                # and the momentum's rows, can be nonzero after the prox;
                # the point (p, candidates) is formed on those alone.
                energies, stage = operator.rmatvec_energies(residual.T, n_snapshots)
                np.greater_equal(energies, limits, out=screened)
                screened.reshape(-1)[rows] = True
                if not progress.all_active:
                    screened &= active.reshape(n_problems, 1)
                candidates = np.flatnonzero(screened)
                point = operator.rmatvec_rows(stage, screened)
                slots = np.searchsorted(candidates, rows)
                point[:, slots] += momentum_values.T
                parts = point.view(np.float64).reshape(n_snapshots, -1, 2)
                factors = np.square(parts[..., 0])
                factors += np.square(parts[..., 1])
                factors = factors.sum(axis=0) if n_snapshots > 1 else factors[0]
                row_thresholds = (
                    threshold_rows if len(threshold_rows) == 1 else threshold_rows.take(candidates)
                )
            else:
                if takes_out:
                    operator.rmatvec(residual.T, out=point.reshape(folded, n).T)
                else:
                    point.reshape(folded, n)[...] = operator.rmatvec(residual.T).T
                if gather:
                    # The momentum is zero off its gathered rows.
                    momentum_values += point_flat.take(momentum_index)
                    point_flat.put(momentum_index, momentum_values)
                else:
                    point += momentum
                np.square(point.real, out=squares)
                np.square(point.imag, out=imag_squares)
                squares += imag_squares
                if n_snapshots > 1:
                    squares.sum(axis=1, out=factors)
                row_thresholds = thresholds

            # Row prox: fmax(1 − t/‖row‖, 0) scales each row; the clamp
            # also zeroes ‖row‖ = 0 (−inf, or NaN when t = 0).
            np.sqrt(factors, out=factors)
            np.divide(row_thresholds, factors, out=factors)
            np.subtract(1.0, factors, out=factors)
            np.fmax(factors, 0.0, out=factors)

            # Gathered: the candidate's and the iterate's rows of the
            # active problems; off them the candidate, the iterate, the
            # change and so the next momentum are all zero.
            if screen:
                kept = factors > 0.0
                kept[slots[supported]] = True
                rows = candidates[kept]
                row_factors = factors[kept]
                candidate = point.T[kept]
                del point  # before the next iteration's point is allocated
            elif gather:
                np.greater(factors, 0.0, out=gathered)
                gathered.reshape(-1)[rows[supported]] = True
                if not progress.all_active:
                    gathered &= active.reshape(n_problems, 1)
                rows = np.flatnonzero(gathered)
                row_factors = factors.reshape(-1).take(rows)
            if gather:
                index = elements(rows)
                if not screen:
                    candidate = point_flat.take(index)
                candidate *= row_factors[:, None]
                current = x_flat.take(index)
                change = candidate - current
                if check and n_problems > 1:
                    edges = [0, *np.searchsorted(rows, problem_starts), len(rows)]
                elif check:
                    edges = (0, len(rows))
            else:
                candidate, current = point, X
                candidate *= factors[:, None, :]
                np.subtract(candidate, current, out=change)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))

            if check:
                # ‖ΔX‖ ≤ tol·max(1, ‖X‖) per problem, compared as squares.
                delta = _problem_squared_norms(change, edges)
                scale = np.maximum(1.0, _problem_squared_norms(current, edges))

            # candidate + ((t − 1)/t_next)·(candidate − X), in place on the change.
            change *= (t - 1.0) / t_next
            change += candidate
            if gather:
                momentum_flat.put(momentum_index, 0.0)
                momentum_flat.put(index, change)
                momentum_index, momentum_values = index, change
                x_flat.put(index, candidate)
                supported = row_factors > 0.0
            elif progress.all_active:
                X, point = point, X
                momentum, change = change, momentum
            else:
                X[active] = candidate[active]
                momentum[active] = change[active]
            t = t_next

            if observe is not None:
                observe(it, X.transpose(0, 2, 1).copy())
            if check and progress.settle(it, delta <= tolerance**2 * scale):
                break

    X = np.ascontiguousarray(X.transpose(0, 2, 1))
    objectives = mmv_batch_objectives(operator, X, Ys, kap, weights)
    return progress.result(X, objectives, "mmv", kappas)


def _problem_squared_norms(values: np.ndarray, edges) -> np.ndarray:
    """``Σ|values|²`` per problem, one BLAS dot per problem's slice.

    Problem ``b`` owns ``values[edges[b]:edges[b + 1]]``: one ``(p, n)``
    block of a whole stack, or its gathered ``(rows, p)`` entries; a lone
    problem owns all of ``values``.
    """
    if len(edges) == 2:
        return np.array([np.vdot(values, values).real])
    return np.array([np.vdot(values[a:b], values[a:b]).real for a, b in zip(edges, edges[1:])])


def mmv_batch_objectives(operator, X, Ys, kap, penalty_weights=None):
    """Per-problem ℓ2,1 objectives of a ``(B, n, p)`` iterate stack."""
    residual = operator.matmul_batch(X) - Ys
    data = squared_norms(residual, axis=(1, 2))
    row_norms = np.sqrt(squared_norms(X, axis=2))
    if penalty_weights is not None:
        row_norms = penalty_weights.reshape(1, X.shape[1]) * row_norms
    return data + kap * row_norms.sum(axis=1)
