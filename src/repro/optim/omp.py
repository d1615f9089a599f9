"""Orthogonal matching pursuit (OMP).

A greedy baseline for the same sparse systems the ℓ1 solvers handle.
The paper motivates ℓ1 over greedy/subspace methods by robustness at low
SNR; we keep OMP around so the ablation benchmarks can show that
trade-off on identical scenes.  :func:`omp_lockstep` is the one greedy
loop, over ``B`` stacked problems; :func:`solve_omp` is its ``B = 1``
front door.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace
from repro.optim.linalg import validate_system
from repro.optim.operators import as_operator
from repro.optim.result import (
    BatchSolverResult,
    LockstepProgress,
    Observer,
    SolverResult,
    observation_hook,
)


def solve_omp(
    matrix,
    rhs: np.ndarray,
    *,
    sparsity: int,
    tolerance: float = 0.0,
    telemetry: ConvergenceTrace | None = None,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> SolverResult:
    """Greedy recovery of at most ``sparsity`` atoms.

    At each step the atom most correlated with the current residual is
    added to the support and the coefficients are re-fit by least
    squares on the selected columns.

    Parameters
    ----------
    matrix:
        Dictionary ``A`` — a dense ndarray or any
        :class:`~repro.optim.operators.DictionaryOperator`.  Only the
        selected columns are ever materialized, so a structured operator
        never pays for the full dense dictionary.
    sparsity:
        Maximum number of atoms to select (the model order ``K``).  OMP —
        unlike the paper's ℓ1 program — *needs* this parameter, which is
        exactly the sensitivity to model order that §III-A credits
        ROArray with avoiding.
    tolerance:
        Stop early once ``‖residual‖₂ ≤ tolerance``.
    telemetry / callback:
        Per-greedy-step hooks as in
        :func:`~repro.optim.fista.solve_lasso_fista`: objective is the
        squared residual norm, support size the atoms selected so far.
    """
    validate_system(matrix, rhs)
    if rhs.ndim != 1:
        raise SolverError("solve_omp expects a 1-D measurement vector")
    operator = as_operator(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    return omp_lockstep(
        operator,
        rhs.reshape(-1, 1),
        sparsity=sparsity,
        tolerance=tolerance,
        observe=observation_hook(operator, rhs, lambda x: 0.0, telemetry, callback),
    ).single(telemetry)


def omp_lockstep(
    operator,
    Y: np.ndarray,
    *,
    sparsity: int,
    tolerance: float = 0.0,
    observe: Observer | None = None,
) -> BatchSolverResult:
    """OMP on ``B`` problems at once: the one greedy loop.

    ``Y`` holds one measurement per column, ``(m, B)``.  One batched
    adjoint product scores every problem's atoms per step; the greedy
    pick and the least-squares refit stay per problem.  ``observe``
    sees the iterate after every step that added an atom somewhere.
    """
    m, n = operator.shape
    n_problems = Y.shape[1]
    if sparsity < 1:
        raise SolverError(f"sparsity must be >= 1, got {sparsity}")
    sparsity = min(sparsity, m, n)
    progress = LockstepProgress(n_problems, sparsity)

    column_norms = operator.column_norms()
    norms_col = column_norms.reshape(-1, 1)
    usable_col = norms_col > 0

    residuals = Y.copy()
    supports: list[list[int]] = [[] for _ in range(n_problems)]
    coefficients: list = [np.zeros(0, dtype=complex) for _ in range(n_problems)]
    active = progress.active

    for step_index in range(1, sparsity + 1):
        correlations = np.abs(operator.rmatvec(residuals))
        with np.errstate(invalid="ignore", divide="ignore"):
            correlations = np.where(
                usable_col,
                correlations / np.where(usable_col, norms_col, 1.0),
                -1.0,
            )
        done = np.zeros(n_problems, dtype=bool)
        grew = False
        for b in np.nonzero(active)[0]:
            column = correlations[:, b]
            column[supports[b]] = -1.0
            best = int(np.argmax(column))
            if float(column[best]) <= 0:
                done[b] = True
                continue
            supports[b].append(best)
            grew = True
            submatrix = operator.columns(supports[b])
            coefficients[b] = np.linalg.lstsq(submatrix, Y[:, b], rcond=None)[0]
            residuals[:, b] = Y[:, b] - submatrix @ coefficients[b]
            done[b] = float(np.linalg.norm(residuals[:, b])) <= tolerance
        if observe is not None and grew:
            observe(step_index, _scatter(n, supports, coefficients))
        if progress.settle(step_index, done):
            break

    # Greedy recovery always terminates with a usable iterate.
    progress.converged[:] = True
    objectives = [float(np.linalg.norm(residuals[:, b])) ** 2 for b in range(n_problems)]
    return progress.result(_scatter(n, supports, coefficients), objectives, "omp", None)


def _scatter(n, supports, coefficients) -> np.ndarray:
    """The ``(B, n)`` iterate stack holding each problem's refit coefficients."""
    X = np.zeros((len(supports), n), dtype=complex)
    for b, (support, values) in enumerate(zip(supports, coefficients)):
        X[b, support] = values
    return X
