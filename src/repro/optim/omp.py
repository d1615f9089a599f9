"""Orthogonal matching pursuit (OMP).

A greedy baseline for the same sparse systems the ℓ1 solvers handle.
The paper motivates ℓ1 over greedy/subspace methods by robustness at low
SNR; we keep OMP around so the ablation benchmarks can show that
trade-off on identical scenes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace
from repro.optim.linalg import validate_system
from repro.optim.operators import as_operator
from repro.optim.result import SolverResult


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
    if sparsity < 1:
        raise SolverError(f"sparsity must be >= 1, got {sparsity}")

    operator = as_operator(matrix)
    m, n = operator.shape
    sparsity = min(sparsity, m, n)
    column_norms = operator.column_norms()
    usable = column_norms > 0

    rhs = np.asarray(rhs, dtype=complex)
    residual = rhs.copy()
    support: list[int] = []
    coefficients = np.zeros(0, dtype=complex)

    iterations = 0
    for iterations in range(1, sparsity + 1):
        correlations = np.abs(operator.rmatvec(residual))
        with np.errstate(invalid="ignore", divide="ignore"):
            correlations = np.where(
                usable, correlations / np.where(usable, column_norms, 1.0), -1.0
            )
        correlations[support] = -1.0
        best = int(np.argmax(correlations))
        if float(correlations[best]) <= 0:
            break
        support.append(best)

        submatrix = operator.columns(support)
        coefficients = np.linalg.lstsq(submatrix, rhs, rcond=None)[0]
        residual = rhs - submatrix @ coefficients
        if telemetry is not None or callback is not None:
            residual_norm = float(np.linalg.norm(residual))
            if telemetry is not None:
                telemetry.record(
                    objective=residual_norm**2,
                    residual_norm=residual_norm,
                    support_size=len(support),
                )
            if callback is not None:
                snapshot = np.zeros(n, dtype=complex)
                snapshot[support] = coefficients
                callback(iterations, snapshot, residual_norm**2)
        if float(np.linalg.norm(residual)) <= tolerance:
            break

    x = np.zeros(n, dtype=complex)
    x[support] = coefficients
    return SolverResult(
        x=x,
        objective=float(np.linalg.norm(residual)) ** 2,
        iterations=iterations,
        converged=True,
        convergence=telemetry,
    )
