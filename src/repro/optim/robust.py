"""Outlier-augmented sparse recovery (measurement-domain robustness).

A single interference burst, a saturated RF chain, or an extractor bug
puts *gross* errors on a few measurement entries; the plain LASSO has no
place to absorb them, so they leak into the recovered spectrum and bias
the direct-path estimate.  The classic fix (Wright & Ma, "Dense error
correction via ℓ1-minimization") augments the dictionary with an
identity block and gives the corruption its own sparse variable:

    min_{x,e}  ‖y − [Ã | I]·[x; e]‖₂² + κ‖x‖₁ + λ‖e‖₁

The spectrum ``x`` stays sparse over the angle-delay grid while gross
per-antenna/subcarrier corruption lands in ``e``; entries the corruption
did not touch keep ``e = 0`` because λ prices them out.

The split penalty is an ordinary *weighted* LASSO over the augmented
variable ``z = [x; e]``:

    min_z  ‖y − [Ã | I]·z‖₂² + κ·Σⱼ wⱼ|zⱼ|,   w = [1…1 | λ/κ … λ/κ]

so the one FISTA loop (:func:`~repro.optim.mmv.mmv_lockstep`, reached
through :func:`~repro.optim.mmv.solve_mmv_fista` or
:func:`~repro.optim.batch.solve_batch`) applies unchanged through its
``penalty_weights`` hook; :func:`solve_robust_lasso` is its one-column
call, as the LASSO is the one-column ℓ2,1 program.  (The textbook
alternative — folding λ into a column scaling ``[Ã | (κ/λ)·I]`` with a
uniform κ — is mathematically identical but numerically poor: for
``κ ≪ λ`` the shrunken identity columns make FISTA crawl on the error
block.  Unit-scale columns plus per-coordinate thresholds keep the
augmented system as well conditioned as the original.)

:class:`OutlierAugmentedOperator` implements ``[Ã | I]`` as a thin
wrapper over any :class:`~repro.optim.operators.DictionaryOperator`:
the identity block costs ``O(m)`` per product, so a structured base
(e.g. :class:`~repro.optim.operators.KroneckerJointOperator`) keeps its
fast two-GEMM path, its batched ``matmul_batch`` folding, and an *exact*
Lipschitz constant ``‖AᴴA‖₂ + 1`` (because ``MMᴴ = AAᴴ + I`` shares
eigenvectors with ``AAᴴ``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace
from repro.optim.mmv import solve_mmv_fista
from repro.optim.operators import DictionaryOperator, as_operator


class OutlierAugmentedOperator(DictionaryOperator):
    """The augmented dictionary ``[Ã | I]`` over any base operator.

    ``base`` is the clean dictionary ``Ã`` of shape ``(m, n)`` — dense
    array or any :class:`~repro.optim.operators.DictionaryOperator`.
    The identity block has unit-scale columns; the robust solvers price
    it through ``penalty_weights`` (see the module docstring for why).
    """

    def __init__(self, base) -> None:
        self.base = as_operator(base)
        m, n = self.base.shape
        self.shape = (m, n + m)

    @property
    def n_dictionary(self) -> int:
        """Columns of the clean dictionary (the spectrum block)."""
        return self.base.shape[1]

    def split(self, z):
        """Split an augmented solution ``z = [x; e]`` into ``(x, e)``."""
        n = self.n_dictionary
        return z[:n], z[n:]

    def matvec(self, x):
        x = np.asarray(x)
        n = self.n_dictionary
        return self.base.matvec(x[:n]) + x[n:]

    def rmatvec(self, r):
        return np.concatenate([self.base.rmatvec(r), r], axis=0)

    def to_dense(self):
        identity = np.eye(self.shape[0], dtype=complex)
        return np.concatenate([self.base.to_dense(), identity], axis=1)

    def lipschitz(self) -> float:
        # Exact: ‖MᴴM‖₂ = ‖MMᴴ‖₂ = ‖AAᴴ + I‖₂ = ‖AᴴA‖₂ + 1.
        return self.base.lipschitz() + 1.0

    def column_norms(self):
        return np.concatenate([self.base.column_norms(), np.ones(self.shape[0])], axis=0)

    def columns(self, indices: Sequence[int]):
        n = self.n_dictionary
        cols = []
        for index in indices:
            index = int(index)
            if index < n:
                cols.append(self.base.columns([index])[:, 0])
            else:
                unit = np.zeros(self.shape[0], dtype=np.complex128)
                unit[index - n] = 1.0
                cols.append(unit)
        return np.stack(cols, axis=1)


@dataclass
class RobustSolverResult:
    """Outcome of one outlier-augmented solve.

    Attributes
    ----------
    x:
        The recovered spectrum coefficients.
    e:
        The recovered measurement corruption, same length as the
        measurement; ``Ãx + e`` approximates ``y``.
    outlier_fraction:
        ``‖e‖² / ‖y‖²`` — the fraction of measurement energy the solver
        attributed to corruption.  Near zero on clean links; the
        per-AP trust scoring in :mod:`repro.core.localization` consumes
        this directly.
    objective / iterations / converged:
        As in :class:`~repro.optim.result.SolverResult`, for the
        split-penalty objective ``‖Ãx + e − y‖₂² + κ‖x‖₁ + λ‖e‖₁``.
    """

    x: np.ndarray
    e: np.ndarray
    outlier_fraction: float
    objective: float
    iterations: int
    converged: bool
    convergence: ConvergenceTrace | None = None


def robust_lambda(rhs: np.ndarray, *, fraction: float = 0.5) -> float:
    """λ as a fraction of the largest zero-solution outlier gradient.

    For the identity block the gradient at ``(x, e) = 0`` is ``−2y``, so
    ``λ ≥ 2·max|yᵢ|`` keeps every ``eᵢ`` at zero.  A fraction of that
    critical value admits only the entries that stand far above the rest
    of the measurement — the gross-corruption regime the augmented
    program is built for.
    """
    if not 0 < fraction <= 1:
        raise SolverError(f"fraction must be in (0, 1], got {fraction}")
    peak = float(np.max(np.abs(np.asarray(rhs))))
    if peak == 0.0:
        raise SolverError("measurement is identically zero; lambda is undefined")
    return fraction * 2.0 * peak


def robust_objective(matrix, rhs, x, e, kappa: float, lambda_outlier: float) -> float:
    """``‖Ãx + e − y‖₂² + κ‖x‖₁ + λ‖e‖₁`` (ℓ2,1 row norms in MMV form)."""
    residual = as_operator(matrix).matvec(x) + np.asarray(e) - np.asarray(rhs)
    data = float(np.vdot(residual, residual).real)
    if np.ndim(x) == 2:
        sparse = float(np.linalg.norm(x, axis=1).sum())
        outlier = float(np.linalg.norm(e, axis=1).sum())
    else:
        sparse = float(np.abs(x).sum())
        outlier = float(np.abs(e).sum())
    return data + kappa * sparse + lambda_outlier * outlier


def robust_penalty_weights(n: int, m: int, kappa: float, lambda_outlier: float) -> np.ndarray:
    """The ``penalty_weights`` vector realizing κ‖x‖₁ + λ‖e‖₁ at weight κ.

    Length ``n + m``: ones over the dictionary block, ``λ/κ`` over the
    identity block.  Pass it (with an :class:`OutlierAugmentedOperator`)
    to :func:`~repro.optim.batch.solve_batch` to run outlier-augmented
    recovery in lockstep across a whole batch.
    """
    if kappa <= 0 or lambda_outlier <= 0:
        raise SolverError(
            f"kappa and lambda_outlier must be positive, got {kappa}, {lambda_outlier}"
        )
    return np.concatenate([np.ones(n), np.full(m, lambda_outlier / kappa)])


def solve_robust_lasso(
    matrix,
    rhs: np.ndarray,
    kappa: float,
    lambda_outlier: float | None = None,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    x0: np.ndarray | None = None,
    e0: np.ndarray | None = None,
    lipschitz: float | None = None,
    telemetry: ConvergenceTrace | None = None,
) -> RobustSolverResult:
    """Solve ``min ‖y − Ãx − e‖₂² + κ‖x‖₁ + λ‖e‖₁`` by FISTA.

    ``y`` is solved as one ``(m, 1)`` snapshot column of the ℓ2,1 loop
    and ``x``, ``e`` come back as vectors.

    Parameters
    ----------
    matrix / rhs / kappa:
        As in :func:`~repro.optim.fista.solve_lasso_fista`; κ must be
        strictly positive (the penalty weights carry the ratio λ/κ).
    lambda_outlier:
        The corruption penalty λ > 0; defaults to ``2κ``.  λ prices a
        unit of corruption explained by ``e`` against the κ-priced ℓ1
        cost of explaining it through dictionary atoms, so the useful
        range scales with κ, *not* with the measurement magnitude: an
        overcomplete dictionary reproduces most corruptions at a modest
        ℓ1 cost, and any λ far above κ sends the corruption into the
        spectrum instead of ``e``.  The plain-LASSO limit is still
        reached as λ grows (``λ ≥ 2·max|yᵢ|`` forces ``e = 0`` exactly —
        see :func:`robust_lambda` for that critical value).
    lipschitz:
        Optional precomputed ``‖ÃᴴÃ‖₂`` of the *base* dictionary; the
        augmented constant is exactly ``‖ÃᴴÃ‖₂ + 1``.
    x0 / e0:
        Optional warm starts for the two blocks, of shapes ``(n,)`` and
        ``(m,)``.
    """
    rhs = np.asarray(rhs)
    if rhs.ndim != 1:
        raise SolverError(f"solve_robust_lasso expects a 1-D measurement, got ndim={rhs.ndim}")
    if kappa <= 0:
        raise SolverError(f"robust recovery needs kappa > 0, got {kappa}")
    if lambda_outlier is None:
        lambda_outlier = 2.0 * kappa
    if lambda_outlier <= 0:
        raise SolverError(f"lambda_outlier must be positive, got {lambda_outlier}")
    augmented = OutlierAugmentedOperator(matrix)
    m, n = augmented.base.shape
    z0 = None
    if x0 is not None or e0 is not None:
        blocks = []
        for name, block, rows in (("x0", x0, n), ("e0", e0, m)):
            block = np.zeros(rows, dtype=complex) if block is None else np.asarray(block, dtype=complex)
            if block.shape != (rows,):
                raise SolverError(f"{name} has shape {block.shape}, expected {(rows,)}")
            blocks.append(block)
        z0 = np.concatenate(blocks).reshape(-1, 1)
    result = solve_mmv_fista(
        augmented,
        rhs.reshape(-1, 1),
        kappa,
        max_iterations=max_iterations,
        tolerance=tolerance,
        x0=z0,
        lipschitz=None if lipschitz is None else float(lipschitz) + 1.0,
        penalty_weights=robust_penalty_weights(n, m, kappa, lambda_outlier),
        telemetry=telemetry,
    )
    x, e = augmented.split(result.x[:, 0])
    rhs_energy = float(np.sum(np.abs(rhs) ** 2))
    e_energy = float(np.sum(np.abs(e) ** 2))
    return RobustSolverResult(
        x=x,
        e=e,
        outlier_fraction=e_energy / rhs_energy if rhs_energy > 0 else 0.0,
        # The change of variables preserves the objective value exactly.
        objective=result.objective,
        iterations=result.iterations,
        converged=result.converged,
        convergence=result.convergence,
    )
