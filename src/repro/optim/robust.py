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

so every existing solver (:func:`~repro.optim.fista.solve_lasso_fista`,
:func:`~repro.optim.mmv.solve_mmv_fista`, the lockstep batched engine)
applies unchanged through their ``penalty_weights`` hook.  (The textbook
alternative — folding λ into a column scaling ``[Ã | (κ/λ)·I]`` with a
uniform κ — is mathematically identical but numerically poor: for
``κ ≪ λ`` the shrunken identity columns make FISTA crawl on the error
block.  Unit-scale columns plus per-coordinate thresholds keep the
augmented system as well conditioned as the original.)

:class:`OutlierAugmentedOperator` implements ``[Ã | c·I]`` as a thin
wrapper over any :class:`~repro.optim.operators.DictionaryOperator`:
the identity block costs ``O(m)`` per product, so a structured base
(e.g. :class:`~repro.optim.operators.KroneckerJointOperator`) keeps its
fast two-GEMM path, its batched ``matmul_batch`` folding, and an *exact*
Lipschitz constant ``‖AᴴA‖₂ + c²`` (because ``MMᴴ = AAᴴ + c²I`` shares
eigenvectors with ``AAᴴ``).

:func:`solve_huber_irls` is the smooth-loss alternative: iteratively
reweighted least squares on the *residual* with Huber weights, each pass
an ordinary LASSO over a row-weighted operator — the measurement-side
mirror of the column reweighting in :mod:`repro.optim.reweighted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace
from repro.optim.fista import solve_lasso_fista
from repro.optim.mmv import solve_mmv_fista
from repro.optim.operators import DictionaryOperator, as_operator


class OutlierAugmentedOperator(DictionaryOperator):
    """The augmented dictionary ``[Ã | c·I]`` over any base operator.

    Parameters
    ----------
    base:
        The clean dictionary ``Ã`` of shape ``(m, n)`` — dense array or
        any :class:`~repro.optim.operators.DictionaryOperator`.
    outlier_scale:
        The identity-column scale ``c > 0``.  The robust solvers use the
        default ``c = 1`` and price the error block through
        ``penalty_weights`` instead (see the module docstring for why);
        other scales remain available for the uniform-κ formulation.
    """

    def __init__(self, base, *, outlier_scale: float = 1.0) -> None:
        self.base = as_operator(base)
        if not np.isfinite(outlier_scale) or outlier_scale <= 0:
            raise SolverError(f"outlier_scale must be positive, got {outlier_scale}")
        self.outlier_scale = float(outlier_scale)
        m, n = self.base.shape
        self.shape = (m, n + m)

    @property
    def n_dictionary(self) -> int:
        """Columns of the clean dictionary (the spectrum block)."""
        return self.base.shape[1]

    def split(self, z):
        """Split an augmented solution into ``(x, e)`` in original units.

        ``z`` is the raw solver iterate over ``[Ã | c·I]``; the error
        block is rescaled by ``c`` so ``Ã x + e ≈ y``.
        """
        n = self.n_dictionary
        return z[:n], self.outlier_scale * z[n:]

    def matvec(self, x):
        x = np.asarray(x)
        n = self.n_dictionary
        return self.base.matvec(x[:n]) + self.outlier_scale * x[n:]

    def rmatvec(self, r):
        return np.concatenate([self.base.rmatvec(r), self.outlier_scale * r], axis=0)

    def to_dense(self):
        identity = np.eye(self.shape[0], dtype=complex)
        return np.concatenate([self.base.to_dense(), self.outlier_scale * identity], axis=1)

    def lipschitz(self) -> float:
        # Exact: ‖MᴴM‖₂ = ‖MMᴴ‖₂ = ‖AAᴴ + c²I‖₂ = ‖AᴴA‖₂ + c².
        return self.base.lipschitz() + self.outlier_scale**2

    def column_norms(self):
        identity_norms = np.full(self.shape[0], self.outlier_scale)
        return np.concatenate([self.base.column_norms(), identity_norms], axis=0)

    def columns(self, indices: Sequence[int]):
        n = self.n_dictionary
        cols = []
        for index in indices:
            index = int(index)
            if index < n:
                cols.append(self.base.columns([index])[:, 0])
            else:
                unit = np.zeros(self.shape[0], dtype=np.complex128)
                unit[index - n] = self.outlier_scale
                cols.append(unit)
        return np.stack(cols, axis=1)


class RowWeightedOperator(DictionaryOperator):
    """``diag(w)·Ã`` — a measurement-row reweighting of a base operator.

    Used by :func:`solve_huber_irls`: down-weighting a measurement row is
    a diagonal multiply on the *output* side, so the base operator's
    structure (and fast paths) survive untouched.
    """

    def __init__(self, base, row_weights) -> None:
        self.base = as_operator(base)
        weights = np.asarray(row_weights, dtype=float)
        if weights.shape != (self.base.shape[0],):
            raise SolverError(
                f"row_weights must have shape ({self.base.shape[0]},), got {weights.shape}"
            )
        self.row_weights = weights
        self.shape = self.base.shape
        self._max_weight = float(weights.max(initial=0.0))

    def _expand(self, like):
        return self.row_weights if like.ndim == 1 else self.row_weights[:, None]

    def matvec(self, x):
        product = self.base.matvec(x)
        return self._expand(product) * product

    def rmatvec(self, r):
        return self.base.rmatvec(self._expand(r) * r)

    def to_dense(self):
        return self.row_weights[:, None] * self.base.to_dense()

    def lipschitz(self) -> float:
        # ‖WA‖₂² ≤ ‖W‖₂²·‖A‖₂² = max(w)²·‖AᴴA‖₂ — a valid (tight for
        # uniform weights) upper bound; FISTA only needs an upper bound.
        return self._max_weight**2 * self.base.lipschitz()


@dataclass
class RobustSolverResult:
    """Outcome of one outlier-augmented solve.

    Attributes
    ----------
    x:
        The recovered spectrum coefficients — 1-D, or 2-D (one column
        per snapshot) for the MMV variant.
    e:
        The recovered measurement corruption, same leading dimension as
        the measurement; ``Ãx + e`` approximates ``y``.
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


def _augmented_warm_start(augmented, x0, e0, n, m, two_dim_p=None):
    if x0 is None and e0 is None:
        return None
    shape = lambda rows: (rows,) if two_dim_p is None else (rows, two_dim_p)  # noqa: E731
    x_part = np.zeros(shape(n), dtype=complex) if x0 is None else np.asarray(x0, dtype=complex)
    e_part = (
        np.zeros(shape(m), dtype=complex)
        if e0 is None
        else np.asarray(e0, dtype=complex) / augmented.outlier_scale
    )
    return np.concatenate([x_part, e_part], axis=0)


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
        Optional warm starts for the two blocks, in original units.
    """
    if kappa <= 0:
        raise SolverError(f"robust recovery needs kappa > 0, got {kappa}")
    operator = as_operator(matrix)
    if lambda_outlier is None:
        lambda_outlier = 2.0 * kappa
    if lambda_outlier <= 0:
        raise SolverError(f"lambda_outlier must be positive, got {lambda_outlier}")
    augmented = OutlierAugmentedOperator(operator)
    m, n = operator.shape
    z0 = _augmented_warm_start(augmented, x0, e0, n, m)
    result = solve_lasso_fista(
        augmented,
        rhs,
        kappa,
        max_iterations=max_iterations,
        tolerance=tolerance,
        x0=z0,
        lipschitz=None if lipschitz is None else float(lipschitz) + 1.0,
        penalty_weights=robust_penalty_weights(n, m, kappa, lambda_outlier),
        telemetry=telemetry,
    )
    x, e = augmented.split(result.x)
    rhs_energy = float(np.sum(np.abs(np.asarray(rhs)) ** 2))
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


def solve_robust_mmv(
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
    """MMV (ℓ2,1) variant: joint-sparse spectrum, row-sparse corruption.

    The corruption rows are shared across snapshots — the model for a
    persistently bad antenna/subcarrier rather than one glitched packet
    (per-packet glitches are the validation gate's job upstream).
    """
    if kappa <= 0:
        raise SolverError(f"robust recovery needs kappa > 0, got {kappa}")
    operator = as_operator(matrix)
    rhs_host = np.asarray(rhs)
    if rhs_host.ndim != 2:
        raise SolverError(f"solve_robust_mmv expects 2-D snapshots, got ndim={rhs_host.ndim}")
    if lambda_outlier is None:
        # Same κ-relative pricing as solve_robust_lasso (the row-sparse
        # critical value — e row i zero iff λ ≥ 2‖Y_{i,:}‖₂ — sits far
        # above the regime where e outcompetes the dictionary atoms).
        lambda_outlier = 2.0 * kappa
    if lambda_outlier <= 0:
        raise SolverError(f"lambda_outlier must be positive, got {lambda_outlier}")
    augmented = OutlierAugmentedOperator(operator)
    m, n = operator.shape
    z0 = _augmented_warm_start(augmented, x0, e0, n, m, two_dim_p=rhs_host.shape[1])
    result = solve_mmv_fista(
        augmented,
        rhs,
        kappa,
        max_iterations=max_iterations,
        tolerance=tolerance,
        x0=z0,
        lipschitz=None if lipschitz is None else float(lipschitz) + 1.0,
        penalty_weights=robust_penalty_weights(n, m, kappa, lambda_outlier),
        telemetry=telemetry,
    )
    x, e = augmented.split(result.x)
    rhs_energy = float(np.sum(np.abs(rhs_host) ** 2))
    e_energy = float(np.sum(np.abs(e) ** 2))
    return RobustSolverResult(
        x=x,
        e=e,
        outlier_fraction=e_energy / rhs_energy if rhs_energy > 0 else 0.0,
        objective=result.objective,
        iterations=result.iterations,
        converged=result.converged,
        convergence=result.convergence,
    )


def solve_huber_irls(
    matrix,
    rhs: np.ndarray,
    kappa: float,
    *,
    delta: float | None = None,
    irls_iterations: int = 3,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    telemetry: ConvergenceTrace | None = None,
) -> RobustSolverResult:
    """Huber-loss sparse recovery by IRLS over the measurement rows.

    Each pass solves an ordinary LASSO over ``diag(√w)·Ã`` with
    ``√w``-scaled measurements, then recomputes the Huber weights
    ``wᵢ = min(1, δ/|rᵢ|)`` from the residual ``r = Ãx − y`` — the
    residual-side mirror of the coefficient reweighting in
    :func:`~repro.optim.reweighted.solve_reweighted_lasso` (same outer
    pass / inner FISTA structure, warm-started between passes).

    Parameters
    ----------
    delta:
        The Huber corner: residual entries beyond δ are treated as
        outliers and down-weighted.  Defaults per pass to
        ``1.345 · 1.4826 · median|r|`` (the 95%-efficient normal-MAD
        rule), so no noise estimate is needed.
    irls_iterations:
        Outer reweighting passes (the first pass is unweighted).

    The returned ``e = (1 − w)·(y − Ãx)`` is the residual mass the Huber
    loss linearized away — zero wherever ``|r| ≤ δ``, approaching the
    full residual on gross outliers — oriented so ``Ãx + e ≈ y`` and
    ``outlier_fraction`` are comparable with :func:`solve_robust_lasso`.
    """
    if kappa <= 0:
        raise SolverError(f"robust recovery needs kappa > 0, got {kappa}")
    if irls_iterations < 1:
        raise SolverError(f"irls_iterations must be >= 1, got {irls_iterations}")
    operator = as_operator(matrix)
    rhs = np.asarray(rhs, dtype=complex)

    x = None
    result = None
    weights_host = np.ones(operator.shape[0])
    for _ in range(irls_iterations):
        sqrt_w = np.sqrt(weights_host)
        weighted = RowWeightedOperator(operator, sqrt_w)
        result = solve_lasso_fista(
            weighted,
            sqrt_w * rhs,
            kappa,
            max_iterations=max_iterations,
            tolerance=tolerance,
            x0=x,
            telemetry=telemetry,
        )
        x = result.x
        magnitudes = np.abs(operator.matvec(x) - rhs)
        corner = delta
        if corner is None:
            scale = 1.4826 * float(np.median(magnitudes))
            corner = 1.345 * scale
        if corner <= 0:
            # Residual already (numerically) zero everywhere: done.
            weights_host = np.ones(operator.shape[0])
            break
        weights_host = np.minimum(1.0, corner / np.maximum(magnitudes, 1e-300))

    e = (1.0 - weights_host) * (rhs - operator.matvec(x))
    rhs_energy = float(np.sum(np.abs(rhs) ** 2))
    e_energy = float(np.sum(np.abs(e) ** 2))
    return RobustSolverResult(
        x=x,
        e=e,
        outlier_fraction=e_energy / rhs_energy if rhs_energy > 0 else 0.0,
        objective=result.objective,
        iterations=result.iterations,
        converged=result.converged,
        convergence=result.convergence,
    )
