"""Complex-valued sparse-recovery solvers.

The paper solves the ℓ1-regularized least-squares program

    min_a  ‖y − S a‖₂² + κ‖a‖₁                         (paper Eq. 11 / 18)

with CVX's second-order cone solvers.  This package provides
self-contained numpy implementations of the same program behind one
front door:

* :func:`solve` — the unified entry point:
  ``solve(A, y, method="fista", ...)`` dispatches by name and derives κ
  when omitted.
* :func:`solve_batch` — the batched entry point:
  ``solve_batch(A, ys, method=...)`` stacks many measurements against
  one dictionary into lockstep batched iterations, with a parity gate
  against the sequential solvers.

Dictionaries may be dense ndarrays or structured
:class:`DictionaryOperator` instances — in particular
:class:`KroneckerJointOperator`, which applies the paper's Eq. 16 joint
dictionary as two small matmuls instead of one dense GEMM.

The per-solver functions remain the stable low-level surface:

* :func:`solve_lasso_fista` — accelerated proximal gradient (FISTA) with
  backtracking; the workhorse used by :mod:`repro.core`.
* :func:`solve_lasso_admm` — ADMM with a cached normal-equation
  factorization; faster when the same dictionary is reused many times.
* :func:`solve_omp` — greedy orthogonal matching pursuit, used as an
  ablation baseline.
* :func:`solve_mmv_fista` — the multiple-measurement-vector (ℓ2,1,
  joint-sparse) variant used for multi-packet fusion (paper §III-D,
  after Malioutov et al. [25]).
* :func:`solve_reweighted_lasso` — iteratively reweighted ℓ1 (Candès &
  Wakin [23]); debiases the ℓ1 shrinkage for sharper spectra.
* :func:`solve_sbl` — sparse Bayesian learning with automatic relevance
  determination (the engine behind off-grid Bayesian DOA, Yang et
  al. [31]); no sparsity weight to tune.

All solvers accept complex dictionaries and measurements directly — the
complex soft-threshold (magnitude shrinkage, phase preserved) makes the
real/complex "SoC vs QP" distinction the paper draws (§III-A footnote)
unnecessary here.
"""

from repro.optim.admm import CachedAdmmFactors, solve_lasso_admm
from repro.optim.batch import FLOAT64_PARITY_TOLERANCE, BatchSolverResult, solve_batch
from repro.optim.facade import solve
from repro.optim.fista import solve_lasso_fista
from repro.optim.linalg import (
    estimate_lipschitz,
    row_soft_threshold,
    soft_threshold,
)
from repro.optim.mmv import solve_mmv_fista
from repro.optim.omp import solve_omp
from repro.optim.operators import (
    DenseOperator,
    DictionaryOperator,
    KroneckerJointOperator,
    as_operator,
)
from repro.optim.guard import GuardrailPolicy, solve_guarded
from repro.optim.result import SolverResult
from repro.optim.reweighted import solve_reweighted_lasso
from repro.optim.robust import (
    OutlierAugmentedOperator,
    RobustSolverResult,
    RowWeightedOperator,
    robust_lambda,
    robust_objective,
    robust_penalty_weights,
    solve_huber_irls,
    solve_robust_lasso,
    solve_robust_mmv,
)
from repro.optim.sbl import solve_sbl
from repro.optim.tuning import mmv_residual_kappa, noise_scaled_kappa, residual_kappa
from repro.optim.warm import WarmStartState

__all__ = [
    "BatchSolverResult",
    "CachedAdmmFactors",
    "DenseOperator",
    "DictionaryOperator",
    "FLOAT64_PARITY_TOLERANCE",
    "GuardrailPolicy",
    "KroneckerJointOperator",
    "OutlierAugmentedOperator",
    "RobustSolverResult",
    "RowWeightedOperator",
    "SolverResult",
    "WarmStartState",
    "as_operator",
    "estimate_lipschitz",
    "mmv_residual_kappa",
    "noise_scaled_kappa",
    "residual_kappa",
    "robust_lambda",
    "robust_objective",
    "robust_penalty_weights",
    "row_soft_threshold",
    "soft_threshold",
    "solve",
    "solve_batch",
    "solve_guarded",
    "solve_huber_irls",
    "solve_lasso_admm",
    "solve_lasso_fista",
    "solve_mmv_fista",
    "solve_omp",
    "solve_reweighted_lasso",
    "solve_robust_lasso",
    "solve_robust_mmv",
    "solve_sbl",
]
