"""Complex-valued sparse-recovery solvers.

The paper solves the ℓ1-regularized least-squares program

    min_a  ‖y − S a‖₂² + κ‖a‖₁                         (paper Eq. 11 / 18)

with CVX's second-order cone solvers.  This package solves the same
programs with self-contained numpy FISTA: the LASSO of Eq. 11 and the
ℓ2,1 multi-packet program of Eq. 18, plus OMP as the greedy baseline.

Dictionaries may be dense ndarrays or structured
:class:`DictionaryOperator` instances — in particular
:class:`KroneckerJointOperator`, which applies the paper's Eq. 16 joint
dictionary as two small matmuls instead of one dense GEMM.

There are two iteration loops, each a lockstep kernel over a stack of
problems: one FISTA loop, :func:`~repro.optim.mmv.mmv_lockstep`, for
both programs (with one snapshot column a row's ℓ2 norm is the entry's
modulus, so the LASSO is the ℓ2,1 program with ``p = 1``), and OMP's.
The functions below are their ``B = 1`` front doors:

* :func:`solve_lasso_fista` — accelerated proximal gradient (FISTA) with
  the fixed step ``1/L``; the workhorse used by :mod:`repro.core`.  It
  solves ``y`` as one ``(m, 1)`` column and returns a vector.
* :func:`solve_mmv_fista` — the multiple-measurement-vector (ℓ2,1,
  joint-sparse) variant used for multi-packet fusion (paper §III-D,
  after Malioutov et al. [25]).
* :func:`solve_omp` — greedy orthogonal matching pursuit, the
  model-order-bound baseline of the ablations.

:func:`solve_batch` (``solve_batch(A, ys, "fista" | "mmv", ...)``)
stacks many measurements against one dictionary and feeds the FISTA
kernel column blocks.  The outlier-augmented ``[A | I]`` solves of
:mod:`repro.optim.robust` are the same kernel with penalty weights.

All solvers accept complex dictionaries and measurements directly — the
complex soft-threshold (magnitude shrinkage, phase preserved) makes the
real/complex "SoC vs QP" distinction the paper draws (§III-A footnote)
unnecessary here.
"""

from repro.optim.batch import FLOAT64_PARITY_TOLERANCE, BatchSolverResult, solve_batch
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
from repro.optim.result import SolverResult
from repro.optim.robust import (
    OutlierAugmentedOperator,
    RobustSolverResult,
    robust_lambda,
    robust_objective,
    robust_penalty_weights,
    solve_robust_lasso,
)
from repro.optim.tuning import mmv_residual_kappa, residual_kappa
from repro.optim.warm import WarmStartState

__all__ = [
    "BatchSolverResult",
    "DenseOperator",
    "DictionaryOperator",
    "FLOAT64_PARITY_TOLERANCE",
    "KroneckerJointOperator",
    "OutlierAugmentedOperator",
    "RobustSolverResult",
    "SolverResult",
    "WarmStartState",
    "as_operator",
    "estimate_lipschitz",
    "mmv_residual_kappa",
    "residual_kappa",
    "robust_lambda",
    "robust_objective",
    "robust_penalty_weights",
    "row_soft_threshold",
    "soft_threshold",
    "solve_batch",
    "solve_lasso_fista",
    "solve_mmv_fista",
    "solve_omp",
    "solve_robust_lasso",
]
