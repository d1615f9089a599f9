"""Optimality oracle: solver outputs satisfy the KKT conditions of the
convex programs the paper states, not just an earlier build's numbers.

Eq. 11 (LASSO, optionally weighted ℓ1):

    min_x ‖Ax − y‖₂² + κ·Σⱼ wⱼ|xⱼ|

is solved by ``x`` iff, with ``g = 2Aᴴ(Ax − y)``,

* ``gⱼ = −κ·wⱼ·xⱼ/|xⱼ|`` on the support (``xⱼ ≠ 0``), and
* ``|gⱼ| ≤ κ·wⱼ`` off it.

Eq. 18 (the ℓ2,1 MMV program) has the same conditions row-wise, with
``G = 2Aᴴ(AX − Y)``: ``Gᵢ = −κ·wᵢ·Xᵢ/‖Xᵢ‖`` on active rows and
``‖Gᵢ‖ ≤ κ·wᵢ`` on zero rows.

The outlier-augmented program behind the NLOS drills' evidence probes,

    min_{x,e} ‖Ax + e − y‖₂² + κ‖x‖₁ + λ‖e‖₁

(ℓ2,1 row norms in MMV form), has the same conditions per block with
``r = Ax + e − y``: ``2Aᴴr`` meets the κ-conditions on ``x`` and ``2r``
the λ-conditions on ``e``.

Every instance is solved to ``tolerance=1e-10`` at ``B = 1`` and
``B = 5`` — through ``solve_batch``, and for the one-column robust
program also through ``solve_robust_lasso`` — so the oracle
covers the lockstep kernels both alone and in a batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim import (
    OutlierAugmentedOperator,
    robust_penalty_weights,
    solve_batch,
    solve_robust_lasso,
)

M, N, P = 20, 50, 3
KAPPA_FRACTION = 0.2
#: KKT residual budget, relative to the largest ``κ·wⱼ``.
KKT_TOLERANCE = 1e-6
#: λ/κ of the robust instances: at λ = κ the error block picks up the
#: corrupted entries, so both blocks have a non-empty support.
OUTLIER_RATIO = 1.0


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _instance(seed, n_problems, snapshots=None):
    rng = np.random.default_rng(seed)
    matrix = _complex(rng, M, N) / np.sqrt(M)
    shape = (M,) if snapshots is None else (M, snapshots)
    ys = []
    for _ in range(n_problems):
        coefficients = np.zeros((N,) + shape[1:], dtype=complex)
        coefficients[rng.choice(N, 4, replace=False)] = _complex(rng, 4, *shape[1:])
        ys.append(matrix @ coefficients + 0.05 * _complex(rng, *shape))
    weights = 0.5 + rng.random(N)
    return matrix, ys, weights


def _kappa(matrix, y):
    """A κ that leaves a few atoms active: a fraction of κ_max = ‖2Aᴴy‖∞."""
    gradient = 2.0 * matrix.conj().T @ y
    peak = np.abs(gradient).max() if y.ndim == 1 else np.linalg.norm(gradient, axis=1).max()
    return KAPPA_FRACTION * float(peak)


def _corrupted(ys, seed):
    """``ys`` with gross errors on two measurement entries (rows) each."""
    rng = np.random.default_rng(seed)
    corrupted = []
    for y in ys:
        y = y.copy()
        y[rng.choice(M, 2, replace=False)] += 5.0 * _complex(rng, 2, *y.shape[1:])
        corrupted.append(y)
    return corrupted


def _assert_kkt(matrix, y, x, kappa, weights):
    """Check the (row-wise for 2-D ``x``) subgradient optimality conditions."""
    gradient = 2.0 * matrix.conj().T @ (matrix @ x - y)
    _assert_subgradient(gradient, x, kappa * (np.ones(N) if weights is None else weights))


def _assert_robust_kkt(matrix, y, x, e, kappa):
    """Both blocks of the split program: ``2Aᴴr`` on x, ``2r`` on e."""
    residual = matrix @ x + e - y
    _assert_subgradient(2.0 * matrix.conj().T @ residual, x, np.full(N, kappa))
    _assert_subgradient(2.0 * residual, e, np.full(M, OUTLIER_RATIO * kappa))


def _assert_subgradient(gradient, x, penalty):
    """``gradient`` is minus a subgradient of ``Σⱼ penaltyⱼ·|xⱼ|`` at x."""
    if x.ndim == 1:
        magnitude, direction_axis = np.abs(x), None
        gradient_size = np.abs(gradient)
    else:
        magnitude, direction_axis = np.linalg.norm(x, axis=1), 1
        gradient_size = np.linalg.norm(gradient, axis=1)
    support = magnitude > 0
    budget = KKT_TOLERANCE * float(penalty.max())

    assert support.any(), "κ too large: the instance has an empty support"
    assert np.all(gradient_size[~support] <= penalty[~support] + budget)
    scale = magnitude[support] if direction_axis is None else magnitude[support][:, None]
    weight = penalty[support] if direction_axis is None else penalty[support][:, None]
    expected = -weight * x[support] / scale
    assert float(np.abs(gradient[support] - expected).max()) <= budget


@pytest.mark.parametrize("n_problems", (1, 5))
@pytest.mark.parametrize("weighted", (False, True))
def test_fista_solves_eq11(n_problems, weighted):
    matrix, ys, weights = _instance(11, n_problems)
    weights = weights if weighted else None
    kappas = [_kappa(matrix, y) for y in ys]
    batch = solve_batch(
        matrix, ys, "fista", kappa=kappas, penalty_weights=weights,
        tolerance=1e-10, max_iterations=20_000,
    )
    assert all(batch.converged)
    for y, x, kappa in zip(ys, batch.to_numpy(), kappas):
        _assert_kkt(matrix, y, x, kappa, weights)


@pytest.mark.parametrize("n_problems", (1, 5))
@pytest.mark.parametrize("weighted", (False, True))
def test_mmv_solves_eq18(n_problems, weighted):
    matrix, ys, weights = _instance(13, n_problems, snapshots=P)
    weights = weights if weighted else None
    kappas = [_kappa(matrix, y) for y in ys]
    batch = solve_batch(
        matrix, ys, "mmv", kappa=kappas, penalty_weights=weights,
        tolerance=1e-10, max_iterations=20_000,
    )
    assert all(batch.converged)
    for y, x, kappa in zip(ys, batch.to_numpy(), kappas):
        _assert_kkt(matrix, y, x, kappa, weights)


@pytest.mark.parametrize("n_problems", (1, 5))
@pytest.mark.parametrize("snapshots", (None, P))
def test_robust_solves_split_program(n_problems, snapshots):
    matrix, ys, _ = _instance(14, n_problems, snapshots=snapshots)
    ys = _corrupted(ys, 15)
    kappas = [_kappa(matrix, y) for y in ys]
    augmented = OutlierAugmentedOperator(matrix)
    weights = robust_penalty_weights(N, M, kappas[0], OUTLIER_RATIO * kappas[0])
    batch = solve_batch(
        augmented, ys, "fista" if snapshots is None else "mmv", kappa=kappas,
        penalty_weights=weights, tolerance=1e-10, max_iterations=20_000,
    )
    assert all(batch.converged)
    for y, z, kappa in zip(ys, batch.to_numpy(), kappas):
        _assert_robust_kkt(matrix, y, *augmented.split(z), kappa)
        if snapshots is not None:
            continue
        alone = solve_robust_lasso(
            matrix, y, kappa, OUTLIER_RATIO * kappa, tolerance=1e-10, max_iterations=20_000
        )
        assert alone.converged
        _assert_robust_kkt(matrix, y, alone.x, alone.e, kappa)
