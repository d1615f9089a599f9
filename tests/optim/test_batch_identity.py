"""Lockstep blocks give every problem its lone solve's bits.

``mmv_lockstep`` on ``B`` stacked problems must return, per problem,
the solution (up to the sign of a zero), the iteration count and the
objective of that problem's ``B = 1`` solve, on each of the kernel's
three routes: the screened route of the Fig. 6 fusion solves (91×50
grid, p = 6), the gathered tail and the dense tail.  ``solve_batch``'s
blocks, the grouped fusion of ``fuse_packets`` and the batch runtime's
job groups all rest on this.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.optim.mmv as mmv_kernel
import repro.optim.operators as operators
from repro.optim.mmv import mmv_lockstep
from repro.optim.tuning import mmv_residual_kappa

from tests.optim.test_operators import steering_operator

#: route → (grid, snapshot columns, GATHER_MIN_SIZE): the screened route
#: needs the gathered tail and p ≥ 2M on a grid of 4,096 rows or more;
#: the 61×21 grid never screens.
ROUTES = {
    "screened": ((91, 50), 6, mmv_kernel.GATHER_MIN_SIZE),
    "gathered": ((61, 21), 2, 0),
    "dense": ((61, 21), 2, 10**12),
}


def fusion_problems(rng, operator, count: int, p: int):
    """``count`` noisy few-path problems on ``operator`` and their κ."""
    m, n = operator.shape
    ys, kappas = [], []
    for _ in range(count):
        x_true = np.zeros((n, p), dtype=complex)
        rows = rng.choice(n, size=4, replace=False)
        x_true[rows] = rng.standard_normal((4, p)) + 1j * rng.standard_normal((4, p))
        noise = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
        y = operator.matvec(x_true) + 0.2 * noise
        ys.append(y)
        kappas.append(mmv_residual_kappa(operator, y, fraction=0.05))
    return np.stack(ys), kappas


def assert_matches_lone_solves(operator, ys, kappas, **options):
    batch = mmv_lockstep(operator, ys, kappas, **options)
    for b in range(len(ys)):
        lone = mmv_lockstep(operator, ys[b : b + 1], kappas[b : b + 1], **options)
        # assert_array_equal counts −0.0 and 0.0 as equal.
        np.testing.assert_array_equal(batch.x[b], lone.x[0])
        assert batch.iterations[b] == lone.iterations[0]
        assert batch.objectives[b] == lone.objectives[0]
        assert batch.converged[b] == lone.converged[0]
    return batch


@pytest.mark.parametrize("n_problems", (2, 3, 6))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_stacked_problems_match_their_lone_solves(rng, monkeypatch, route, n_problems):
    grid, p, gather_min = ROUTES[route]
    monkeypatch.setattr(mmv_kernel, "GATHER_MIN_SIZE", gather_min)
    operator = steering_operator(*grid)
    assert (operator.screen_snapshots <= p) == (route == "screened")
    ys, kappas = fusion_problems(rng, operator, n_problems, p)
    batch = assert_matches_lone_solves(operator, ys, kappas, max_iterations=60)
    assert all(np.any(x != 0) for x in batch.x)


def test_screened_products_split_into_pair_slices(rng, monkeypatch):
    """Slices of a few (problem, delay) pairs, so every product of the
    screened route runs several spatial GEMMs that mix problems."""
    monkeypatch.setattr(operators, "PAIR_SLICE", 7)
    operator = steering_operator(91, 50)
    ys, kappas = fusion_problems(rng, operator, 3, 6)
    assert_matches_lone_solves(operator, ys, kappas, max_iterations=40)


def test_frozen_problems_keep_their_lone_solve(rng):
    """Problems that converge early leave the screened loop's rows — one
    with a wide support, one zero from the first step (κ above
    critical); every solution stays its lone solve's."""
    operator = steering_operator(91, 50)
    ys, kappas = fusion_problems(rng, operator, 3, 6)
    ys = np.concatenate([ys, ys[:1]])
    kappas = [*kappas, 40.0 * kappas[0]]
    batch = assert_matches_lone_solves(
        operator, ys, kappas, max_iterations=120, tolerance=1e-2
    )
    assert all(batch.converged)
    assert batch.iterations[3] == 1 and not np.any(batch.x[3])
    first = int(np.argmin(batch.iterations[:3]))
    assert batch.iterations[first] < max(batch.iterations[:3])
    assert np.count_nonzero(np.any(batch.x[first] != 0, axis=1)) > 10
