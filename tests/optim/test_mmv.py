"""Tests for the joint-sparse (MMV) solver."""

import numpy as np
import pytest

import repro.optim.mmv as mmv_kernel
from repro.exceptions import SolverError
from repro.obs import ConvergenceTrace
from repro.optim import (
    DictionaryOperator,
    KroneckerJointOperator,
    OutlierAugmentedOperator,
    robust_penalty_weights,
    solve_robust_lasso,
)
from repro.optim.linalg import squared_norms
from repro.optim.mmv import mmv_lockstep, mmv_objective, solve_mmv_fista
from repro.optim.operators import as_operator
from repro.optim.reference import reference_lasso_fista
from repro.optim.tuning import mmv_residual_kappa

from tests.optim.test_fista import make_sparse_system
from tests.optim.test_operators import steering_operator
from tests.optim.test_solve_batch import make_batch, plain_mmv_fista


def make_mmv_system(rng, m=30, n=120, k=3, p=5, noise=0.0):
    """Random dictionary with a row-sparse coefficient matrix."""
    a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(m)
    support = rng.choice(n, size=k, replace=False)
    x_true = np.zeros((n, p), dtype=complex)
    x_true[support] = rng.standard_normal((k, p)) + 1j * rng.standard_normal((k, p)) + 1.5
    y = a @ x_true
    if noise > 0:
        y = y + noise * (rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p)))
    return a, y, x_true, set(support.tolist())


class TestJointRecovery:
    def test_recovers_shared_support(self, rng):
        a, y, _, support = make_mmv_system(rng)
        result = solve_mmv_fista(a, y, kappa=0.05, max_iterations=600)
        row_norms = np.linalg.norm(result.x, axis=1)
        top = set(np.argsort(row_norms)[-len(support):].tolist())
        assert top == support

    def test_more_snapshots_beat_single_snapshot_under_noise(self, rng):
        """The SNR-pooling benefit that motivates multi-packet fusion."""
        a, y, _, support = make_mmv_system(rng, p=8, noise=0.4)
        joint = solve_mmv_fista(a, y, kappa=0.4, max_iterations=600)
        single = solve_mmv_fista(a, y[:, :1], kappa=0.4, max_iterations=600)

        def support_hits(x):
            row_norms = np.linalg.norm(np.atleast_2d(x.T).T, axis=1)
            top = set(np.argsort(row_norms)[-len(support):].tolist())
            return len(top & support)

        assert support_hits(joint.x) >= support_hits(single.x)

    def test_single_column_matches_vector_lasso(self, rng):
        a, y, *_ = make_sparse_system(rng)
        from repro.optim.fista import solve_lasso_fista

        vector = solve_lasso_fista(a, y, kappa=0.1, max_iterations=2000, tolerance=1e-9)
        matrix = solve_mmv_fista(a, y[:, None], kappa=0.1, max_iterations=2000, tolerance=1e-9)
        # ℓ2,1 of a one-column matrix is the ℓ1 norm → identical problems.
        np.testing.assert_allclose(matrix.x[:, 0], vector.x, atol=1e-3)

    def test_large_kappa_zeroes_everything(self, rng):
        a, y, *_ = make_mmv_system(rng)
        huge = 10 * float(np.linalg.norm(2 * a.conj().T @ y, axis=1).max())
        result = solve_mmv_fista(a, y, kappa=huge, max_iterations=50)
        assert np.all(result.x == 0)


class TestObjective:
    def test_objective_formula(self, rng):
        a, y, x_true, _ = make_mmv_system(rng)
        residual = a @ x_true - y
        expected = np.vdot(residual, residual).real + 0.2 * np.linalg.norm(x_true, axis=1).sum()
        assert mmv_objective(a, y, x_true, 0.2) == pytest.approx(expected)

    def test_history_tracking(self, rng):
        a, y, *_ = make_mmv_system(rng)
        telemetry = ConvergenceTrace()
        solve_mmv_fista(a, y, kappa=0.1, max_iterations=40, tolerance=0.0,
                        telemetry=telemetry)
        assert len(telemetry.objectives) == 40
        assert telemetry.objectives[-1] <= telemetry.objectives[0]


class TestStoppingRule:
    @pytest.mark.parametrize("form", ["dense", "kronecker"])
    def test_stops_at_first_iteration_meeting_the_rule(self, rng, form):
        """The reported iteration is the first ``k`` with
        ``‖x_k − x_{k−1}‖² ≤ tol²·max(1, ‖x_{k−1}‖²)``, recomputed here."""
        if form == "dense":
            a, y, *_ = make_mmv_system(rng)
        else:
            a = KroneckerJointOperator(
                rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9)),
                rng.standard_normal((3, 13)) + 1j * rng.standard_normal((3, 13)),
            )
            x_true = np.zeros((a.shape[1], 4), dtype=complex)
            x_true[[5, 40, 90]] = rng.standard_normal((3, 4)) + 1.5
            y = a.matvec(x_true)
        tolerance = 1e-3
        iterates = []
        result = solve_mmv_fista(
            a, y, kappa=0.1, max_iterations=2000, tolerance=tolerance,
            callback=lambda it, x, objective: iterates.append(x),
        )
        previous = [np.zeros_like(iterates[0])] + iterates[:-1]
        first = next(
            k
            for k, (x, before) in enumerate(zip(iterates, previous), start=1)
            if squared_norms(x - before, axis=(0, 1))
            <= tolerance**2 * max(1.0, squared_norms(before, axis=(0, 1)))
        )
        assert result.converged
        assert result.iterations == first == len(iterates) < 2000


def make_kronecker_system(rng, p):
    """A 117-atom Kronecker dictionary and a three-row truth with p columns."""

    def noise(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    operator = KroneckerJointOperator(noise(6, 9), noise(3, 13))
    x_true = np.zeros((operator.shape[1], p), dtype=complex)
    x_true[[5, 40, 90]] = rng.standard_normal((3, p)) + 1.5
    return operator, x_true, noise


class TestSupportTail:
    """From ``GATHER_MIN_SIZE`` on, the kernel's tail runs on the gathered
    support rows only; these pin what must still hold off them, and run
    the small problems below through both tails."""

    @pytest.fixture(autouse=True, params=("dense", "gathered"))
    def tail(self, request, monkeypatch):
        monkeypatch.setattr(mmv_kernel, "GATHER_MIN_SIZE", 0 if request.param == "gathered" else 10**12)
        return request.param

    def test_frozen_problem_keeps_its_iterate_and_the_rest_match_solo_solves(self, rng):
        operator, x_true, noise = make_kronecker_system(rng, p=2)
        m = operator.shape[0]
        ys = np.stack([operator.matvec(x_true) + 0.1 * noise(m, 2) for _ in range(3)])
        kappas = (40.0, 1.0, 2.0)
        stacks = []
        batch = mmv_lockstep(
            operator, ys, kappas, max_iterations=400, tolerance=1e-3,
            observe=lambda it, x: stacks.append(x),
        )
        frozen_at = batch.iterations[0]
        assert batch.converged[0] and frozen_at < min(batch.iterations[1:])
        for x in stacks[frozen_at:]:
            np.testing.assert_array_equal(x[0], stacks[frozen_at - 1][0])
        for b in range(3):
            solo = mmv_lockstep(
                operator, ys[b : b + 1], kappas[b : b + 1], max_iterations=400, tolerance=1e-3
            )
            np.testing.assert_array_equal(batch.x[b], solo.x[0])
            assert batch.iterations[b] == solo.iterations[0]

    @pytest.mark.parametrize("n_snapshots", (1, 2))
    def test_warm_rows_outside_the_first_candidate_support(self, rng, n_snapshots):
        """Warm rows the first prox zeroes must leave the iterate, and the
        momentum rows they leave behind must clear, as in the plain loop."""
        operator, x_true, noise = make_kronecker_system(rng, p=n_snapshots)
        y = operator.matvec(x_true) + 0.05 * noise(operator.shape[0], n_snapshots)
        warm = x_true + 0.01 * noise(*x_true.shape)
        kappa = mmv_residual_kappa(operator, y, fraction=0.1)
        first = solve_mmv_fista(operator, y, kappa, max_iterations=1, x0=warm).x
        assert np.any(np.all(first == 0, axis=1) & np.all(warm != 0, axis=1))
        for iterations in (1, 2, 5, 300):
            x = solve_mmv_fista(operator, y, kappa, max_iterations=iterations, x0=warm).x
            reference = plain_mmv_fista(
                operator, y, kappa, max_iterations=iterations, x0=warm
            )
            scale = max(1.0, float(np.abs(reference).max()))
            assert float(np.abs(x - reference).max()) <= 1e-12 * scale

    @pytest.mark.parametrize("base", ("dense", "kronecker"))
    def test_weighted_robust_rows_at_one_column(self, rng, base):
        """The outlier block's λ/κ-weighted rows through solve_robust_lasso
        (p = 1, an operator whose rmatvec takes no out=) follow the plain
        weighted ℓ1 loop."""
        if base == "dense":
            a, y, *_ = make_sparse_system(rng, noise=0.02)
        else:
            a, x_true, noise = make_kronecker_system(rng, p=1)
            y = a.matvec(x_true)[:, 0] + 0.02 * noise(a.shape[0])
        y[[1, 7]] += 3.0 * np.abs(y).max()
        kappa = mmv_residual_kappa(a, y[:, None], fraction=0.05)
        result = solve_robust_lasso(a, y, kappa, 0.5 * kappa, max_iterations=300)
        augmented = OutlierAugmentedOperator(a)
        reference = reference_lasso_fista(
            augmented, y, kappa, max_iterations=300,
            penalty_weights=robust_penalty_weights(a.shape[1], a.shape[0], kappa, 0.5 * kappa),
        )
        solution = np.concatenate([result.x, result.e])
        scale = max(1.0, float(np.abs(reference).max()))
        assert float(np.abs(solution - reference).max()) <= 1e-12 * scale
        assert 0 < np.count_nonzero(result.e) < len(y)

    def test_zero_thresholds_and_zero_atoms_follow_the_plain_loop(self, rng):
        """A κ = 0 problem (every nonzero row in the support) and a zero
        atom under a zero weight (0/0 in the shrink factor) in a warm
        B = 3 batch."""
        a, ys = make_batch(rng, 3)
        a[:, 0] = 0.0
        n = a.shape[1]
        weights = 0.5 + rng.random(n)
        weights[::7] = 0.0
        stacks = np.stack([np.stack([y, 0.9 * y + 0.1j * ys[0]], axis=1) for y in ys])
        kappas = (0.1, 0.0, 0.2)
        warm = 0.05 * (rng.standard_normal((3, n, 2)) + 1j * rng.standard_normal((3, n, 2)))
        batch = mmv_lockstep(
            as_operator(a), stacks, kappas, warm, max_iterations=300, penalty_weights=weights
        )
        for b in range(3):
            reference = plain_mmv_fista(
                a, stacks[b], kappas[b], max_iterations=300, x0=warm[b], penalty_weights=weights
            )
            assert np.all(np.isfinite(batch.x[b]))
            scale = max(1.0, float(np.abs(reference).max()))
            assert float(np.abs(batch.x[b] - reference).max()) <= 1e-12 * scale

    def test_kept_callback_iterates_stay_distinct(self, rng):
        a, y, *_ = make_mmv_system(rng)
        kept = []
        result = solve_mmv_fista(
            a, y, kappa=0.1, max_iterations=30, tolerance=0.0,
            callback=lambda it, x, objective: kept.append(x),
        )
        assert len(kept) == 30
        for before, after in zip(kept, kept[1:]):
            assert not np.shares_memory(before, after)
        for iterations in (1, 2, 10):
            truncated = solve_mmv_fista(a, y, kappa=0.1, max_iterations=iterations, tolerance=0.0)
            np.testing.assert_array_equal(kept[iterations - 1], truncated.x)
        np.testing.assert_array_equal(kept[-1], result.x)
        assert not np.shares_memory(kept[-1], result.x)


class ScreenedKronecker(KroneckerJointOperator):
    """Screens rows at every snapshot count and grid size."""

    screen_snapshots = 1


def both_tails(monkeypatch, solve):
    """``solve()`` under the gathered tail, then under the dense one."""
    results = []
    for size in (0, 10**12):
        monkeypatch.setattr(mmv_kernel, "GATHER_MIN_SIZE", size)
        results.append(solve())
    return results


class TestScreenedTail:
    """The gathered tail with screened rows (``p ≥ screen_snapshots``) must
    give the dense tail's iterate bit for bit, as in TestSupportTail."""

    def test_screened_fig6_shape_matches_the_dense_tail(self, rng, monkeypatch):
        """p = 6 on the 91×50 grid, cold and warm: the screened gathered
        tail and the dense tail give the same iterate bit for bit."""
        operator = steering_operator(91, 50)
        assert operator.screen_snapshots <= 6
        n, m = operator.shape[1], operator.shape[0]
        x_true = np.zeros((n, 6), dtype=complex)
        x_true[[700, 1650, 1700, 3000]] = rng.standard_normal((4, 6)) + 1.5
        noise = rng.standard_normal((m, 6)) + 1j * rng.standard_normal((m, 6))
        y = operator.matvec(x_true) + 0.3 * noise
        kappa = mmv_residual_kappa(operator, y, fraction=0.05)
        for warm in (None, x_true + 0.01 * rng.standard_normal(x_true.shape)):
            gathered, dense = both_tails(monkeypatch, lambda: solve_mmv_fista(
                operator, y, kappa, max_iterations=250, x0=warm
            ).x)
            np.testing.assert_array_equal(gathered, dense)
            assert np.count_nonzero(np.any(gathered != 0, axis=1)) > 0

    def test_screened_tail_with_no_candidates(self, rng, monkeypatch):
        """A κ above critical leaves the screen empty from the first step."""
        operator = steering_operator(91, 50)
        m = operator.shape[0]
        y = rng.standard_normal((m, 6)) + 1j * rng.standard_normal((m, 6))
        kappa = 10 * mmv_residual_kappa(operator, y, fraction=0.5)
        gathered, dense = both_tails(monkeypatch, lambda: solve_mmv_fista(
            operator, y, kappa, max_iterations=20
        ).x)
        assert np.all(gathered == 0) and np.all(dense == 0)

    def test_screened_batch_freezes_like_the_dense_tail(self, rng, monkeypatch):
        """B = 3 at p = 3, screened, with an early freeze under tol 1e-3."""
        operator, x_true, noise = make_kronecker_system(rng, p=3)
        operator = ScreenedKronecker(operator.temporal, operator.spatial)
        m = operator.shape[0]
        ys = np.stack([operator.matvec(x_true) + 0.1 * noise(m, 3) for _ in range(3)])
        kappas = (40.0, 1.0, 2.0)

        def solve():
            stacks = []
            batch = mmv_lockstep(
                operator, ys, kappas, max_iterations=400, tolerance=1e-3,
                observe=lambda it, x: stacks.append(x),
            )
            return batch, stacks

        (gathered, stacks), (dense, _) = both_tails(monkeypatch, solve)
        frozen_at = gathered.iterations[0]
        assert gathered.converged[0] and frozen_at < min(gathered.iterations[1:])
        for x in stacks[frozen_at:]:
            np.testing.assert_array_equal(x[0], stacks[frozen_at - 1][0])
        np.testing.assert_array_equal(gathered.x, dense.x)
        np.testing.assert_array_equal(gathered.iterations, dense.iterations)

    def test_screened_weighted_rows_match_the_dense_tail(self, rng, monkeypatch):
        """Per-row thresholds (zero weights included) in a warm B = 2
        batch at p = 3: each row is screened against its own threshold."""
        operator, x_true, noise = make_kronecker_system(rng, p=3)
        operator = ScreenedKronecker(operator.temporal, operator.spatial)
        n, m = operator.shape[1], operator.shape[0]
        weights = 0.5 + rng.random(n)
        weights[::9] = 0.0
        ys = np.stack([operator.matvec(x_true) + 0.1 * noise(m, 3) for _ in range(2)])
        warm = np.stack([x_true + 0.05 * noise(n, 3) for _ in range(2)])
        gathered, dense = both_tails(monkeypatch, lambda: mmv_lockstep(
            operator, ys, (1.0, 3.0), warm, max_iterations=200, penalty_weights=weights
        ).x)
        np.testing.assert_array_equal(gathered, dense)

    def test_row_a_few_ulps_above_its_threshold_is_gathered(self, rng, monkeypatch):
        """Plant the threshold just under one row's explicit first-step norm,
        at a row whose Gram energy (without slack) reads lower than that
        norm: the screen's slack must still admit it."""
        operator = steering_operator(91, 50)
        n, m, p = operator.shape[1], operator.shape[0], 6
        # One strong atom: rows at its steering nulls carry energies far
        # below their delay's, where the Gram form's rounding is largest.
        x_true = np.zeros((n, p), dtype=complex)
        x_true[25 * 91 + 40] = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        y = operator.matvec(x_true) + 1e-6 * (rng.standard_normal((m, p)) + 1j)
        lipschitz = operator.lipschitz()
        step = 1.0 / (2.0 * lipschitz)
        residual = y * (2.0 * step)
        explicit = DictionaryOperator.rmatvec_energies(operator, residual, p)[0][0]
        bounds = operator.rmatvec_energies(residual, p)[0][0]
        delays = operator._temporal_adjoint @ np.ascontiguousarray(residual.T).reshape(
            p, operator.n_subcarriers, operator.n_antennas
        )
        trace = np.sum(np.abs(delays) ** 2, axis=(0, 2))
        slack = (2.0 * (9 + 9 + p + 3) * np.finfo(float).eps * 3.0) * trace
        gram = bounds - np.repeat(slack, operator.n_angles)
        ratio = np.where(explicit > 0, gram / explicit, np.inf)
        row = int(np.argmin(ratio))
        assert ratio[row] < 1.0 - 16 * np.finfo(float).eps
        threshold = np.sqrt(explicit[row]) * (1.0 - 2 * np.finfo(float).eps)
        kappa = threshold / step
        gathered, dense = both_tails(monkeypatch, lambda: solve_mmv_fista(
            operator, y, kappa, max_iterations=1, lipschitz=lipschitz
        ).x)
        np.testing.assert_array_equal(gathered, dense)
        assert np.any(dense[row] != 0)


class TestValidation:
    def test_rejects_vector_rhs(self, rng):
        a, y, *_ = make_sparse_system(rng)
        with pytest.raises(SolverError, match="2-D"):
            solve_mmv_fista(a, y, kappa=0.1)

    def test_rejects_zero_columns(self, rng):
        a, *_ = make_mmv_system(rng)
        with pytest.raises(SolverError):
            solve_mmv_fista(a, np.zeros((a.shape[0], 0)), kappa=0.1)

    def test_rejects_negative_kappa(self, rng):
        a, y, *_ = make_mmv_system(rng)
        for kappa in (-0.1, np.nan, np.inf):
            with pytest.raises(SolverError, match="kappa"):
                solve_mmv_fista(a, y, kappa=kappa)

    def test_rejects_bad_lipschitz_and_warm_start(self, rng):
        a, y, *_ = make_mmv_system(rng)
        for lipschitz in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(SolverError, match="lipschitz"):
                solve_mmv_fista(a, y, kappa=0.1, lipschitz=lipschitz)
        x0 = np.zeros((a.shape[1], y.shape[1]), dtype=complex)
        x0[3, 1] = np.nan
        with pytest.raises(SolverError, match="x0"):
            solve_mmv_fista(a, y, kappa=0.1, x0=x0)

    def test_zero_dictionary_returns_zero(self):
        result = solve_mmv_fista(np.zeros((4, 8)), np.zeros((4, 2)), kappa=0.1)
        assert np.all(result.x == 0)
        assert result.x.shape == (8, 2)
