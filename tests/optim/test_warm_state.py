"""Tests for the first-class warm-start state and its solve_batch hookup."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.optim import WarmStartState, solve_batch


class TestSlots:
    def test_put_get_copies_both_ways(self):
        state = WarmStartState()
        solution = np.arange(6, dtype=complex).reshape(3, 2)
        state.put("k", solution)
        solution[0, 0] = 99.0
        stored = state.get("k")
        assert stored[0, 0] == 0.0

    def test_missing_key_is_a_miss(self):
        state = WarmStartState()
        assert state.get("absent") is None
        assert (state.hits, state.misses) == (0, 1)

    def test_shape_mismatch_is_a_miss(self):
        state = WarmStartState()
        state.put("k", np.zeros((3, 2), dtype=complex))
        assert state.get("k", shape=(3, 4)) is None
        assert state.get("k", shape=(3, 2)) is not None
        assert (state.hits, state.misses) == (1, 1)

    def test_drop_clear_len_contains_nbytes(self):
        state = WarmStartState()
        state.put("a", np.zeros(4, dtype=complex))
        state.put("b", np.zeros(4, dtype=complex))
        assert len(state) == 2 and "a" in state
        assert state.nbytes == 2 * 4 * 16
        state.drop("a")
        state.drop("a")  # idempotent
        assert len(state) == 1 and "a" not in state
        state.clear()
        assert len(state) == 0


class TestSolveBatchCarryOver:
    @pytest.fixture()
    def problem(self, rng):
        matrix = rng.normal(size=(12, 24)) + 1j * rng.normal(size=(12, 24))
        ys = [rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2)) for _ in range(3)]
        return matrix, ys

    def test_keys_carry_solutions_across_batches(self, problem):
        matrix, ys = problem
        state = WarmStartState()
        keys = [f"c{i}:ap" for i in range(3)]
        first = solve_batch(
            matrix, ys, "mmv", kappa_fraction=0.2, warm_state=state, warm_keys=keys,
            max_iterations=40,
        )
        assert len(state) == 3
        assert state.misses == 3 and state.hits == 0
        second = solve_batch(
            matrix, ys, "mmv", kappa_fraction=0.2, warm_state=state, warm_keys=keys,
            max_iterations=40,
        )
        assert state.hits == 3
        # Re-solving the same problems from their own solutions stays
        # at (or refines) the solution — never degrades it.
        for a, b in zip(first.to_numpy(), second.to_numpy()):
            assert np.linalg.norm(b - a) <= 0.5 * np.linalg.norm(a) + 1e-9

    def test_empty_state_matches_no_state_exactly(self, problem):
        matrix, ys = problem
        cold = solve_batch(matrix, ys, "mmv", kappa_fraction=0.2, max_iterations=30)
        warmed = solve_batch(
            matrix, ys, "mmv", kappa_fraction=0.2, max_iterations=30,
            warm_state=WarmStartState(), warm_keys=["a", "b", "c"],
        )
        np.testing.assert_array_equal(cold.to_numpy(), warmed.to_numpy())

    def test_warm_state_validation(self, problem):
        matrix, ys = problem
        state = WarmStartState()
        with pytest.raises(SolverError):
            solve_batch(matrix, ys, "mmv", kappa_fraction=0.2, warm_keys=["a", "b", "c"])
        with pytest.raises(SolverError):
            solve_batch(
                matrix, ys, "mmv", kappa_fraction=0.2, warm_state=state, warm_keys=["a"]
            )
        with pytest.raises(SolverError):
            solve_batch(
                matrix, [y[:, 0] for y in ys], "omp", kappa=2, warm_state=state,
                warm_keys=["a", "b", "c"],
            )
