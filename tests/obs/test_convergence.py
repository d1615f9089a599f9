"""Tests for ConvergenceTrace and the support-size helper."""

from __future__ import annotations

import numpy as np

from repro.obs import ConvergenceTrace, support_size


class TestSupportSize:
    def test_vector_counts_nonzeros(self):
        assert support_size(np.array([0.0, 1.0, 0.0, -2.0])) == 2

    def test_matrix_counts_active_rows(self):
        x = np.zeros((4, 3))
        x[1] = 1.0
        x[3, 0] = 0.5
        assert support_size(x) == 2


class TestConvergenceTrace:
    def _trace(self, objectives) -> ConvergenceTrace:
        trace = ConvergenceTrace(solver="fista")
        for i, objective in enumerate(objectives):
            trace.record(objective=objective, residual_norm=objective / 2, support_size=i)
        return trace

    def test_record_and_len(self):
        trace = self._trace([3.0, 2.0, 1.0])
        assert len(trace) == 3
        assert trace.iterations == 3
        assert trace.objectives == [3.0, 2.0, 1.0]
        assert trace.support_sizes == [0, 1, 2]

    def test_objective_decay(self):
        assert self._trace([3.0, 2.0, 1.0]).objective_decay() == 2.0
        assert self._trace([3.0]).objective_decay() == 0.0
        assert ConvergenceTrace().objective_decay() == 0.0

    def test_dict_round_trip(self):
        trace = self._trace([3.0, 1.0])
        clone = ConvergenceTrace.from_dict(trace.to_dict())
        assert clone == trace
        assert clone.solver == "fista"
